"""Engine throughput benchmarking: the ``repro bench`` subcommand.

Measures the execution engine's events/second per scheduler on the two
largest application workloads (silo, iris), plus serial vs parallel
campaign throughput, and writes the result as a machine-readable JSON
trajectory (``BENCH_engine.json``) with an environment fingerprint.

The committed file doubles as a regression gate: ``repro bench --check``
re-measures and fails when any (workload, scheduler) cell — or the
serial campaign trials/second — falls more than ``tolerance`` below the
committed number; the CI perf-smoke job runs exactly that in ``--quick``
mode.

Methodology: each cell runs a short warmup, then takes the *best* of
``repeats`` timed batches (best-of defends against scheduler noise and
cache-cold outliers on shared CI machines; variance within a batch is
already amortized over dozens of runs).
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from ..core.factory import SchedulerSpec
from ..memory.model import resolve_model
from ..runtime import run_once
from ..workloads.registry import ProgramSpec
from .parallel import run_campaign_parallel

#: Scheduler configurations benchmarked (also the grid of
#: benchmarks/test_engine_throughput.py).
SCHEDULER_SPECS: Dict[str, SchedulerSpec] = {
    "naive": SchedulerSpec("naive"),
    "c11tester": SchedulerSpec("c11tester"),
    "pct": SchedulerSpec("pct", {"depth": 2, "k_events": 120}),
    "pctwm": SchedulerSpec("pctwm", {"depth": 2, "k_com": 100,
                                     "history": 2}),
    "pos": SchedulerSpec("pos"),
}

#: The scheduler cells measured under the TSO backend — the c11tester
#: baseline manipulates rf nondeterminism, which TSO does not have.
TSO_SCHEDULER_SPECS: Dict[str, SchedulerSpec] = {
    name: spec for name, spec in SCHEDULER_SPECS.items()
    if name != "c11tester"
}

#: Suffix appended to a workload key for its TSO engine cells in
#: ``engine_events_per_sec`` (e.g. ``"silo@tso"``).
TSO_CELL_SUFFIX = "@tso"

#: The two largest application models: enough events per run that the
#: per-run setup cost does not dominate the events/sec signal.
WORKLOAD_SPECS: Dict[str, ProgramSpec] = {
    "silo": ProgramSpec("silo", kind="app",
                        params={"workers": 3, "transactions": 6}),
    "iris": ProgramSpec("iris", kind="app"),
}

MAX_STEPS = 100_000

#: Events/sec measured with this same harness at the last commit before
#: the fast-path engine landed (the graph/axiom code now kept as the
#: reference oracle was the only execution path).  Kept in the output so
#: the committed trajectory always shows the before/after of the
#: fast-path work; regenerating the file does not lose the "before".
PRE_FASTPATH_BASELINE = {
    "silo": {"naive": 48975, "c11tester": 56282, "pct": 43590,
             "pctwm": 41572, "pos": 45417},
    "iris": {"naive": 53035, "c11tester": 55651, "pct": 51423,
             "pctwm": 42964, "pos": 52905},
}

#: Campaign trials/second (silo/pctwm, full mode) measured at the last
#: commit before the campaign fast path landed (cold per-trial
#: scheduler/program/executor construction, always-on recording, per-line
#: journal writes).  Kept for the same reason as the engine baseline: the
#: committed trajectory always shows the before/after of the fast-path
#: work under ``campaign_fastpath``.
PRE_CAMPAIGN_FASTPATH_BASELINE = {
    "trials": 48,
    "serial_trials_per_sec": 449.99,
}


def environment_fingerprint() -> dict:
    """Enough platform detail to judge whether two runs are comparable."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def measure_events_per_sec(program_spec: ProgramSpec,
                           scheduler_spec: SchedulerSpec,
                           runs: int, repeats: int,
                           base_seed: int = 0,
                           model: str = "c11") -> dict:
    """Best-of-``repeats`` events/second over batches of ``runs`` runs."""
    run = run_once if model == "c11" else resolve_model(model).run_once
    seed = base_seed
    for _ in range(max(runs // 4, 1)):  # warmup: JIT-free, but cache-warm
        run(program_spec.build(), scheduler_spec(seed),
            keep_graph=False, max_steps=MAX_STEPS)
        seed += 1
    best = 0.0
    events = 0
    for _ in range(repeats):
        batch_events = 0
        start = time.perf_counter()
        for _ in range(runs):
            result = run(program_spec.build(), scheduler_spec(seed),
                         keep_graph=False, max_steps=MAX_STEPS)
            batch_events += result.k
            seed += 1
        elapsed = time.perf_counter() - start
        rate = batch_events / elapsed if elapsed > 0 else 0.0
        if rate > best:
            best = rate
            events = batch_events
    return {"events_per_sec": round(best, 1), "runs": runs,
            "events_per_batch": events}


def measure_campaign_throughput(trials: int, jobs: int,
                                base_seed: int = 0,
                                repeats: int = 2) -> dict:
    """Serial vs ``--jobs N`` campaign trials/second on silo under PCTWM.

    Same methodology as the engine cells: a warmup campaign first, then
    the best of ``repeats`` timed campaigns per mode.
    """
    program = WORKLOAD_SPECS["silo"]
    scheduler = SCHEDULER_SPECS["pctwm"]

    def wall_s(n: int, seed: int, jobs: int) -> float:
        start = time.perf_counter()
        result = run_campaign_parallel(program, scheduler, trials=n,
                                       base_seed=seed, max_steps=MAX_STEPS,
                                       jobs=jobs)
        if result.interrupted:
            # A cut-short campaign's wall would overstate its trials/s.
            raise KeyboardInterrupt
        return time.perf_counter() - start

    wall_s(max(trials // 4, 1), base_seed + trials, 1)
    serial_s = min(wall_s(trials, base_seed, 1) for _ in range(repeats))
    parallel_s = min(wall_s(trials, base_seed, jobs)
                     for _ in range(repeats))
    return {
        "trials": trials,
        "serial_trials_per_sec": round(trials / serial_s, 2),
        f"jobs={jobs}_trials_per_sec": round(trials / parallel_s, 2),
        "jobs": jobs,
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
    }


def run_bench(quick: bool = False, seed: int = 0,
              campaign: bool = True,
              models: tuple = ("c11", "tso")) -> dict:
    """Measure the full trajectory and return the JSON-ready document.

    ``models`` selects which memory-model engines get cells: the C11
    cells keep their historical workload keys; TSO cells live under
    ``<workload>@tso`` in the same table, so the ``--check`` gate covers
    both engines with one mechanism.
    """
    runs = 12 if quick else 60
    repeats = 2 if quick else 3
    engine: Dict[str, Dict[str, dict]] = {}
    if "c11" in models:
        for workload, program_spec in WORKLOAD_SPECS.items():
            engine[workload] = {}
            for name, scheduler_spec in SCHEDULER_SPECS.items():
                cell = measure_events_per_sec(program_spec, scheduler_spec,
                                              runs=runs, repeats=repeats,
                                              base_seed=seed)
                engine[workload][name] = cell
    if "tso" in models:
        for workload, program_spec in WORKLOAD_SPECS.items():
            key = workload + TSO_CELL_SUFFIX
            engine[key] = {}
            for name, scheduler_spec in TSO_SCHEDULER_SPECS.items():
                cell = measure_events_per_sec(program_spec, scheduler_spec,
                                              runs=runs, repeats=repeats,
                                              base_seed=seed, model="tso")
                engine[key][name] = cell
    doc = {
        "meta": {
            "tool": "repro bench",
            "mode": "quick" if quick else "full",
            "seed": seed,
            "environment": environment_fingerprint(),
        },
        "engine_events_per_sec": {
            workload: {
                name: cell["events_per_sec"]
                for name, cell in cells.items()
            }
            for workload, cells in engine.items()
        },
        "baseline_pre_fastpath": PRE_FASTPATH_BASELINE,
    }
    if campaign:
        jobs = min(4, os.cpu_count() or 1)
        trials = 16 if quick else 48
        throughput = measure_campaign_throughput(
            trials=trials, jobs=jobs, base_seed=seed
        )
        doc["campaign_throughput"] = throughput
        before = PRE_CAMPAIGN_FASTPATH_BASELINE["serial_trials_per_sec"]
        doc["campaign_fastpath"] = {
            "before": dict(PRE_CAMPAIGN_FASTPATH_BASELINE),
            "after": {
                "trials": throughput["trials"],
                "serial_trials_per_sec":
                    throughput["serial_trials_per_sec"],
            },
            "speedup": round(
                throughput["serial_trials_per_sec"] / before, 2
            ),
        }
    return doc


def check_against_baseline(current: dict, baseline: dict,
                           tolerance: float = 0.30) -> list:
    """Regression check: events/sec cells vs the committed trajectory.

    Returns human-readable failure strings for every cell that fell more
    than ``tolerance`` below the committed number.  Cells present in only
    one document are skipped (schedulers/workloads may be added over
    time); improvements never fail.
    """
    failures = []
    committed = baseline.get("engine_events_per_sec", {})
    measured = current.get("engine_events_per_sec", {})
    for workload, cells in committed.items():
        for name, committed_rate in cells.items():
            rate = measured.get(workload, {}).get(name)
            if rate is None or not committed_rate:
                continue
            floor = committed_rate * (1.0 - tolerance)
            if rate < floor:
                failures.append(
                    f"{workload}/{name}: {rate:.0f} events/s is "
                    f"{(1 - rate / committed_rate) * 100:.0f}% below the "
                    f"committed {committed_rate:.0f} "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
    committed_rate = (baseline.get("campaign_throughput") or {}
                      ).get("serial_trials_per_sec")
    rate = (current.get("campaign_throughput") or {}
            ).get("serial_trials_per_sec")
    if committed_rate and rate is not None:
        floor = committed_rate * (1.0 - tolerance)
        if rate < floor:
            failures.append(
                f"campaign serial: {rate:.0f} trials/s is "
                f"{(1 - rate / committed_rate) * 100:.0f}% below the "
                f"committed {committed_rate:.0f} "
                f"(tolerance {tolerance * 100:.0f}%)"
            )
    return failures


def render_bench(doc: dict) -> str:
    """Terminal-friendly summary of a trajectory document."""
    lines = []
    env = doc["meta"]["environment"]
    lines.append(
        f"engine throughput ({doc['meta']['mode']} mode, "
        f"python {env['python']}, {env['cpu_count']} cpus)"
    )
    baseline = doc.get("baseline_pre_fastpath", {})
    for workload, cells in doc["engine_events_per_sec"].items():
        lines.append(f"  {workload}:")
        for name, rate in cells.items():
            before = baseline.get(workload, {}).get(name)
            suffix = ""
            if before:
                suffix = f"  (pre-fastpath {before}, {rate / before:.2f}x)"
            lines.append(f"    {name:<10} {rate:>9.0f} events/s{suffix}")
    campaign = doc.get("campaign_throughput")
    if campaign:
        jobs = campaign["jobs"]
        lines.append(
            f"  campaign (silo/pctwm, {campaign['trials']} trials): "
            f"{campaign['serial_trials_per_sec']} trials/s serial, "
            f"{campaign[f'jobs={jobs}_trials_per_sec']} trials/s "
            f"with --jobs {jobs} ({campaign['speedup']}x)"
        )
        fastpath = doc.get("campaign_fastpath")
        if fastpath:
            lines.append(
                f"  campaign fast path: "
                f"{fastpath['before']['serial_trials_per_sec']} -> "
                f"{fastpath['after']['serial_trials_per_sec']} trials/s "
                f"serial ({fastpath['speedup']}x)"
            )
    return "\n".join(lines)


def bench_command(out: Optional[str], quick: bool, check: bool,
                  baseline_path: str, seed: int,
                  tolerance: float = 0.30, model: str = "all") -> int:
    """Implementation of ``python -m repro bench``; returns exit code."""
    models = ("c11", "tso") if model == "all" else (model,)
    doc = run_bench(quick=quick, seed=seed, models=models)
    print(render_bench(doc))
    if out:
        path = Path(out)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"trajectory written to {path}")
    if check:
        baseline_file = Path(baseline_path)
        if not baseline_file.exists():
            print(f"no baseline at {baseline_file}; nothing to check "
                  "against", file=sys.stderr)
            return 1
        baseline = json.loads(baseline_file.read_text())
        failures = check_against_baseline(doc, baseline,
                                          tolerance=tolerance)
        if failures:
            print("perf regression vs committed trajectory:",
                  file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"perf check OK (within {tolerance * 100:.0f}% of "
              f"{baseline_file})")
    return 0
