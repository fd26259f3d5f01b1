"""The traced run: per-layer metrics of one workload.

Three passes follow the untraced timed rounds, each over one round of
the same inputs (so their outputs join the digest check):

A. **Parent pass**, at ``JOBS`` workers: spans around the public calls
   into ``harness``, ``core``, ``fuzz`` and ``replay`` made in this
   process, and around every executor run made here.  Pool and IPC cost
   shows as campaign time not covered by trial time.  For
   ``daemon-tso`` this pass runs against the daemon (``service``
   metrics), and a replica of its jobs through ``run_job`` in this
   process gives the ``harness`` and ``core`` spans.
B. **In-trial pass**, in process at one worker: spans around each
   executor run and each sanitizer call give exact run/event counts and
   host time per event.
C. **Profiled pass**, the same as B under ``cProfile``: self time per
   ``repro`` sub-package, as a share of all profiled time, scaled to
   pass B's wall time.  This covers the layers entered once per event.

The tracing overhead is pass A's wall time minus the median untraced
round's.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.runtime.executor import Executor
from repro.tso.backend import TsoExecutor

from spans import Tracer, layer_profile
from workloads import JOBS, DaemonTso, Round, Workload

#: (module, function, span name) traced in the parent pass.
PARENT_CALLS = (
    ("repro.harness.parallel", "run_campaign_parallel", "harness.campaign"),
    ("repro.core.depth", "estimate_parameters", "core.estimate"),
    ("repro.fuzz.generator", "plan_program", "fuzz.generate"),
    ("repro.fuzz.generator", "build_plan_program", "fuzz.generate"),
    ("repro.fuzz.generator", "generate_spec", "fuzz.generate"),
    ("repro.fuzz.driver", "_probe_batch", "fuzz.probe"),
    ("repro.fuzz.shrink", "shrink_plan", "fuzz.shrink"),
    ("repro.fuzz.corpus", "entry_from_finding", "fuzz.corpus"),
    ("repro.fuzz.corpus", "replay_entry", "fuzz.corpus"),
    ("repro.fuzz.corpus", "save_entry", "fuzz.corpus"),
    ("repro.replay.minimize", "minimize_trace", "replay.minimize"),
)


class RunCounter:
    """Folds executor results into exact run and event counts."""

    def __init__(self) -> None:
        self.runs = self.events = self.com_events = 0
        self.tso_events = 0
        self.max_com_events = 0

    def __call__(self, result, executor, *args, **kwargs) -> None:
        self.runs += 1
        self.events += result.k
        self.com_events += result.k_com
        self.max_com_events = max(self.max_com_events, result.k_com)
        if isinstance(executor, TsoExecutor):
            self.tso_events += result.k


def trace_executors(tracer: Tracer, counter: RunCounter) -> None:
    for cls in (Executor, TsoExecutor):
        tracer.patch_method(cls, "run", "runtime.run", counter)


def parent_pass(run) -> Tuple[Round, Tracer, List]:
    """Run ``run()`` with spans around the parent-side public calls."""
    tracer = Tracer()
    campaigns: List = []
    try:
        for module, attr, name in PARENT_CALLS:
            on_result = None
            if name == "harness.campaign":
                on_result = (lambda result, *a, **k:
                             campaigns.append(result))
            tracer.patch_function(module, attr, name, on_result)
        trace_executors(tracer, RunCounter())
        outcome = run()
    finally:
        tracer.restore()
    return outcome, tracer, campaigns


def harness_metrics(tracer: Tracer, campaigns: List) -> Dict[str, float]:
    spans = [s for s in tracer.spans if s.name == "harness.campaign"]
    campaign_s = sum(s.end - s.start for s in spans)
    capacity = sum((s.end - s.start) * max(c.jobs, 1)
                   for s, c in zip(spans, campaigns))
    trial_s = sum(c.time_sum_s for c in campaigns)
    skews = [max(c.shard_times_s) / statistics.fmean(c.shard_times_s)
             for c in campaigns if c.jobs > 1 and c.shard_times_s]
    return {
        "harness.campaigns": len(campaigns),
        "harness.pooled_campaigns": sum(1 for c in campaigns if c.jobs > 1),
        "harness.campaign_s": campaign_s,
        "harness.trial_s": trial_s,
        "harness.overhead_frac": 1.0 - trial_s / capacity if capacity else 0.0,
        "harness.shard_skew": statistics.fmean(skews) if skews else 0.0,
    }


def traced_metrics(workload: Workload, rounds: List[Round]):
    """Per-layer metrics, the extra rounds run, and printable notes."""
    untraced = statistics.median(r.wall_s for r in rounds)
    values: Dict[str, float] = {}
    notes: List[str] = []
    extra: List[Round] = []

    # A: parent pass (and, for the daemon, its in-process replica).
    is_daemon = isinstance(workload, DaemonTso)
    if is_daemon:
        workload.requests = workload.refused = 0
        workload.submit_s = workload.notice_s = 0.0
    round_a, tracer_a, campaigns = parent_pass(workload.run_round)
    extra.append(round_a)
    values["trace.overhead_s"] = round_a.wall_s - untraced
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced
    service = {name: 0.0 for name in (
        "service.queue_wait_s", "service.run_s", "service.submit_s",
        "service.notice_s", "service.requests_per_job", "service.refused")}
    if is_daemon:
        records = workload.records
        jobs = max(len(records), 1)
        service.update({
            "service.queue_wait_s": sum(r["started_at"] - r["submitted_at"]
                                        for r in records),
            "service.run_s": sum(r["finished_at"] - r["started_at"]
                                 for r in records),
            "service.submit_s": workload.submit_s,
            "service.notice_s": workload.notice_s,
            "service.requests_per_job": workload.requests / jobs,
            "service.refused": workload.refused,
        })
        round_a2, tracer_a, campaigns = parent_pass(
            lambda: workload.replica_round(JOBS))
        extra.append(round_a2)
    values.update(service)
    totals_a = tracer_a.totals()

    def total(name: str) -> float:
        return totals_a.get(name, (0, 0.0, 0.0))[1]

    values.update(harness_metrics(tracer_a, campaigns))
    values["core.estimate_calls"] = totals_a.get(
        "core.estimate", (0, 0.0, 0.0))[0]
    values["core.estimate_s"] = total("core.estimate")
    for name in ("generate", "probe", "shrink", "corpus"):
        values[f"fuzz.{name}_s"] = total(f"fuzz.{name}")
    values["fuzz.findings"] = round_a.counts.get("fuzz.findings", 0)
    values["fuzz.shrink_runs"] = tracer_a.count_within(
        "runtime.run", "fuzz.shrink")
    values["replay.minimize_s"] = total("replay.minimize")
    values["replay.minimize_runs"] = tracer_a.count_within(
        "runtime.run", "replay.minimize")
    notes.append("parent pass spans:")
    notes.extend("  " + line for line in tracer_a.render())

    # B: in-trial pass, one worker, in process.
    tracer_b, counter = Tracer(), RunCounter()
    try:
        trace_executors(tracer_b, counter)
        tracer_b.patch_function("repro.memory.axioms", "check_consistency",
                                "memory.sanitizer")
        round_b = workload.replica_round(1)
    finally:
        tracer_b.restore()
    extra.append(round_b)
    totals_b = tracer_b.totals()
    run_s = totals_b.get("runtime.run", (0, 0.0, 0.0))[1]
    sanitizer = totals_b.get("memory.sanitizer", (0, 0.0, 0.0))
    values.update({
        "runtime.runs": counter.runs,
        "runtime.events": counter.events,
        "runtime.com_events": counter.com_events,
        "runtime.us_per_event": (1e6 * run_s / counter.events
                                 if counter.events else 0.0),
        "memory.sanitizer_calls": sanitizer[0],
        "memory.sanitizer_s": sanitizer[1],
    })
    notes.append(f"in-trial pass: {round_b.wall_s:.3f} s, largest k_com "
                 f"{counter.max_com_events}")

    # C: the same work under cProfile, self time grouped by layer.
    round_c, profile = layer_profile(lambda: workload.replica_round(1))
    extra.append(round_c)
    share = profile.shares

    def layer_s(layer: str) -> float:
        return share.get(layer, 0.0) * round_b.wall_s

    values.update({
        "core.sched_calls": profile.sched_calls,
        "core.sched_s": layer_s("core"),
        "runtime.self_s": layer_s("runtime"),
        "memory.self_s": layer_s("memory"),
        "tso.self_s": layer_s("tso"),
        "tso.us_per_event": (1e6 * layer_s("tso") / counter.tso_events
                             if counter.tso_events else 0.0),
    })
    notes.append("profiled self-time share by layer: " + " ".join(
        f"{layer}={value:.3f}" for layer, value
        in sorted(share.items(), key=lambda kv: -kv[1])))
    for name in sorted(values):
        notes.append(f"  {name} = {values[name]:.6g}")
    return values, extra, notes
