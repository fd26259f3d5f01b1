"""The four workloads: what one round of each runs, and how it is checked.

A *round* is a fixed unit of work made from the seed alone, so every
round of a run (and every run with that seed) must produce the same
deterministic outputs.  :class:`Round` carries the round's wall time,
one latency per operation, the failure accounting and the outputs that
go into the digest.  Operations are a workload's own unit of work:

* ``campaign-silo``: one trial of a long PCTWM campaign on the silo app;
* ``sweep-figure5``: one campaign of the Figure 5 sweep;
* ``fuzz-pipeline``: one generated program through ``run_fuzz``;
* ``daemon-tso``: one campaign job on a ``repro serve`` subprocess.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import repro
from repro.core.factory import SchedulerSpec
from repro.fuzz import corpus_files, load_entry, replay_entry, run_fuzz
from repro.harness import parallel
from repro.harness.figures import figure5
from repro.service.client import TERMINAL_STATUSES, ServiceClient, ServiceError
from repro.service.jobs import JobSpec, result_summary, run_job
from repro.workloads.registry import BENCHMARK_ORDER, ProgramSpec

from spans import Tracer

#: Worker processes for every workload (the benchmark host has 2 CPUs).
JOBS = 2

#: Campaign fields that are pure functions of the inputs.
CAMPAIGN_FIELDS = ("program", "scheduler", "trials", "completed", "hits",
                   "inconclusive", "total_steps", "total_events", "errors",
                   "timeouts", "inconsistent")


@dataclass
class Round:
    wall_s: float
    #: Operations completed in the round.
    ops: int
    #: Host seconds per operation (for silo a deterministic sample of
    #: the trials, see ``CampaignResult.run_times_s``).
    latencies: List[float]
    attempted: int
    failed: int
    #: Deterministic outputs; every round of a run must repeat them.
    digest: Any
    problems: List[str] = field(default_factory=list)
    #: Exact workload-level counts reported by a traced run.
    counts: Dict[str, int] = field(default_factory=dict)


def campaign_failures(result) -> int:
    """Errored, timed-out, inconsistent or never-run trials."""
    return (result.errors + result.timeouts + result.inconsistent
            + (result.trials - result.completed))


def campaign_digest(result) -> Dict[str, Any]:
    return {name: getattr(result, name) for name in CAMPAIGN_FIELDS}


class Workload:
    """One workload; subclasses fill in the round."""

    name = ""
    #: What one operation is, for the printed summary.
    unit = ""

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Build specs and start services (timed as part of set-up)."""

    def warmup(self) -> None:
        """A small untimed run that fills caches and lazy imports."""
        raise NotImplementedError

    def run_round(self, jobs: int = JOBS) -> Round:
        raise NotImplementedError

    def replica_round(self, jobs: int) -> Round:
        """The round's work, run in this process (in-trial tracing)."""
        return self.run_round(jobs)
    def close(self) -> None:
        """Stop what :meth:`setup` started and wait for it."""


class CampaignSilo(Workload):
    """One long closed-loop PCTWM campaign on the silo application."""

    name = "campaign-silo"
    unit = "trial"
    TRIALS = 2000
    #: At or above the largest k_com silo(3, 6) shows (~130-136), so every
    #: communication event can host a change point.
    K_COM = 150

    def setup(self) -> None:
        self.program = ProgramSpec(
            "silo", kind="app", params={"workers": 3, "transactions": 6})
        self.scheduler = SchedulerSpec(
            "pctwm", {"depth": 2, "k_com": self.K_COM, "history": 2})

    def _campaign(self, trials: int, seed: int, jobs: int):
        # Looked up on the module each time, so a traced run sees it.
        return parallel.run_campaign_parallel(
            self.program, self.scheduler, trials=trials, base_seed=seed,
            jobs=jobs)

    def warmup(self) -> None:
        self._campaign(200, self.seed + 1, JOBS)

    def run_round(self, jobs: int = JOBS) -> Round:
        t0 = time.perf_counter()
        result = self._campaign(self.TRIALS, self.seed, jobs)
        wall = time.perf_counter() - t0
        problems = []
        if result.hits == 0:
            problems.append("silo campaign found no race")
        return Round(wall, result.completed, list(result.run_times_s),
                     result.trials, campaign_failures(result),
                     campaign_digest(result), problems)


class SweepFigure5(Workload):
    """``figure5`` over all nine Table-1 benchmarks."""

    name = "sweep-figure5"
    unit = "campaign"
    #: figure5's default.  Fewer trials make pool start a larger share
    #: but also make the sweep far noisier on a shared host, since
    #: forking is what slows most when neighbours load the machine.
    TRIALS = 100

    def warmup(self) -> None:
        figure5(trials=5, seed=self.seed + 1, jobs=JOBS,
                benchmarks=["dekker"])

    def run_round(self, jobs: int = JOBS) -> Round:
        campaigns: List[Any] = []
        observer = Tracer()
        observer.patch_function(
            "repro.harness.parallel", "run_campaign_parallel", "campaign",
            on_result=lambda result, *a, **k: campaigns.append(result))
        try:
            t0 = time.perf_counter()
            bars = figure5(trials=self.TRIALS, seed=self.seed, jobs=jobs)
            wall = time.perf_counter() - t0
        finally:
            observer.restore()
        latencies = [span.end - span.start for span in observer.spans]
        problems = []
        if len(bars) != len(BENCHMARK_ORDER):
            problems.append(f"figure5 returned {len(bars)} bars")
        for bar in bars:
            for rate in (bar.c11tester, bar.pct, bar.pctwm):
                if not 0.0 <= rate <= 100.0:
                    problems.append(f"{bar.benchmark}: rate {rate} out of "
                                    f"range")
        digest = {
            "bars": [[b.benchmark, b.c11tester, b.pct, b.pctwm,
                      b.pct_config, b.pctwm_config] for b in bars],
            "campaigns": [campaign_digest(c) for c in campaigns],
        }
        return Round(wall, len(latencies), latencies,
                     sum(c.trials for c in campaigns),
                     sum(campaign_failures(c) for c in campaigns), digest,
                     problems)


class FuzzPipeline(Workload):
    """``run_fuzz`` with the C11/PCTWM defaults and a corpus directory."""

    name = "fuzz-pipeline"
    unit = "program"
    #: Programs cost very different amounts (a finding is shrunk and
    #: minimised), so a round needs many of them for its cost not to
    #: depend on the seed: at 40 the rate moved 30% between seeds.
    COUNT = 120

    def warmup(self) -> None:
        with tempfile.TemporaryDirectory(dir=self.tmp) as corpus:
            run_fuzz(base_seed=self.seed + 1, count=3, jobs=JOBS,
                     corpus_dir=corpus)

    def run_round(self, jobs: int = JOBS) -> Round:
        # run_fuzz calls plan_stats once per program, as it starts it.
        observer = Tracer()
        observer.patch_function("repro.fuzz.generator", "plan_stats",
                                "program")
        with tempfile.TemporaryDirectory(dir=self.tmp) as corpus:
            try:
                t0 = time.perf_counter()
                report = run_fuzz(base_seed=self.seed, count=self.COUNT,
                                  jobs=jobs, corpus_dir=corpus)
                wall = time.perf_counter() - t0
            finally:
                observer.restore()
            # Untimed: every pinned corpus entry must replay green.
            bad_replays = [os.path.basename(path)
                           for path in corpus_files(corpus)
                           if not replay_entry(load_entry(path)).ok]
            entries = sorted(os.path.basename(p)
                             for p in corpus_files(corpus))
        starts = [span.start for span in observer.spans]
        latencies = [b - a for a, b in zip(starts, starts[1:] + [t0 + wall])]
        problems = [f"corpus entry {name} does not replay"
                    for name in bad_replays]
        if len(starts) != self.COUNT or len(report.programs) != self.COUNT:
            problems.append(f"fuzzed {len(report.programs)} of "
                            f"{self.COUNT} programs")
        dropped = sum(1 for f in report.findings
                      if str(f.get("note", "")).startswith("entry failed"))
        trials = sum(p.trials for p in report.programs)
        failed = sum(p.errors + p.timeouts + p.inconsistent
                     for p in report.programs) + dropped + len(bad_replays)
        digest = {"report": report.render(), "corpus": entries}
        return Round(wall, len(latencies), latencies,
                     trials + len(report.findings), failed, digest, problems,
                     counts={"fuzz.findings": len(report.findings)})


class DaemonTso(Workload):
    """Closed-loop TSO campaign jobs against a ``repro serve`` process."""

    name = "daemon-tso"
    unit = "job"
    TRIALS = 100
    #: Client status poll interval; latency comes from the job records,
    #: so polling only bounds how soon the next job is sent.
    POLL_S = 0.05
    #: Admission limits far above what one closed-loop client can send.
    RATE = "1000"
    BURST = "1000"

    def specs(self) -> List[Dict[str, Any]]:
        return [{"benchmark": name, "model": "tso", "scheduler": "pctwm",
                 "trials": self.TRIALS, "seed": self.seed, "jobs": JOBS}
                for name in BENCHMARK_ORDER]

    def setup(self) -> None:
        self.state_dir = os.path.join(self.tmp, "service")
        self.requests = 0
        self.submit_s = 0.0
        self.notice_s = 0.0
        self.refused = 0
        self.client: Optional[ServiceClient] = None
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", self.state_dir, "--port", "0",
             "--worker-budget", str(JOBS), "--max-concurrent-jobs", "1",
             "--rate", self.RATE, "--burst", self.BURST, "--quiet"],
            env=env, stdin=subprocess.DEVNULL, start_new_session=True)
        endpoint = os.path.join(self.state_dir, "endpoint.json")
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become healthy")
            try:
                with open(endpoint) as fh:
                    url = json.load(fh)["url"]
                client = ServiceClient(url, retries=0)
                if client.health().get("status") == "ok":
                    self.client = client
                    return
            except (OSError, ValueError, KeyError, ServiceError):
                time.sleep(0.01)

    def _run_job(self, spec: Dict[str, Any]):
        """Submit one job and wait for it; returns (record, refused)."""
        t0 = time.perf_counter()
        try:
            job = self.client.submit(spec)
        except ServiceError as exc:
            if exc.code == 429:
                self.refused += 1
            return None, True
        finally:
            self.submit_s += time.perf_counter() - t0
            self.requests += 1
        while True:
            record = self.client.status(job["id"])
            self.requests += 1
            if record["status"] in TERMINAL_STATUSES:
                break
            time.sleep(self.POLL_S)
        noticed = time.time()
        if record.get("finished_at"):
            self.notice_s += noticed - record["finished_at"]
        return record, False

    @staticmethod
    def _job_digest(benchmark: str, status: str,
                    result: Optional[dict]) -> list:
        result = result or {}
        return [benchmark, status] + [result.get(name)
                                      for name in CAMPAIGN_FIELDS]

    @staticmethod
    def _job_failed(status: str, result: Optional[dict]) -> bool:
        result = result or {}
        return (status != "done" or bool(result.get("errors"))
                or bool(result.get("timeouts"))
                or bool(result.get("inconsistent"))
                or result.get("completed") != result.get("trials"))

    def warmup(self) -> None:
        spec = dict(self.specs()[0], seed=self.seed + 1)
        record, failed = self._run_job(spec)
        if failed or record["status"] != "done":
            raise RuntimeError(f"warm-up job failed: {record}")

    def run_round(self, jobs: int = JOBS) -> Round:
        self.records: List[dict] = []
        latencies, digest = [], []
        failed = 0
        wall = 0.0
        for spec in self.specs():
            t0 = time.perf_counter()
            record, refused = self._run_job(spec)
            wall += time.perf_counter() - t0
            if refused:
                failed += 1
                digest.append(self._job_digest(spec["benchmark"], "refused",
                                               None))
                continue
            self.records.append(record)
            if record.get("finished_at") is not None:
                latencies.append(
                    record["finished_at"] - record["submitted_at"])
            status, result = record["status"], record.get("result")
            failed += self._job_failed(status, result)
            digest.append(self._job_digest(spec["benchmark"], status,
                                           result))
        return Round(wall, len(latencies), latencies, len(digest), failed,
                     digest)

    def replica_round(self, jobs: int) -> Round:
        """The same jobs through ``run_job`` in this process, with the
        daemon's forkserver start method for pooled campaigns."""
        latencies, digest = [], []
        failed = 0
        t_round = time.perf_counter()
        for spec in self.specs():
            t0 = time.perf_counter()
            result = result_summary(run_job(
                JobSpec.from_dict(spec), jobs_override=jobs,
                start_method="forkserver"))
            latencies.append(time.perf_counter() - t0)
            failed += self._job_failed("done", result)
            digest.append(self._job_digest(spec["benchmark"], "done",
                                           result))
        wall = time.perf_counter() - t_round
        _stop_forkserver()
        return Round(wall, len(latencies), latencies, len(digest), failed,
                     digest)

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        try:
            if proc.poll() is None and self.client is not None:
                self.client.drain()
            proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        _reap_group(proc.pid)
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _stop_forkserver() -> None:
    """Stop and wait for this process's forkserver and the resource
    tracker it started, if they are running."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def _reap_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Stop what is left of a process group and wait until it is gone
    (the daemon's forkserver is not the daemon's to reap)."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        deadline = time.monotonic() + timeout_s
        try:
            os.killpg(pgid, sig)
            while time.monotonic() < deadline:
                time.sleep(0.02)
                os.killpg(pgid, 0)
        except ProcessLookupError:
            return


WORKLOADS: Dict[str, Callable[[int, str], Workload]] = {
    cls.name: cls for cls in (CampaignSilo, SweepFigure5, FuzzPipeline,
                              DaemonTso)
}

