"""Tests for the campaign fast path.

Three contracts:

* **Record-on-failure is invisible.**  ``record_mode="on_failure"``
  (the default) runs trials without a recording scheduler and
  deterministically re-executes failures to capture the trace; the
  artifacts it writes must be byte-identical to ``record_mode="always"``
  for every failure outcome (bug, error, timeout, inconsistent), and a
  re-recorded artifact must still replay.
* **Warm state is invisible.**  A :class:`TrialRunner` reusing its
  scheduler/program/executor/execution-state across trials (registry
  specs declare ``supports_reuse``) must produce trial records identical
  to cold per-trial construction, seed for seed, across all nine
  benchmark workloads and all five schedulers.
* **Bounded aggregation is exact.**  ``CampaignResult.run_times_s`` is a
  capped sample, but the average and RSD are computed from running sums
  and stay exact at any campaign length.
"""

import dataclasses
import math
import os

from repro.core.factory import SchedulerSpec
from repro.harness.artifact import load_artifact, replay_artifact
from repro.harness.campaign import (
    ERROR_SAMPLE_LIMIT,
    RUN_TIME_SAMPLE_LIMIT,
    CampaignAccumulator,
    CampaignResult,
    TrialRecord,
    TrialRunner,
)
from repro.harness.parallel import run_campaign_parallel
from repro.memory.events import RLX
from repro.memory.visibility import VisibilityTracker
from repro.runtime.program import Program
from repro.workloads import BENCHMARKS
from repro.workloads.registry import ProgramSpec

MSQUEUE_SPEC = ProgramSpec("msqueue")
PCTWM_SPEC = SchedulerSpec("pctwm", {"depth": 0, "k_com": 31, "history": 1})

SCHEDULER_SPECS = {
    "naive": SchedulerSpec("naive"),
    "c11tester": SchedulerSpec("c11tester"),
    "pct": SchedulerSpec("pct", {"depth": 2, "k_events": 120}),
    "pctwm": SchedulerSpec("pctwm", {"depth": 2, "k_com": 100,
                                     "history": 2}),
    "pos": SchedulerSpec("pos"),
}


def _crashing_program() -> Program:
    p = Program("crasher")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        raise RuntimeError("injected workload crash")

    p.add_thread(t0)
    return p


def _store_store_load() -> Program:
    p = Program("ssl")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        yield x.store(2, RLX)
        got = yield x.load(RLX)
        return got

    p.add_thread(t0)
    return p


def _artifact_bytes(directory) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _campaign_aggregates(result: CampaignResult) -> tuple:
    return (result.trials, result.completed, result.hits, result.errors,
            result.timeouts, result.inconsistent, result.inconclusive,
            result.total_steps, result.total_events,
            result.error_samples, result.violation_samples)


class TestRecordOnFailureIdentity:
    """on_failure artifacts are byte-identical to always-record ones."""

    def _both_modes(self, tmp_path, program_factory, scheduler_factory,
                    trials, **kwargs):
        results = {}
        for mode in ("always", "on_failure"):
            directory = tmp_path / mode
            directory.mkdir()
            results[mode] = run_campaign_parallel(
                program_factory, scheduler_factory, trials=trials,
                base_seed=3, artifact_dir=str(directory),
                record_mode=mode, **kwargs)
        assert _campaign_aggregates(results["always"]) == \
            _campaign_aggregates(results["on_failure"])
        always = _artifact_bytes(tmp_path / "always")
        on_failure = _artifact_bytes(tmp_path / "on_failure")
        assert list(always) == list(on_failure)
        for name in always:
            assert always[name] == on_failure[name], name
        return results["on_failure"], on_failure

    def test_bug_outcome(self, tmp_path):
        result, artifacts = self._both_modes(
            tmp_path, MSQUEUE_SPEC, PCTWM_SPEC, trials=10)
        assert result.hits > 0
        assert len(artifacts) == result.hits

    def test_error_outcome(self, tmp_path):
        result, artifacts = self._both_modes(
            tmp_path, _crashing_program, PCTWM_SPEC, trials=2)
        assert result.errors == 2
        assert len(artifacts) == 2

    def test_timeout_outcome(self, tmp_path):
        # trial_timeout_s=0.0 deterministically times out before the
        # first step in both modes (the deadline is checked at step 0),
        # so the re-recorded trace is empty exactly like the live one.
        result, artifacts = self._both_modes(
            tmp_path, ProgramSpec("dekker"), PCTWM_SPEC, trials=2,
            trial_timeout_s=0.0)
        assert result.timeouts == 2
        assert len(artifacts) == 2
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "timeout"
        assert artifact.steps == 0
        assert len(artifact.trace) == 0

    def test_inconsistent_outcome(self, tmp_path, monkeypatch):
        def evil(self, tid, loc, clock, seq_cst=False):
            return self._graph.writes_by_loc[loc][:1]

        monkeypatch.setattr(VisibilityTracker, "visible_writes", evil)
        result, artifacts = self._both_modes(
            tmp_path, _store_store_load, SchedulerSpec("c11tester"),
            trials=2, sanitize="all")
        assert result.inconsistent == 2
        assert len(artifacts) == 2
        assert load_artifact(result.artifacts[0]).outcome == "inconsistent"

    def test_rerecorded_artifact_replays(self, tmp_path):
        result = run_campaign_parallel(
            MSQUEUE_SPEC, PCTWM_SPEC, trials=10, base_seed=3,
            artifact_dir=str(tmp_path), record_mode="on_failure")
        assert result.hits > 0
        artifact = load_artifact(result.artifacts[0])
        assert artifact.outcome == "bug"
        report = replay_artifact(artifact)
        assert report.matched, report.mismatch
        assert report.result.bug_message == artifact.bug_message

    def test_results_match_without_artifacts(self):
        # Even with no artifact dir the two modes must agree on every
        # aggregate: recording wraps the scheduler but consumes no
        # randomness, so first-run outcomes are mode-independent.
        kwargs = dict(trials=12, base_seed=3)
        always = run_campaign_parallel(MSQUEUE_SPEC, PCTWM_SPEC,
                                       record_mode="always", **kwargs)
        on_failure = run_campaign_parallel(
            MSQUEUE_SPEC, PCTWM_SPEC, record_mode="on_failure", **kwargs)
        assert _campaign_aggregates(always) == \
            _campaign_aggregates(on_failure)


def _strip_timing(record: TrialRecord) -> dict:
    obj = dataclasses.asdict(record)
    obj.pop("elapsed_s")
    return obj


class TestWarmStateEquivalence:
    """Warm reuse is seed-for-seed identical to cold construction."""

    def test_all_workloads_all_schedulers(self):
        trials = 2
        for workload in BENCHMARKS:
            program_spec = ProgramSpec(workload)
            for name, scheduler_spec in SCHEDULER_SPECS.items():
                # Plain closures never declare supports_reuse, so the
                # cold runner rebuilds everything each trial.
                cold = TrialRunner(
                    (lambda spec=program_spec: spec.build()),
                    (lambda seed, spec=scheduler_spec: spec(seed)),
                    base_seed=7, max_steps=8000)
                warm = TrialRunner(program_spec, scheduler_spec,
                                   base_seed=7, max_steps=8000)
                assert not cold._reuse_scheduler and not cold._reuse_program
                assert warm._reuse_scheduler and warm._reuse_program
                for index in range(trials):
                    a = _strip_timing(cold.run(index))
                    b = _strip_timing(warm.run(index))
                    assert a == b, (workload, name, index)

    def test_warm_runner_matches_run_campaign(self):
        runner = TrialRunner(MSQUEUE_SPEC, PCTWM_SPEC, base_seed=3)
        records = [_strip_timing(runner.run(i)) for i in range(8)]
        result = run_campaign_parallel(MSQUEUE_SPEC, PCTWM_SPEC, trials=8,
                                       base_seed=3)
        assert sum(1 for r in records if r["bug_found"]) == result.hits
        assert sum(r["steps"] for r in records) == result.total_steps


class TestBoundedAggregation:
    """Sample caps never distort the exact aggregate statistics."""

    @staticmethod
    def _record(index, elapsed, error=None):
        return TrialRecord(index=index, bug_found=False,
                           limit_exceeded=False, steps=5, k=5,
                           elapsed_s=elapsed, error=error)

    def test_run_time_samples_capped_stats_exact(self):
        n = RUN_TIME_SAMPLE_LIMIT + 500
        elapsed = [1.0 + (i % 17) * 0.25 for i in range(n)]
        acc = CampaignAccumulator()
        for i, t in enumerate(elapsed):
            acc.add(self._record(i, t))
        result = CampaignResult(program="p", scheduler="s", trials=n)
        acc.finalize(result)
        assert result.completed == n
        assert len(result.run_times_s) == RUN_TIME_SAMPLE_LIMIT
        assert set(result.run_times_s) <= set(elapsed)
        mean = sum(elapsed) / n
        var = sum((t - mean) ** 2 for t in elapsed) / n
        assert math.isclose(result.avg_run_time_s, mean)
        assert math.isclose(result.run_time_rsd_pct,
                            math.sqrt(var) / mean * 100.0)

    def test_small_campaigns_keep_every_sample(self):
        acc = CampaignAccumulator()
        for i in range(60):
            acc.add(self._record(i, float(i)))
        result = CampaignResult(program="p", scheduler="s", trials=60)
        acc.finalize(result)
        assert result.run_times_s == [float(i) for i in range(60)]

    def test_error_samples_are_first_by_index(self):
        acc = CampaignAccumulator()
        # Fold out of order, as parallel shards do.
        for i in reversed(range(20)):
            acc.add(self._record(i, 0.0, error=f"boom {i}"))
        result = CampaignResult(program="p", scheduler="s", trials=20)
        acc.finalize(result)
        assert result.errors == 20
        assert result.error_samples == \
            [f"trial {i}: boom {i}" for i in range(ERROR_SAMPLE_LIMIT)]

    def test_fold_order_independent(self):
        records = [self._record(i, 0.5 + i * 0.01) for i in range(50)]
        forward, backward = CampaignAccumulator(), CampaignAccumulator()
        for r in records:
            forward.add(r)
        for r in reversed(records):
            backward.add(r)
        a = CampaignResult(program="p", scheduler="s", trials=50)
        b = CampaignResult(program="p", scheduler="s", trials=50)
        forward.finalize(a)
        backward.finalize(b)
        # The retained sample is exactly order-independent; the running
        # sums commute only up to float rounding.
        assert a.run_times_s == b.run_times_s
        assert math.isclose(a.time_sum_s, b.time_sum_s, rel_tol=1e-12)
        assert math.isclose(a.time_sq_sum_s, b.time_sq_sum_s,
                            rel_tol=1e-12)
