"""One warm worker pool per sweep: :class:`CampaignPool` reuse.

The contract under test: campaigns run on a shared pool — whose workers
outlive each campaign and rebuild their trial runner per campaign token —
report exactly what the same campaigns report serially or on private
pools, artifacts included; the sweep drivers print the same output for
any ``--jobs``; a worker killed mid-sweep is absorbed by a pool rebuild
without changing results; and no worker outlives the ``with`` block.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.core import SchedulerSpec
from repro.fuzz import run_fuzz
from repro.harness import faultrig, figures, run_campaign_parallel
from repro.harness.figures import figure5, figure6
from repro.harness.parallel import CampaignPool
from repro.harness.tables import table2, table3
from repro.workloads import ProgramSpec

#: CampaignResult fields that depend on wall-clock time, worker count or
#: the artifact directory (artifacts are compared by name and content).
VARYING_FIELDS = {"elapsed_s", "run_times_s", "time_sum_s", "time_sq_sum_s",
                  "shard_times_s", "jobs", "artifacts"}

PCTWM = SchedulerSpec("pctwm", {"depth": 2, "k_com": 12, "history": 2})

#: A mixed sweep: programs, schedulers, both models, the sanitizer, bug
#: artifacts, and one campaign smaller than the pool (run in-process).
MIXED = [
    dict(program=ProgramSpec("SB", kind="litmus"), scheduler=PCTWM,
         trials=24, base_seed=1),
    dict(program=ProgramSpec("dekker"), scheduler=SchedulerSpec("pct", {
        "depth": 2, "k_events": 30}), trials=20, base_seed=2),
    dict(program=ProgramSpec("dekker"), scheduler=PCTWM, trials=20,
         base_seed=3, model="tso"),
    dict(program=ProgramSpec("MP", kind="litmus"),
         scheduler=SchedulerSpec("naive"), trials=16, base_seed=4,
         sanitize="all"),
    dict(program=ProgramSpec("msqueue"), scheduler=PCTWM, trials=12,
         base_seed=5, artifacts=True),
    dict(program=ProgramSpec("seqlock"), scheduler=PCTWM, trials=1,
         base_seed=6),
    dict(program=ProgramSpec("SB", kind="litmus"),
         scheduler=SchedulerSpec("c11tester"), trials=18, base_seed=7,
         sanitize="sampled"),
]


@pytest.fixture(autouse=True)
def clean_fault_env(monkeypatch):
    """Tests inject faults explicitly; never inherit them."""
    monkeypatch.delenv(faultrig.FAULT_ENV, raising=False)
    faultrig._DIRECTIVES = None
    yield
    faultrig._DIRECTIVES = None


def outcome(result):
    """Every deterministic CampaignResult field, plus artifact names."""
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result)
              if f.name not in VARYING_FIELDS}
    fields["sampled_runs"] = len(result.run_times_s)
    fields["artifacts"] = [os.path.basename(p) for p in result.artifacts]
    return fields


def run_mixed(tmp_path, label, jobs, pool=None):
    """Run MIXED; returns (outcomes, {artifact name: bytes})."""
    outcomes, files = [], {}
    for i, case in enumerate(MIXED):
        case = dict(case)
        artifact_dir = None
        if case.pop("artifacts", False):
            artifact_dir = str(tmp_path / f"{label}-{i}")
        result = run_campaign_parallel(
            case.pop("program"), case.pop("scheduler"), jobs=jobs,
            artifact_dir=artifact_dir, pool=pool, **case)
        outcomes.append(outcome(result))
        for path in result.artifacts:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
    return outcomes, files


def assert_no_workers():
    assert multiprocessing.active_children() == []


class TestSharedPoolEquivalence:
    def test_mixed_sweep_matches_serial_and_private_pools(self, tmp_path):
        serial = run_mixed(tmp_path, "serial", jobs=1)
        private = run_mixed(tmp_path, "private", jobs=2)
        with CampaignPool(2) as pool:
            shared = run_mixed(tmp_path, "shared", jobs=2, pool=pool)
        assert_no_workers()
        assert shared[0] == serial[0]
        assert shared[0] == private[0]
        assert serial[1], "the msqueue campaign wrote no artifacts"
        assert shared[1] == serial[1] == private[1]
        assert sum(o["inconsistent"] for o in shared[0]) == 0

    def test_workers_outlive_campaigns(self):
        changes = []
        with CampaignPool(2, on_pool_change=changes.append) as pool:
            for seed in range(3):
                result = run_campaign_parallel(
                    ProgramSpec("SB", kind="litmus"), PCTWM, trials=16,
                    base_seed=seed, jobs=2, pool=pool)
                assert result.jobs == 2 and result.completed == 16
            assert changes == [2]
        assert changes == [2, -2]
        assert_no_workers()

    def test_unused_pool_starts_no_workers(self):
        changes = []
        with CampaignPool(2, on_pool_change=changes.append) as pool:
            run_campaign_parallel(ProgramSpec("SB", kind="litmus"), PCTWM,
                                  trials=1, jobs=2, pool=pool)
        assert changes == []


class TestSweepsAreJobsInvariant:
    def test_figure5(self):
        kwargs = dict(trials=6, benchmarks=["dekker", "seqlock"],
                      pct_depths=(1, 2), histories=(1, 2),
                      pctwm_depth_offsets=(0, 1))
        assert figure5(jobs=1, **kwargs) == figure5(jobs=2, **kwargs)

    def test_figure6(self):
        kwargs = dict(trials=6, insert_counts=(0, 2), benchmarks=["dekker"])
        assert figure6(jobs=1, **kwargs) == figure6(jobs=2, **kwargs)

    def test_table2(self):
        kwargs = dict(trials=6, histories=(1, 2), offsets=(0, 1),
                      benchmarks=["dekker"], sanitize="sampled")
        assert table2(jobs=1, **kwargs) == table2(jobs=2, **kwargs)

    def test_table3(self):
        kwargs = dict(trials=6, histories=(1, 2), benchmarks=["seqlock"])
        assert table3(jobs=1, **kwargs) == table3(jobs=2, **kwargs)

    def test_run_fuzz(self):
        kwargs = dict(base_seed=3, count=4, trials=12, probe_trials=4)
        assert run_fuzz(jobs=1, **kwargs).render() \
            == run_fuzz(jobs=2, **kwargs).render()

    def test_figures_count_contained_faults(self, monkeypatch):
        real = figures.run_campaign_parallel

        def faulty(*args, **kwargs):
            result = real(*args, **kwargs)
            result.errors, result.timeouts, result.inconsistent = 1, 2, 3
            return result

        monkeypatch.setattr(figures, "run_campaign_parallel", faulty)
        bars = figure5(trials=6, benchmarks=["dekker"], pct_depths=(1,),
                       histories=(1, 2), pctwm_depth_offsets=(0,), jobs=2)
        assert (bars[0].errors, bars[0].timeouts,
                bars[0].inconsistent) == (4, 8, 12)  # 4 campaigns
        series = figure6(trials=6, insert_counts=(0, 2),
                         benchmarks=["dekker"], jobs=2)["dekker"]
        assert (series.errors, series.timeouts,
                series.inconsistent) == (6, 12, 18)  # 6 campaigns


class TestSweepsStopOnInterrupt:
    """Ctrl-C (or SIGTERM) in a serial sweep stops the sweep: it neither
    reports the cut-short campaign nor runs the campaigns after it."""

    @pytest.mark.parametrize("sweep, kwargs", [
        (figure5, dict(trials=8, benchmarks=["dekker"], pct_depths=(1,),
                       histories=(1,), pctwm_depth_offsets=(0,))),
        (figure6, dict(trials=8, insert_counts=(0,), benchmarks=["dekker"])),
        (table2, dict(trials=8, histories=(1,), offsets=(0, 1),
                      benchmarks=["dekker"])),
        (table3, dict(trials=8, histories=(1, 2), benchmarks=["dekker"])),
        (run_fuzz, dict(base_seed=3, count=2, trials=8, probe_trials=4)),
    ], ids=["figure5", "figure6", "table2", "table3", "run_fuzz"])
    def test_interrupt_stops_a_serial_sweep(self, monkeypatch, sweep,
                                            kwargs):
        from repro.harness.campaign import TrialRunner

        real = TrialRunner.run
        calls = []

        def run(self, index):
            calls.append(index)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(self, index)

        monkeypatch.setattr(TrialRunner, "run", run)
        with pytest.raises(KeyboardInterrupt):
            sweep(jobs=1, **kwargs)
        assert len(calls) == 3  # no trial ran after the interrupt


class TestSharedPoolFaults:
    def test_killed_worker_mid_sweep_is_bit_identical(self, tmp_path,
                                                      monkeypatch):
        kwargs = dict(trials=8, benchmarks=["dekker", "seqlock"],
                      pct_depths=(1,), histories=(1, 2),
                      pctwm_depth_offsets=(0,), jobs=2)
        clean = figure5(**kwargs)
        sentinel = tmp_path / "killed"
        monkeypatch.setenv(faultrig.FAULT_ENV, f"kill-once:{sentinel}")
        faulted = figure5(**kwargs)
        assert sentinel.exists()  # a worker really died mid-sweep
        assert faulted == clean
        assert_no_workers()

    def test_pool_is_rebuilt_after_a_worker_dies(self, tmp_path,
                                                 monkeypatch):
        sentinel = tmp_path / "killed"
        monkeypatch.setenv(faultrig.FAULT_ENV, f"kill-once:{sentinel}")
        changes = []
        program = ProgramSpec("SB", kind="litmus")
        with CampaignPool(2, on_pool_change=changes.append) as pool:
            shared = [run_campaign_parallel(
                program, PCTWM, trials=16, base_seed=seed, jobs=2,
                retry_backoff_s=0.0, pool=pool) for seed in range(2)]
        assert sentinel.exists()
        assert changes == [2, -2, 2, -2]
        serial = [run_campaign_parallel(program, PCTWM, trials=16,
                                        base_seed=seed)
                  for seed in range(2)]
        assert [outcome(r) for r in shared] == [outcome(r) for r in serial]

    def test_no_worker_survives_an_exception(self):
        with pytest.raises(RuntimeError):
            with CampaignPool(2) as pool:
                run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                      PCTWM, trials=8, jobs=2, pool=pool)
                raise RuntimeError("sweep failed")
        assert_no_workers()

    def test_no_worker_survives_keyboard_interrupt(self):
        with pytest.raises(KeyboardInterrupt):
            with CampaignPool(2) as pool:
                run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                      PCTWM, trials=8, jobs=2, pool=pool)
                raise KeyboardInterrupt
        assert_no_workers()

    def test_interrupted_campaign_leaves_the_pool_usable(self):
        def interrupt(progress):
            raise KeyboardInterrupt

        program = ProgramSpec("SB", kind="litmus")
        with CampaignPool(2) as pool:
            cut = run_campaign_parallel(program, PCTWM, trials=40, jobs=2,
                                        progress=interrupt, pool=pool)
            after = run_campaign_parallel(program, PCTWM, trials=16,
                                          base_seed=3, jobs=2, pool=pool)
        assert cut.interrupted and cut.completed < 40
        assert outcome(after) == outcome(run_campaign_parallel(
            program, PCTWM, trials=16, base_seed=3))
        assert_no_workers()


class TestPoolOptions:
    @pytest.mark.parametrize("option", [
        {"hang_timeout_s": 30.0}, {"memory_limit_mb": 4096.0},
        {"start_method": "fork"}, {"on_pool_change": print},
    ])
    def test_pool_level_option_with_pool_rejected(self, option):
        with CampaignPool(2) as pool:
            with pytest.raises(ValueError, match="CampaignPool"):
                run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                      PCTWM, trials=4, jobs=2, pool=pool,
                                      **option)

    def test_jobs_must_match_pool(self):
        with CampaignPool(2) as pool:
            with pytest.raises(ValueError, match="jobs"):
                run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                      PCTWM, trials=4, jobs=3, pool=pool)

    def test_pool_validates_its_options(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignPool(0)
        with pytest.raises(ValueError, match="hang_timeout_s"):
            CampaignPool(2, hang_timeout_s=0.0)

    def test_pool_hang_budget_must_exceed_trial_budget(self):
        with CampaignPool(2, hang_timeout_s=5.0) as pool:
            with pytest.raises(ValueError, match="must exceed"):
                run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                                      PCTWM, trials=4, jobs=2, pool=pool,
                                      trial_timeout_s=5.0)
