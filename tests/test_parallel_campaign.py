"""Tests for the parallel campaign engine and sharded seed derivation.

The contract under test: for a fixed base seed, ``run_campaign_parallel``
reports aggregate counts bit-identical for any worker count and chunking,
and identical to a straight in-order loop over one ``TrialRunner`` —
because trial ``i`` always runs with ``derive_trial_seed(base_seed, i)``
and shards merge in trial order.
"""

import pickle

import pytest

from repro.core import SCHEDULER_REGISTRY, SchedulerSpec, make_scheduler
from repro.harness import (
    CampaignProgress,
    derive_trial_seed,
    run_campaign_parallel,
)
from repro.harness.cli import main as cli_main
from repro.harness import parallel
from repro.harness.parallel import MAX_SHARD_TRIALS, shard_bounds
from repro.workloads import ProgramSpec
from tests.helpers import straight_loop


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_trial_seed(7, 3) == derive_trial_seed(7, 3)

    def test_distinct_within_campaign(self):
        seeds = [derive_trial_seed(0, i) for i in range(2000)]
        assert len(set(seeds)) == 2000

    def test_nearby_base_seeds_do_not_overlap(self):
        """The old ``base_seed + i`` scheme made campaigns with nearby
        base seeds rerun each other's trial streams; splitmix must not."""
        a = {derive_trial_seed(0, i) for i in range(500)}
        b = {derive_trial_seed(1, i) for i in range(500)}
        assert not (a & b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_seed(0, -1)

    def test_64_bit_range(self):
        seed = derive_trial_seed(123456789, 42)
        assert 0 <= seed < 2 ** 64


class TestSpecs:
    def test_scheduler_spec_builds_named_scheduler(self):
        spec = SchedulerSpec("pctwm", {"depth": 1, "k_com": 4})
        sched = spec(seed=3)
        assert sched.name == "pctwm"
        assert spec.scheduler_name == "pctwm"

    def test_scheduler_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            SchedulerSpec("not-a-scheduler")
        with pytest.raises(ValueError):
            make_scheduler("not-a-scheduler")

    def test_registry_keys_match_scheduler_names(self):
        for name, cls in SCHEDULER_REGISTRY.items():
            assert cls.name == name

    def test_program_spec_builds_benchmarks_litmus_and_apps(self):
        assert ProgramSpec("dekker").build().name == "dekker"
        assert ProgramSpec("SB", kind="litmus").build() is not None
        silo = ProgramSpec("silo", kind="app",
                           params={"workers": 2, "transactions": 1})
        assert silo.build() is not None

    def test_program_spec_rejects_unknown(self):
        with pytest.raises(ValueError):
            ProgramSpec("no-such-benchmark")
        with pytest.raises(ValueError):
            ProgramSpec("dekker", kind="no-such-kind")

    def test_specs_are_picklable(self):
        """The whole point: closures don't cross process boundaries."""
        program = ProgramSpec("seqlock", params={"inserted_writes": 2})
        sched = SchedulerSpec("pctwm",
                              {"depth": 2, "k_com": 10, "history": 2})
        p2 = pickle.loads(pickle.dumps(program))
        s2 = pickle.loads(pickle.dumps(sched))
        assert p2.build().name == "seqlock"
        assert s2(seed=1).name == "pctwm"


class TestShardBounds:
    def test_partition_is_exact(self):
        for trials, jobs in ((1, 4), (10, 3), (100, 4), (17, 8)):
            bounds = shard_bounds(trials, jobs)
            covered = [i for start, stop in bounds
                       for i in range(start, stop)]
            assert covered == list(range(trials))

    def test_serial_single_shard(self):
        assert shard_bounds(50, 1, chunks_per_job=1) == [(0, 50)]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_no_shard_exceeds_the_cap(self, jobs):
        trials = 10 * MAX_SHARD_TRIALS + 3
        bounds = shard_bounds(trials, jobs)
        assert bounds[-1][1] == trials
        assert max(stop - start for start, stop in bounds) \
            <= MAX_SHARD_TRIALS

    def test_serial_campaign_holds_at_most_one_capped_shard(
            self, monkeypatch):
        """A long serial campaign folds in capped shards, so the records
        held at once stay bounded however many trials it runs."""
        monkeypatch.setattr(parallel, "MAX_SHARD_TRIALS", 5)
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("pctwm", {"depth": 2, "k_com": 4})
        snapshots = []
        result = run_campaign_parallel(program, sched, trials=40,
                                       base_seed=5, jobs=1,
                                       progress=snapshots.append)
        assert [s.completed_trials for s in snapshots] \
            == list(range(5, 41, 5))
        reference = straight_loop(program, sched, trials=40, base_seed=5)
        assert (result.hits, result.total_steps, result.total_events) \
            == (reference.hits, reference.total_steps,
                reference.total_events)


# The acceptance contract: two litmus programs x two schedulers, the
# parallel path with 4 workers bit-identical to serial.
EQUIVALENCE_CASES = [
    ("SB", SchedulerSpec("pctwm", {"depth": 2, "k_com": 4, "history": 1})),
    ("SB", SchedulerSpec("pct", {"depth": 2, "k_events": 4})),
    ("MP", SchedulerSpec("pctwm", {"depth": 1, "k_com": 4, "history": 2})),
    ("MP", SchedulerSpec("pct", {"depth": 1, "k_events": 4})),
]


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("litmus,sched", EQUIVALENCE_CASES,
                             ids=lambda c: getattr(c, "name", c))
    def test_bit_identical_aggregates(self, litmus, sched):
        program = ProgramSpec(litmus, kind="litmus")
        serial = run_campaign_parallel(program, sched, trials=60,
                                       base_seed=11, jobs=1)
        parallel = run_campaign_parallel(program, sched, trials=60,
                                         base_seed=11, jobs=4)
        reference = straight_loop(program, sched, trials=60, base_seed=11)
        assert (serial.hits, serial.inconclusive, serial.total_steps,
                serial.total_events) \
            == (reference.hits, reference.inconclusive,
                reference.total_steps, reference.total_events)
        assert parallel.hits == serial.hits
        assert parallel.inconclusive == serial.inconclusive
        assert parallel.total_steps == serial.total_steps
        assert parallel.total_events == serial.total_events
        assert parallel.program == serial.program
        assert parallel.scheduler == serial.scheduler
        assert len(parallel.run_times_s) == serial.trials

    def test_chunking_does_not_change_results(self):
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("pctwm", {"depth": 2, "k_com": 4})
        results = [
            run_campaign_parallel(program, sched, trials=40, base_seed=5,
                                  jobs=jobs, chunks_per_job=chunks)
            for jobs, chunks in ((2, 1), (2, 4), (3, 2), (4, 5))
        ]
        counts = {(r.hits, r.inconclusive, r.total_steps, r.total_events)
                  for r in results}
        assert len(counts) == 1

    def test_jobs_one_is_serial(self):
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        result = run_campaign_parallel(program, sched, trials=10,
                                       base_seed=0, jobs=1)
        assert result.jobs == 1
        # In-process shards report their walls like pooled ones do.
        assert len(result.shard_times_s) == len(shard_bounds(10, 1))


class TestProgressHook:
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_progress_reports_monotonic_completion(self, jobs):
        snapshots = []
        program = ProgramSpec("SB", kind="litmus")
        sched = SchedulerSpec("naive")
        run_campaign_parallel(program, sched, trials=24, base_seed=0,
                              jobs=jobs, progress=snapshots.append)
        assert snapshots
        # One snapshot per shard, serial campaigns included.
        assert len(snapshots) == len(shard_bounds(24, jobs))
        completed = [s.completed_trials for s in snapshots]
        assert completed == sorted(completed)
        assert completed[-1] == 24
        final = snapshots[-1]
        assert final.total_trials == 24
        assert final.trials_per_second > 0
        assert final.eta_s == 0.0
        assert "24/24" in final.render()

    def test_progress_called_on_serial_path_too(self):
        snapshots = []
        run_campaign_parallel(ProgramSpec("SB", kind="litmus"),
                              SchedulerSpec("naive"), trials=5,
                              jobs=1, progress=snapshots.append)
        assert [s.completed_trials for s in snapshots] == [2, 3, 4, 5]

    def test_eta_infinite_before_any_elapsed_time(self):
        p = CampaignProgress(0, 10, 0.0)
        assert p.eta_s == float("inf")
        assert "?" in p.render()


class TestCliJobs:
    def test_campaign_command_with_jobs(self, capsys):
        rc = cli_main(["campaign", "dekker", "--trials", "8",
                       "--jobs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dekker / pctwm" in out
        assert "jobs=2" in out

    def test_campaign_command_rejects_unknown_scheduler(self, capsys):
        rc = cli_main(["campaign", "dekker", "--scheduler", "bogus"])
        assert rc == 2

    def test_table3_accepts_jobs_flag(self, capsys):
        rc = cli_main(["table3", "--trials", "6", "--jobs", "2",
                       "--benchmarks", "dekker"])
        assert rc == 0
        assert "dekker" in capsys.readouterr().out
