"""Wall-clock benchmark for the sharded campaign engine.

Runs a 1000-trial campaign serially and with 4 workers, checks the two
paths produce bit-identical aggregates, and — on machines with at least
4 physical cores — asserts the parallel path is at least 2x faster.
On smaller machines the equivalence check still runs but the speedup
assertion is skipped (forked workers time-slice one core, so there is
nothing to measure).

    REPRO_TRIALS=1000 PYTHONPATH=src python -m pytest \
        benchmarks/test_parallel_speedup.py -q -s
"""

import os
import time

import pytest

from repro.core import SchedulerSpec
from repro.harness import run_campaign_parallel
from repro.workloads import ProgramSpec

from conftest import trials_default

JOBS = 4


def _campaign_case():
    program = ProgramSpec("dekker")
    sched = SchedulerSpec("pctwm", {"depth": 1, "k_com": 12, "history": 2})
    return program, sched


def test_parallel_matches_serial_at_scale():
    trials = trials_default(1000)
    program, sched = _campaign_case()

    t0 = time.perf_counter()
    serial = run_campaign_parallel(program, sched, trials=trials,
                                   base_seed=0, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_campaign_parallel(program, sched, trials=trials,
                                     base_seed=0, jobs=JOBS)
    parallel_s = time.perf_counter() - t0

    assert (parallel.hits, parallel.inconclusive,
            parallel.total_steps, parallel.total_events) == \
           (serial.hits, serial.inconclusive,
            serial.total_steps, serial.total_events)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    print(f"\n{trials} trials: serial {serial_s:.2f}s, "
          f"jobs={JOBS} {parallel_s:.2f}s, speedup {speedup:.2f}x "
          f"({cores} cores)")

    if cores < JOBS:
        pytest.skip(f"only {cores} core(s); speedup needs >= {JOBS}")
    assert speedup >= 2.0, (
        f"expected >= 2x speedup with {JOBS} workers on {cores} cores, "
        f"got {speedup:.2f}x")
