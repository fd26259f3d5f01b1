"""Engine micro-benchmarks: events/second through each scheduler.

Not a paper table — supporting data for Table 4's overhead story: the gap
between C11Tester and PCTWM here is the cost of view/bag maintenance,
and the fast/reference split measures what the incremental caches buy.
Rows land in ``benchmarks/output/bench_rows.json`` via ``bench_json``;
the grid is ``repro bench``'s own (``SCHEDULER_SPECS`` on the silo
workload), which produces the committed trajectory.
"""

import pytest

from repro.harness.bench import MAX_STEPS, SCHEDULER_SPECS, WORKLOAD_SPECS
from repro.runtime import run_once

SILO = WORKLOAD_SPECS["silo"]


@pytest.mark.parametrize("engine", ("fast", "reference"))
@pytest.mark.parametrize("name", sorted(SCHEDULER_SPECS))
def test_events_per_second(benchmark, bench_json, name, engine):
    make = SCHEDULER_SPECS[name]
    seeds = iter(range(10 ** 6))

    def one_run():
        return run_once(SILO(), make(next(seeds)), keep_graph=False,
                        max_steps=MAX_STEPS, engine=engine)

    result = benchmark(one_run)
    assert result.k > 0
    mean_s = benchmark.stats.stats.mean
    bench_json(
        suite="engine_throughput",
        benchmark="silo",
        scheduler=name,
        engine=engine,
        events_per_run=result.k,
        mean_run_s=mean_s,
        events_per_sec=result.k / mean_s,
    )
