"""Extended Figure 5: all six algorithms on the nine benchmarks.

Beyond the paper's three-way comparison, this adds the related-work
baselines implemented as extensions (POS, PPCT) and the naive SC random
walk, with a significance annotation for the headline PCTWM-vs-C11Tester
comparison.
"""

from repro.core import (
    C11TesterScheduler,
    NaiveRandomScheduler,
    PCTScheduler,
    PCTWMScheduler,
    POSScheduler,
    PPCTScheduler,
)
from repro.core.depth import estimate_parameters
from repro.harness import run_campaign_parallel, significantly_greater
from repro.workloads import BENCHMARKS


def test_all_schedulers(benchmark, trials, report):
    def measure():
        rows = {}
        for name, info in BENCHMARKS.items():
            est = estimate_parameters(info.build(), runs=3)
            d, h = info.measured_depth, info.best_history
            campaigns = {
                "naive": run_campaign_parallel(
                    info.build, lambda s: NaiveRandomScheduler(seed=s),
                    trials=trials),
                "c11tester": run_campaign_parallel(
                    info.build, lambda s: C11TesterScheduler(seed=s),
                    trials=trials),
                "pos": run_campaign_parallel(
                    info.build, lambda s: POSScheduler(seed=s),
                    trials=trials),
                "pct": run_campaign_parallel(
                    info.build,
                    lambda s: PCTScheduler(max(d, 1) + 1, est.k, seed=s),
                    trials=trials),
                "ppct": run_campaign_parallel(
                    info.build,
                    lambda s: PPCTScheduler(max(d, 1) + 1, est.k, seed=s),
                    trials=trials),
                "pctwm": run_campaign_parallel(
                    info.build,
                    lambda s: PCTWMScheduler(d, est.k_com, h, seed=s),
                    trials=trials),
            }
            rows[name] = campaigns
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    algos = ["naive", "c11tester", "pos", "pct", "ppct", "pctwm"]
    lines = [
        f"{'benchmark':13s} " + " ".join(f"{a:>9s}" for a in algos)
        + "   pctwm>c11t?"
    ]
    for name, campaigns in rows.items():
        wm, c11 = campaigns["pctwm"], campaigns["c11tester"]
        sig = significantly_greater(wm.hits, wm.trials, c11.hits,
                                    c11.trials)
        lines.append(
            f"{name:13s} "
            + " ".join(f"{campaigns[a].hit_rate:8.1f}%" for a in algos)
            + ("   significant" if sig else "")
        )
    report("all_schedulers", "\n".join(lines))

    # Weak d=0 bugs are invisible to the SC-only naive walk but not to
    # the weak-memory samplers.
    assert rows["dekker"]["naive"].hit_rate == 0.0
    assert rows["dekker"]["pctwm"].hit_rate == 100.0
    # The headline comparison is statistically significant on the
    # stale-view benchmarks.
    for name in ("dekker", "cldeque", "linuxrwlocks"):
        wm, c11 = rows[name]["pctwm"], rows[name]["c11tester"]
        assert significantly_greater(wm.hits, wm.trials,
                                     c11.hits, c11.trials), name
