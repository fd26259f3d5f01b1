#!/usr/bin/env python3
"""Testing a concurrent data structure the way a user of this library would.

Workflow (mirrors the paper's methodology):

1. estimate the test parameters k and k_com with a few instrumented runs;
2. search for the empirical bug depth with increasing ``d``;
3. run a PCTWM campaign at that depth and inspect a buggy trace.

The subject is the Michael-Scott queue benchmark, whose seeded bug
publishes a node before writing its payload.
"""

import sys

from repro import PCTWMScheduler, run_once
from repro.analysis import audit_run, format_trace
from repro.core.depth import empirical_bug_depth, estimate_parameters
from repro.harness import pctwm_factory, run_campaign_parallel
from repro.workloads import BENCHMARKS


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "msqueue"
    info = BENCHMARKS[name]

    est = estimate_parameters(info.build(), runs=5)
    print(f"[1] parameter estimation for {name}: {est}")

    depth = empirical_bug_depth(info.build(), max_depth=4, trials=150,
                                k_com=est.k_com)
    print(f"[2] empirical bug depth: d = {depth} "
          f"(paper reports d = {info.paper_depth})")
    if depth is None:
        print("    no bug found up to d = 4; stopping")
        return

    campaign = run_campaign_parallel(
        info.build,
        pctwm_factory(depth, est.k_com, info.best_history),
        trials=200,
    )
    print(f"[3] campaign: {campaign}")

    # Find and display one buggy execution.
    for seed in range(1000):
        result = run_once(info.build(),
                          PCTWMScheduler(depth, est.k_com,
                                         info.best_history, seed=seed))
        if result.bug_found:
            report = audit_run(result)
            print(f"[4] buggy run (seed={seed}): {result.bug_message}")
            print(f"    graph consistent: {report.consistent}, "
                  f"com edges: {report.communication_edges}")
            print("    trace:")
            for line in format_trace(result.graph).splitlines():
                print(f"      {line}")
            break


if __name__ == "__main__":
    main()
