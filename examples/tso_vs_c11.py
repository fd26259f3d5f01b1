#!/usr/bin/env python3
"""Cross-model comparison: the same litmus tests under C11 and x86-TSO.

Demonstrates the paper's memory-model-agnostic claim (Section 5): the
same, unchanged PCTWM scheduler tests both models.  Under C11 the
weaknesses are stale reads; under TSO the only weakness is the store
buffer, whose flushes are the communication events PCTWM delays.

Expected output shape:

* SB is weak under both models; MP/MP2/IRIW/LB are weak only under C11
  relaxed atomics — TSO preserves W→W and R→R order and is multi-copy
  atomic;
* on SB, PCTWM's hit rate under TSO stays above its Section 5.4 bound
  (SB has k_com = 4: two flushes and two loads).
"""

from repro import (C11TesterScheduler, NaiveRandomScheduler,
                   PCTWMScheduler, run_once)
from repro.litmus import iriw, load_buffering, message_passing, mp2, \
    store_buffering
from repro.memory import resolve_model

TSO = resolve_model("tso")

TRIALS = 300

CASES = {
    "SB": store_buffering,
    "MP": message_passing,
    "MP2": mp2,
    "IRIW": iriw,
    "LB": load_buffering,
}


def c11_rate(factory, make):
    hits = sum(run_once(factory(), make(s), keep_graph=False).bug_found
               for s in range(TRIALS))
    return 100.0 * hits / TRIALS


def tso_rate(factory, make):
    hits = sum(TSO.run_once(factory(), make(s), keep_graph=False).bug_found
               for s in range(TRIALS))
    return 100.0 * hits / TRIALS


def main() -> None:
    header = (f"{'litmus':6s} {'c11 random':>11s} {'c11 pctwm*':>11s} "
              f"{'tso random':>11s} {'tso pctwm*':>11s}")
    print(header)
    print("-" * len(header))
    for name, factory in CASES.items():
        row = [
            c11_rate(factory, lambda s: C11TesterScheduler(seed=s)),
            c11_rate(factory, lambda s: PCTWMScheduler(2, 6, 2, seed=s)),
            tso_rate(factory, lambda s: NaiveRandomScheduler(seed=s)),
            tso_rate(factory, lambda s: PCTWMScheduler(2, 4, 2, seed=s)),
        ]
        print(f"{name:6s} " + " ".join(f"{r:10.1f}%" for r in row))
    print("\n(*) PCTWM at d=2, h=2.  Under TSO, SB has k_com=4 (flushes "
          "are the\ncommunication events), so Section 5.4 guarantees "
          "1/(4*3*2^2) = 2.1%.")


if __name__ == "__main__":
    main()
