"""Cross-model litmus matrix: C11 vs x86-TSO (extension).

Demonstrates the paper's memory-model-agnostic construction (Section 5):
the unchanged PCTWM scheduler, run on the x86-TSO flush-agent backend,
hits TSO's only weak shape — SB — at no less than its Section 5.4 bound
(flushes are the communication events; SB has k_com = 4), while the
shapes TSO forbids (MP, IRIW, LB, MP2) stay at zero under every TSO
scheduler and remain reachable under C11 relaxed atomics.
"""

from repro.core import C11TesterScheduler, NaiveRandomScheduler, \
    PCTWMScheduler
from repro.core.guarantees import pctwm_lower_bound
from repro.harness.stats import wilson_interval
from repro.litmus import iriw, load_buffering, message_passing, mp2, \
    store_buffering
from repro.memory import resolve_model
from repro.runtime import run_once

TSO = resolve_model("tso")
#: SB's k_com under TSO (two flushes plus two loads) and the TSO PCTWM
#: column's depth and history.
SB_K_COM, DEPTH, HISTORY = 4, 2, 2

CASES = {
    "SB": store_buffering,
    "MP": message_passing,
    "MP2": mp2,
    "IRIW": iriw,
    "LB": load_buffering,
}


def test_cross_model_matrix(benchmark, trials, report):
    def measure():
        rows = {}
        for name, factory in CASES.items():
            c11 = sum(
                run_once(factory(), C11TesterScheduler(seed=s),
                         keep_graph=False).bug_found
                for s in range(trials)
            )
            wm = sum(
                run_once(factory(), PCTWMScheduler(2, 6, 2, seed=s),
                         keep_graph=False).bug_found
                for s in range(trials)
            )
            tso = sum(
                TSO.run_once(factory(), NaiveRandomScheduler(seed=s),
                             keep_graph=False).bug_found
                for s in range(trials)
            )
            tso_wm = sum(
                TSO.run_once(factory(),
                             PCTWMScheduler(DEPTH, SB_K_COM, HISTORY,
                                            seed=s),
                             keep_graph=False).bug_found
                for s in range(trials)
            )
            rows[name] = (c11, wm, tso, tso_wm)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'litmus':6s} {'c11-rand':>9s} {'c11-pctwm':>10s} "
             f"{'tso-rand':>9s} {'tso-pctwm':>10s}   (hits/{trials})"]
    for name, (c11, wm, tso, tso_wm) in rows.items():
        lines.append(f"{name:6s} {c11:9d} {wm:10d} {tso:9d} {tso_wm:10d}")
    report("cross_model", "\n".join(lines))

    # SB: weak under both models; PCTWM under TSO meets its bound.
    low, _ = wilson_interval(rows["SB"][3], trials)
    assert low >= pctwm_lower_bound(SB_K_COM, DEPTH, HISTORY)
    assert rows["SB"][2] > 0
    # TSO forbids everything else.
    for name in ("MP", "MP2", "IRIW", "LB"):
        assert rows[name][2] == 0, name
        assert rows[name][3] == 0, name
    # C11 relaxed allows MP (and usually MP2/IRIW at larger trials).
    assert rows["MP"][0] + rows["MP"][1] > 0
