"""Which Table 1 bugs survive on x86-TSO hardware?

A practically interesting question the two memory models answer
together: each benchmark's seeded bug is a specific weak-memory pattern,
and TSO only exhibits store→load reordering.  So the SB-family bugs
(dekker) and the delayed-payload publication bugs (msqueue, treiber —
payload store still buffered while the published structure is visible)
remain reachable on x86, while the message-passing-family bugs (barrier,
cldeque, mpmcqueue, linuxrwlocks, rwlock, seqlock, spsc) require W→W or
R→R reordering that TSO forbids.  Every run goes through the flush-agent
backend (``resolve_model("tso")``) with the registry schedulers.
"""

import pytest

from repro.core import NaiveRandomScheduler, PCTWMScheduler
from repro.core.pos import POSScheduler
from repro.memory import resolve_model
from repro.workloads import BENCHMARKS, spsc, treiber

TSO = resolve_model("tso")
TRIALS = 200

#: Bug families by required reordering.
TSO_REACHABLE = ("dekker", "msqueue")
TSO_SAFE = ("barrier", "cldeque", "mpmcqueue", "linuxrwlocks", "rwlock",
            "seqlock")


def tso_hits(factory, make, trials=TRIALS):
    return sum(
        TSO.run_once(factory(), make(seed), keep_graph=False,
                     max_steps=50000).bug_found
        for seed in range(trials)
    )


class TestBenchmarksUnderTso:
    @pytest.mark.parametrize("name", TSO_REACHABLE)
    def test_store_buffering_family_reachable(self, name):
        info = BENCHMARKS[name]
        hits = tso_hits(info.build,
                        lambda s: NaiveRandomScheduler(seed=s))
        hits += tso_hits(
            info.build,
            lambda s: PCTWMScheduler(2, info.paper_k, 2, seed=s),
        )
        # msqueue's window is narrow for naive and PCTWM; POS finds it.
        hits += tso_hits(info.build, lambda s: POSScheduler(seed=s))
        assert hits > 0, f"{name}'s bug should exist on x86-TSO"

    @pytest.mark.parametrize("name", TSO_SAFE)
    def test_message_passing_family_safe(self, name):
        info = BENCHMARKS[name]
        hits = tso_hits(info.build,
                        lambda s: NaiveRandomScheduler(seed=s), 100)
        hits += tso_hits(
            info.build,
            lambda s: PCTWMScheduler(3, info.paper_k, 2, seed=s),
            100,
        )
        assert hits == 0, f"{name}'s bug needs more than W->R reordering"

    def test_treiber_reachable_under_tso(self):
        """Treiber's payload-after-publication is a buffered-store bug."""
        hits = tso_hits(treiber,
                        lambda s: PCTWMScheduler(2, 20, 2, seed=s))
        assert hits > 0

    def test_spsc_safe_under_tso(self):
        """SPSC's bug is pure message passing: W->W order saves it."""
        hits = tso_hits(spsc, lambda s: NaiveRandomScheduler(seed=s))
        hits += tso_hits(spsc,
                         lambda s: PCTWMScheduler(2, 8, 2, seed=s))
        assert hits == 0

    @pytest.mark.parametrize("name", list(BENCHMARKS))
    def test_fixed_variants_safe_under_tso_too(self, name):
        info = BENCHMARKS[name]
        hits = tso_hits(lambda: info.factory(fixed=True),
                        lambda s: NaiveRandomScheduler(seed=s), 60)
        assert hits == 0, f"{name}-fixed flagged under TSO"
