"""x86-TSO litmus semantics on the flush-agent backend.

TSO allows exactly the store->load reordering: the SB weak outcome is
reachable, and MP, LB, IRIW, CoRR and MP2 are all forbidden.  Every run
goes through ``resolve_model("tso").run_once`` with registry schedulers.
"""

import pytest

from repro.core import NaiveRandomScheduler, PCTWMScheduler
from repro.litmus import (
    corr,
    iriw,
    load_buffering,
    message_passing,
    mp2,
    store_buffering,
)
from repro.memory import resolve_model

TSO = resolve_model("tso")


class EagerFlushScheduler(NaiveRandomScheduler):
    """Runs a flush agent whenever one is enabled, so every store commits
    before its thread issues the next instruction."""

    def choose_thread(self, state) -> int:
        enabled = state.enabled_tids()
        agents = [tid for tid in enabled if tid >= state.n_real]
        return self.rng.choice(agents or enabled)


def rate(factory, make, trials=200):
    return sum(
        TSO.run_once(factory(), make(seed), max_steps=2000,
                     keep_graph=False).bug_found
        for seed in range(trials)
    )


class TestTsoSemantics:
    def test_sb_weak_outcome_reachable(self):
        assert rate(store_buffering,
                    lambda s: NaiveRandomScheduler(seed=s)) > 0

    def test_eager_flushing_is_sequentially_consistent(self):
        assert rate(store_buffering,
                    lambda s: EagerFlushScheduler(seed=s)) == 0

    @pytest.mark.parametrize("factory", [
        message_passing, load_buffering, iriw, corr, mp2,
    ])
    def test_non_tso_shapes_forbidden(self, factory):
        """TSO preserves W->W, R->R and is multi-copy atomic: only the
        SB shape is weak.  (MP2's bug needs R->R/W->W reordering.)"""
        assert rate(factory, lambda s: NaiveRandomScheduler(seed=s)) == 0
        assert rate(factory,
                    lambda s: PCTWMScheduler(2, 8, 2, seed=s)) == 0

    def test_run_completes_with_drained_buffers(self):
        result = TSO.run_once(store_buffering(),
                              NaiveRandomScheduler(seed=1), max_steps=2000)
        assert result.steps > 0
        # All writes committed: every store has an mo position.
        for event in result.graph.events:
            if event.is_write and not event.is_init:
                assert event.mo_index >= 0
