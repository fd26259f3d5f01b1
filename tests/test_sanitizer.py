"""Tests for the online consistency sanitizer (``--sanitize``).

Two directions: clean engines produce zero violations under full
auditing, and a deliberately broken engine (visibility tracker patched to
serve coherence-violating rf candidates) is caught on every audited
trial — reported as ``inconsistent`` campaign outcomes, never a crash.
"""

import pytest

from repro.core import C11TesterScheduler, NaiveRandomScheduler
from repro.harness.campaign import (
    SANITIZE_SAMPLE_STRIDE,
    sanitize_this_trial,
)
from repro.harness.parallel import run_campaign_parallel
from repro.litmus import mp2, store_buffering
from repro.memory.events import RLX
from repro.memory.visibility import VisibilityTracker
from repro.runtime import run_once
from repro.runtime.program import Program
from repro.workloads import BENCHMARKS


def _store_store_load() -> Program:
    """One thread: store 1, store 2, load — coherence demands it reads 2."""
    p = Program("ssl")
    x = p.atomic("X", 0)

    def t0():
        yield x.store(1, RLX)
        yield x.store(2, RLX)
        got = yield x.load(RLX)
        return got

    p.add_thread(t0)
    return p


def _break_visibility(monkeypatch):
    """Patch the engine to serve only the mo-oldest write to every read.

    That violates coherence deterministically: a thread that already
    wrote the location is forced to read mo-before its own write.
    """
    def evil(self, tid, loc, clock, seq_cst=False):
        return self._graph.writes_by_loc[loc][:1]

    monkeypatch.setattr(VisibilityTracker, "visible_writes", evil)


class TestSampling:
    def test_modes(self):
        assert sanitize_this_trial("all", 7)
        assert sanitize_this_trial("sampled", 0)
        assert sanitize_this_trial("sampled", SANITIZE_SAMPLE_STRIDE)
        assert not sanitize_this_trial("sampled", 1)
        assert not sanitize_this_trial("off", 0)

    def test_campaign_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="sanitize"):
            run_campaign_parallel(mp2, lambda s: C11TesterScheduler(seed=s),
                                  trials=1, sanitize="bogus")


class TestCleanEngine:
    @pytest.mark.parametrize("factory", [mp2, store_buffering,
                                         _store_store_load])
    def test_litmus_runs_are_clean(self, factory):
        for seed in range(10):
            result = run_once(factory(), C11TesterScheduler(seed=seed),
                              sanitize=True)
            assert result.violations == []
            assert not result.inconsistent

    def test_benchmark_run_is_clean(self):
        info = BENCHMARKS["msqueue"]
        result = run_once(info.build(), NaiveRandomScheduler(seed=1),
                          sanitize=True, keep_graph=False)
        assert result.violations == []

    def test_sanitize_does_not_change_verdicts(self):
        """The sanitizer observes; it must not perturb scheduling."""
        def campaign(mode):
            return run_campaign_parallel(
                BENCHMARKS["msqueue"].build,
                lambda s: NaiveRandomScheduler(seed=s),
                trials=25, base_seed=11, sanitize=mode)

        plain, audited = campaign("off"), campaign("all")
        assert plain.hits == audited.hits
        assert plain.inconclusive == audited.inconclusive
        assert plain.total_steps == audited.total_steps
        assert audited.inconsistent == 0


class TestBrokenEngine:
    def test_run_once_flags_violations(self, monkeypatch):
        _break_visibility(monkeypatch)
        result = run_once(_store_store_load(),
                          C11TesterScheduler(seed=0), sanitize=True)
        assert result.inconsistent
        # Both layers fire: the O(1) online checker and the full
        # end-of-run audit each contribute distinct violation strings.
        assert any("online:" in v for v in result.violations)
        assert any("online:" not in v for v in result.violations)
        assert result.diagnostics is not None

    def test_unsanitized_run_stays_silent(self, monkeypatch):
        """Without --sanitize the broken engine goes unnoticed (that is
        the point of having the sanitizer)."""
        _break_visibility(monkeypatch)
        result = run_once(_store_store_load(), C11TesterScheduler(seed=0))
        assert result.violations == []

    def test_campaign_contains_inconsistency(self, monkeypatch):
        _break_visibility(monkeypatch)
        result = run_campaign_parallel(
            _store_store_load, lambda s: C11TesterScheduler(seed=s),
            trials=12, sanitize="all")
        assert result.inconsistent == 12
        assert result.errors == 0
        assert not result.interrupted
        assert result.completed == 12
        assert result.violation_samples
        assert "trial 0" in result.violation_samples[0]

    def test_sampled_campaign_audits_every_nth_trial(self, monkeypatch):
        _break_visibility(monkeypatch)
        trials = SANITIZE_SAMPLE_STRIDE + 2
        result = run_campaign_parallel(
            _store_store_load, lambda s: C11TesterScheduler(seed=s),
            trials=trials, sanitize="sampled")
        assert result.inconsistent == 2  # indices 0 and STRIDE only

    def test_off_campaign_sees_nothing(self, monkeypatch):
        _break_visibility(monkeypatch)
        result = run_campaign_parallel(
            _store_store_load, lambda s: C11TesterScheduler(seed=s),
            trials=5, sanitize="off")
        assert result.inconsistent == 0
