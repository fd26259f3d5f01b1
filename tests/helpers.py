"""Shared test helpers: tiny programs and campaign utilities."""

from __future__ import annotations

from typing import Callable, Optional

from repro.harness.campaign import (CampaignAccumulator, CampaignResult,
                                    TrialRunner)
from repro.memory.events import MemoryOrder, RLX
from repro.runtime.executor import RunResult, run_once
from repro.runtime.program import Program
from repro.runtime.scheduler import Scheduler


def hit_count(program_factory: Callable[[], Program],
              scheduler_factory: Callable[[int], Scheduler],
              trials: int, max_steps: int = 20000) -> int:
    """Number of bug-finding runs over ``trials`` seeded runs."""
    return sum(
        run_once(program_factory(), scheduler_factory(seed),
                 max_steps=max_steps, keep_graph=False).bug_found
        for seed in range(trials)
    )


def straight_loop(program_factory: Callable[[], Program],
                  scheduler_factory: Callable[[int], Scheduler],
                  trials: int, base_seed: int) -> CampaignResult:
    """Independent serial campaign reference: trials ``0..trials-1`` in
    order on one TrialRunner, folded by a CampaignAccumulator — no
    supervisor, shards, journal or pool."""
    runner = TrialRunner(program_factory, scheduler_factory, base_seed)
    accumulator = CampaignAccumulator()
    for index in range(trials):
        accumulator.add(runner.run(index))
    result = CampaignResult("reference", "reference", trials)
    accumulator.finalize(result)
    return result


def single_thread_program(*ops_factory) -> Program:
    """Program with one thread executing a fixed op sequence."""
    p = Program("single")
    x = p.atomic("X", 0)

    def body():
        yield x.store(1, RLX)
        value = yield x.load(RLX)
        return value

    p.add_thread(body)
    return p


def writer_reader_program(write_order: MemoryOrder = RLX,
                          read_order: MemoryOrder = RLX,
                          values=(1, 2, 3)) -> Program:
    """One writer storing a sequence, one reader loading once."""
    p = Program("writer_reader")
    x = p.atomic("X", 0)

    def writer():
        for v in values:
            yield x.store(v, write_order)

    def reader():
        return (yield x.load(read_order))

    p.add_thread(writer)
    p.add_thread(reader)
    return p


def run_with(program: Program, scheduler: Scheduler,
             max_steps: int = 20000) -> RunResult:
    return run_once(program, scheduler, max_steps=max_steps)


class ScriptedScheduler(Scheduler):
    """Deterministic scheduler driven by a list of thread ids.

    When the script is exhausted (or names a disabled thread), it falls
    back to the lowest enabled tid.  Reads take the mo-maximal candidate
    unless ``read_picks`` supplies an mo-index offset from the tail
    (0 = latest, 1 = one older, ...), consumed one per read.
    """

    name = "scripted"

    def __init__(self, script, read_picks=None):
        super().__init__(seed=0)
        self._script = list(script)
        self._read_picks = list(read_picks or [])

    def choose_thread(self, state) -> int:
        enabled = state.enabled_tids()
        while self._script:
            tid = self._script.pop(0)
            if tid in enabled:
                return tid
        return min(enabled)

    def choose_read_from(self, state, ctx):
        offset = self._read_picks.pop(0) if self._read_picks else 0
        index = max(0, len(ctx.candidates) - 1 - offset)
        return ctx.candidates[index]
