"""Spans around public calls into the ``repro`` layers, and a profiler
pass for the layers entered once per event.

A :class:`Tracer` rebinds a function (or method) to a wrapper that
records a span — name, start, end, parent — for every call, then puts
the original back on :meth:`Tracer.restore`.  Spans stay in memory and
are folded into per-name totals and self times (a span's duration minus
the time its child spans cover) when the pass ends.

Where a wrapper would cost more than the call (the scheduler hooks and
the memory layer, entered on every simulated event), :func:`layer_profile`
runs the pass under ``cProfile`` instead and groups self time by the
``repro`` sub-package that owns each function.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Scheduler hook names counted as ``core.sched_calls``.
SCHED_HOOKS = ("choose_thread", "choose_read_from", "on_event_executed")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    """Records nested spans from wrapped calls in this process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` with a span per call; ``on_result(result, *args,
        **kwargs)`` may record counts from what the call returned."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), 0.0,
                              stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def patch_function(self, module: str, attr: str, name: str,
                       on_result: Optional[Callable[..., None]] = None
                       ) -> bool:
        """Trace ``module.attr`` wherever a loaded ``repro`` module binds
        it, so ``from x import f`` call sites are covered too.  Returns
        False (tracing nothing) when the function does not exist."""
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            return False
        traced = self.wrap(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)
        return True

    def patch_method(self, cls: type, attr: str, name: str,
                     on_result: Optional[Callable[..., None]] = None) -> None:
        """Trace a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, on_result))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- folding -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``.

        A span nested in a span of the same name adds to the calls but
        not to the total, which would otherwise count its time twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, span in enumerate(spans):
            entry = out[span.name]
            duration = span.end - span.start
            entry[0] += 1
            entry[2] += duration - child_time[index]
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            if parent < 0:
                entry[1] += duration
        return {name: (int(c), t, s) for name, (c, t, s) in out.items()}

    def count_within(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called
        ``ancestor``."""
        inside = [False] * len(self.spans)
        found = 0
        for index, span in enumerate(self.spans):
            parent = span.parent
            inside[index] = parent >= 0 and (
                inside[parent] or self.spans[parent].name == ancestor)
            if span.name == name and inside[index]:
                found += 1
        return found

    def render(self) -> List[str]:
        """One line per span name: calls, total and self time."""
        lines = [f"{'span':28s} {'calls':>8s} {'total_s':>10s} "
                 f"{'self_s':>10s}"]
        for name, (calls, total, own) in sorted(self.totals().items()):
            lines.append(f"{name:28s} {calls:8d} {total:10.4f} {own:10.4f}")
        return lines


def _layer_of(filename: str) -> str:
    """The ``repro`` sub-package owning a source file, or ``other``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return "other"
    rest = path[at + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


@dataclass
class LayerProfile:
    #: Share of profiled self time per layer; built-in calls are charged
    #: to the layer of the function that made them.
    shares: Dict[str, float]
    #: Exact number of scheduler-hook calls made from ``core``.
    sched_calls: int


def layer_profile(fn: Callable[[], Any]) -> Tuple[Any, LayerProfile]:
    """Run ``fn`` under ``cProfile`` and group self time by layer."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats
    by_layer: Dict[str, float] = defaultdict(float)
    sched_calls = 0
    for (filename, _line, func), (_cc, ncalls, own, _cum, callers) \
            in stats.items():
        layer = _layer_of(filename)
        if filename == "~" and callers:
            # Built-ins: charge each caller's share to the caller's layer.
            for (caller_file, _l, _f), caller_stats in callers.items():
                by_layer[_layer_of(caller_file)] += caller_stats[2]
        else:
            by_layer[layer] += own
        if func in SCHED_HOOKS and (
                layer == "core" or filename.endswith("runtime/scheduler.py")):
            sched_calls += ncalls
    total = sum(by_layer.values()) or 1.0
    shares = {layer: own / total for layer, own in by_layer.items()}
    return result, LayerProfile(shares, sched_calls)
