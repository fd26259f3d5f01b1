"""Metric names, units and the statistics the benchmark reports.

The names and units here are the ones ``BENCHMARK.json`` declares;
``tests/test_helpers.py`` keeps the two in step.  Every workload emits
every end-to-end metric (in its own unit of work, see README.md) and,
in a traced run, every per-layer metric.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

#: Which characters a metric name may use, and that it starts with a
#: letter or a digit.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10

#: (name, unit, better) of every end-to-end metric, measured untraced.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "1/s", "higher"),
    ("op_latency_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better) of every per-layer metric, from the traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("harness.campaigns", "count", "higher"),
    ("harness.pooled_campaigns", "count", "lower"),
    ("harness.campaign_s", "s", "lower"),
    ("harness.trial_s", "s", "lower"),
    ("harness.overhead_frac", "ratio", "lower"),
    ("harness.shard_skew", "ratio", "lower"),
    ("core.estimate_calls", "count", "lower"),
    ("core.estimate_s", "s", "lower"),
    ("core.sched_calls", "count", "lower"),
    ("core.sched_s", "s", "lower"),
    ("runtime.runs", "count", "higher"),
    ("runtime.events", "count", "higher"),
    ("runtime.com_events", "count", "higher"),
    ("runtime.us_per_event", "us", "lower"),
    ("runtime.self_s", "s", "lower"),
    ("memory.self_s", "s", "lower"),
    ("memory.sanitizer_calls", "count", "lower"),
    ("memory.sanitizer_s", "s", "lower"),
    ("tso.self_s", "s", "lower"),
    ("tso.us_per_event", "us", "lower"),
    ("fuzz.generate_s", "s", "lower"),
    ("fuzz.probe_s", "s", "lower"),
    ("fuzz.shrink_s", "s", "lower"),
    ("fuzz.corpus_s", "s", "lower"),
    ("fuzz.findings", "count", "higher"),
    ("fuzz.shrink_runs", "count", "lower"),
    ("replay.minimize_s", "s", "lower"),
    ("replay.minimize_runs", "count", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.notice_s", "s", "lower"),
    ("service.requests_per_job", "count", "lower"),
    ("service.refused", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def samples_needed(p: float) -> int:
    """Fewest samples for which :func:`percentile` reports ``p``."""
    n = 1
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values``.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples
    lie above the percentile's rank, so a reported tail always rests on
    at least that many observations.
    """
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100)")
    n = len(values)
    rank = math.ceil(p / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} needs {samples_needed(p)} samples for "
            f"{MIN_BEYOND} beyond it; have {n}")
    return sorted(values)[rank - 1]


def metrics_block(values: Mapping[str, float],
                  spec: Sequence[Tuple[str, str, str]]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line for one metric table.

    ``values`` must hold exactly the table's names: a missing metric or
    one outside the table is an error, not a silent omission.
    """
    names = [name for name, _, _ in spec]
    extra = sorted(set(values) - set(names))
    missing = [name for name in names if name not in values]
    if extra or missing:
        raise ValueError(f"metric set mismatch: extra={extra} "
                         f"missing={missing}")
    return {check_name(name): {"value": float(values[name]), "unit": unit}
            for name, unit, _ in spec}


def summary_line(latencies: List[float]) -> str:
    """Human-readable sample count, quartiles and p90 of a latency
    sample (the p90 only with enough samples beyond it)."""
    q1, q2, q3 = statistics.quantiles(latencies, n=4)
    try:
        p90 = f"{percentile(latencies, 90):.6f}"
    except ValueError:
        p90 = "n/a"
    return (f"n={len(latencies)} q1={q1:.6f} median={q2:.6f} "
            f"q3={q3:.6f} p90={p90} max={max(latencies):.6f}")
