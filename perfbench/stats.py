"""Small statistics helpers shared by the benchmark phases.

Percentiles follow the choosing-metrics rule: a tail percentile is only
reported when at least :data:`MIN_BEYOND` samples lie beyond it, so a
"p99" over 200 samples (two beyond) is refused instead of printed.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples_for(p: float) -> int:
    """Smallest sample count with :data:`MIN_BEYOND` samples above ``p``."""
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - p) - 1e-9)


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile of ``samples``.

    Raises:
        TooFewSamples: when fewer than :data:`MIN_BEYOND` samples would
            lie beyond the percentile.
    """
    n = len(samples)
    if n < min_samples_for(p):
        raise TooFewSamples(
            f"p{p:g} needs at least {min_samples_for(p)} samples "
            f"({MIN_BEYOND} beyond it); got {n}")
    ordered = sorted(samples)
    rank = (n - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def histogram_quantile(buckets: List[Dict], q: float) -> float:
    """Quantile of a bucketed histogram, interpolated
    linearly inside the bucket that holds it (Prometheus-style).

    ``buckets`` is the serve metrics snapshot's list of
    ``{"le": bound, "count": n}`` (per-bucket counts, ``"+inf"`` last).
    """
    total = sum(b["count"] for b in buckets)
    if total == 0:
        raise TooFewSamples("empty histogram")
    target = q * total
    seen = 0.0
    lower = 0.0
    for bucket in buckets:
        upper = bucket["le"]
        count = bucket["count"]
        if seen + count >= target and count > 0:
            if upper == "+inf":
                return lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        if upper != "+inf":
            lower = float(upper)
    return lower
