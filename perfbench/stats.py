"""The benchmark's own arithmetic: medians, percentiles, ratios and self time."""
from __future__ import annotations

import math
import statistics
from typing import Iterable, NamedTuple, Sequence, Tuple

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """The fewest samples for which ``percentile(values, q)`` is reported."""
    n = MIN_BEYOND + 1
    while samples_beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% of samples at or below it.

    Raises ValueError when fewer than ``MIN_BEYOND`` samples lie beyond it,
    because such a percentile is set by a handful of outliers.
    """
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return float(sorted(values)[n - beyond - 1])


class Ratio(NamedTuple):
    """A ratio kept together with its base, so a report can show both."""

    numerator: float
    base: float

    @property
    def value(self) -> float | None:
        """``numerator / base``, or None when there is no base to divide by."""
        if self.base == 0:
            return None
        return self.numerator / self.base


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(children, start, end)
