"""Arithmetic of the end-to-end metrics: medians and the tail percentile."""

from __future__ import annotations

import statistics
from typing import NamedTuple

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class Tail(NamedTuple):
    value: float
    percentile: float
    beyond: int
    samples: int

    def describe(self) -> str:
        return f"p{self.percentile:.1f} of {self.samples} successful ops, {self.beyond} beyond it"


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Highest percentile with at least `beyond` samples above it.

    With n sorted samples
    that is the (n - beyond)-th smallest, at percentile 100 (n - beyond) / n.
    The tail never reads below the median: with fewer than 2 * beyond
    samples the median is reported at p50, with the count that lies above
    it, so the figure stays a tail and says how thin it is.
    """
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    n = len(xs)
    if n >= 2 * beyond:
        return Tail(xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond, n)
    return Tail(statistics.median(xs), 50.0, n // 2, n)

