"""Sample summaries for the benchmark: median / min / max / n, quartile
spread, nearest-rank percentiles.

The ``Stats.from_values`` shape follows the coba ``bbench`` exemplar
(SNIPPETS.md #3): an empty sample summarises to NaN rather than raising,
and a single sample has zero spread.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Stats:
    """Summary of one metric's samples."""

    median: float
    min: float
    max: float
    n: int
    #: Inter-quartile distance as a share of the median (0 for n < 2).
    spread: float

    @staticmethod
    def from_values(values) -> "Stats":
        values = [float(v) for v in values]
        if not values:
            nan = float("nan")
            return Stats(nan, nan, nan, 0, nan)
        median = statistics.median(values)
        return Stats(
            median=median,
            min=min(values),
            max=max(values),
            n=len(values),
            spread=quartile_spread(values),
        )

    def as_dict(self) -> dict:
        return asdict(self)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the steadiness figure the benchmark contract checks."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else math.inf
    return abs(q3 - q1) / abs(median)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[min(rank, len(ordered)) - 1]
