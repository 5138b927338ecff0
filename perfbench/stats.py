"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """Highest percentile that leaves at least ten samples beyond it.

    The percentile is rounded down to a tenth of a percent so that runs of
    slightly different length report the same one; the value is taken by
    the nearest-rank rule.  Returns (percentile in percent, value).
    """
    n = len(samples)
    if n <= TAIL_MIN_BEYOND:
        raise ValueError(f"need more than {TAIL_MIN_BEYOND} samples, got {n}")
    permille = (1000 * (n - TAIL_MIN_BEYOND)) // n
    rank = -(-permille * n // 1000)  # ceil(permille * n / 1000), 1-based
    return permille / 10, sorted(samples)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
