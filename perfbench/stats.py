"""Order statistics used by the benchmark's timing metrics."""
from __future__ import annotations

import statistics

# The tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile).  With n sorted samples the k-th smallest
    (1-based) has n - k samples above it, so k = n - beyond and the
    percentile is 100 k / n.  With `beyond` or fewer samples there is no
    such percentile and the smallest sample is returned at percentile 0.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - beyond
    if k < 1:
        return float(xs[0]), 0.0
    return float(xs[k - 1]), 100.0 * k / n
