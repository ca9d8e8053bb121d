"""Order statistics used for the benchmark's latency metrics."""

from __future__ import annotations

import math

# Percentiles a tail metric may report, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 98, 99, 99.5, 99.9)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    k = max(math.ceil(p / 100.0 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def tail_level(n: int) -> float:
    """The highest percentile of the ladder with at least ten of n samples
    beyond it; the median when there are too few samples for any."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def median(values) -> float:
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0
