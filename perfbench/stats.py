"""Order statistics used by the benchmark report."""

from __future__ import annotations

# Percentiles a tail metric may use, lowest first. Capped at p99: above it,
# the estimate from one round is set by a handful of disk and host stalls.
TAIL_LADDER = (90.0, 95.0, 99.0)
MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    """ceil(pct/100 * n), in integers so that p99.9 of 10000 is rank 9990."""
    milli = round(pct * 1000)
    return max(1, -(-milli * n // 100000))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank pct percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that still has MIN_BEYOND samples above it."""
    best = None
    for pct in TAIL_LADDER:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best
