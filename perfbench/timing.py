"""Order statistics the benchmark reports: nearest-rank percentiles and
the tail percentile that still has ten samples beyond it.

Standard library only, so ``run.py`` and its tests can import
this without the validator on the path.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Candidate tail percentiles, ascending: every whole percentile, then a
#: few finer ones that only large samples can support.
_LADDER: Tuple[float, ...] = tuple(range(1, 100)) + (99.5, 99.9, 99.95, 99.99)


def _rank(p: float, n: int) -> int:
    """Nearest-rank index (1-based) of percentile ``p`` among ``n`` samples."""
    hundredths = int(round(p * 100))
    return max(1, -(-hundredths * n // 10_000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``%
    of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`TAIL_BEYOND`
    of ``n`` samples strictly above its nearest-rank position, or None
    when ``n`` is too small for any."""
    best = None
    for p in _LADDER:
        if n - _rank(p, n) >= TAIL_BEYOND:
            best = p
        else:
            break
    return best
