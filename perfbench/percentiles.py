"""Order statistics for the benchmark's timing samples.

A tail percentile is only worth reporting when enough samples lie
beyond it: the benchmark reports the highest percentile (capped at the
99th) that leaves at least :data:`MIN_BEYOND` samples above it, and
says which percentile that was.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly above a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ascending ``sorted_values``."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    # The epsilon keeps float error in pct * n from bumping an exact
    # rank (e.g. p = 100 (n - 10) / n) up by one.
    rank = math.ceil(pct / 100.0 * len(sorted_values) - 1e-9)
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def tail_percentile(n: int, cap: float = 99.0) -> float | None:
    """Highest percentile (at most ``cap``) with ``MIN_BEYOND`` samples above.

    Under the nearest-rank rule the ``p``-th percentile of ``n`` samples
    is the ``ceil(p n / 100)``-th smallest, which leaves ``MIN_BEYOND``
    samples above it exactly when ``p <= 100 (n - MIN_BEYOND) / n``.
    ``None`` when ``n`` is too small for any percentile to qualify.
    """
    if n <= MIN_BEYOND:
        return None
    return min(cap, 100.0 * (n - MIN_BEYOND) / n)


def latency_summary(values: Sequence[float]) -> dict[str, float]:
    """Median and tail of a latency sample, with the tail's percentile.

    ``tail_pct`` is the percentile :func:`tail_percentile` allows.  With
    fewer than 20 samples that percentile would sit below the median,
    so the tail is then the slowest sample and ``tail_pct`` reads 100.
    """
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None or pct < 50.0:
        pct = 100.0
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail": nearest_rank(ordered, pct),
        "tail_pct": pct,
    }
