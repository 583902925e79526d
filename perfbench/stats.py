"""Order statistics used by every workload.

Timings are reported as a median plus a tail percentile.  A tail value
is only meaningful when enough samples lie beyond it, so
:func:`tail_percentile` states the highest percentile that has at least
``MIN_BEYOND`` samples above it and :func:`summarize` records the sample
count next to every value.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The nearest-rank value at ``q`` has exactly ``n - ceil(q n / 100)``
    samples above it (ties aside), which is what the tail rule counts.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    """Midpoint median (mean of the two middle values for even ``n``)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ``MIN_BEYOND`` of ``n`` samples
    above it, or None when ``n <= MIN_BEYOND``.

    With nearest rank, rank ``n - MIN_BEYOND`` leaves exactly
    ``MIN_BEYOND`` samples above it, so the percentile is
    ``100 (n - MIN_BEYOND) / n``.
    """
    if n <= MIN_BEYOND:
        return None
    return 100.0 * (n - MIN_BEYOND) / n


def supports(n: int, q: float) -> bool:
    """True when a sample of ``n`` puts at least ``MIN_BEYOND`` values
    above its nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n - 1e-9)) >= MIN_BEYOND


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, p90 and the supported tail of a timing sample, with its
    count and whether p90 itself has ``MIN_BEYOND`` samples beyond it."""
    n = len(values)
    doc: Dict[str, object] = {"n": n}
    if not n:
        return doc
    doc["p50"] = median(values)
    doc["p90"] = percentile(values, 90.0)
    doc["p90_supported"] = supports(n, 90.0)
    tail = tail_percentile(n)
    doc["tail_q"] = tail
    doc["tail"] = percentile(values, tail) if tail is not None else None
    return doc
