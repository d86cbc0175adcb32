"""Summary statistics of the benchmark (standard library only)."""

from __future__ import annotations

import statistics
from typing import Iterable, List, Sequence, Tuple

TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, n)``: the value is the eleventh largest
    sample, which sits at percentile ``100 * (n - 10) / n``.  With fewer
    than 21 samples that rank falls below the middle, and the median is
    reported instead, at percentile 50.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = n - TAIL_BEYOND          # 1-based rank with ten samples above it
    if 2 * rank < n + 1:
        return 50.0, statistics.median(ordered), n
    return 100.0 * rank / n, ordered[rank - 1], n


def entry_means(latencies: Sequence[float], ops: Sequence[int],
                period: int) -> List[float]:
    """Mean latency of each panel entry over its repeats; operation ``op``
    runs entry ``op % period``.  Entries that never ran are left out."""
    sums: dict = {}
    for lat, op in zip(latencies, ops):
        entry = sums.setdefault(op % period, [0.0, 0])
        entry[0] += lat
        entry[1] += 1
    return [total / count for total, count in (sums[k] for k in sorted(sums))]


def fail_frac(failures: Iterable[object]) -> Tuple[int, int, float]:
    """``(failed, attempted, failed / attempted)``; an entry that is not None
    is a failed operation."""
    flags: List[bool] = [f is not None for f in failures]
    if not flags:
        raise ValueError("no operations attempted")
    failed = sum(flags)
    return failed, len(flags), failed / len(flags)

