"""Pure helpers that turn per-replication records into metrics.

Nothing here imports numpy or ``repro``; the unit tests drive these
functions with hand-made inputs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL = 10


def samples_needed(q: float) -> int:
    """Smallest sample count for which :func:`percentile` accepts ``q``."""
    n = MIN_TAIL + 1
    while tail_count(n, q) < MIN_TAIL:
        n += 1
    return n


def tail_count(n: int, q: float) -> int:
    """Samples beyond the ``q``-th percentile of ``n``: those ranked above
    the first ``ceil(q% of n)``, so a p90 of 100 samples has ten."""
    return n - math.ceil(q * n / 100.0 - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between closest
    ranks (numpy's default method).

    Raises ``ValueError`` unless at least ``MIN_TAIL`` samples lie beyond it:
    a p90 from 30 samples rests on three values and is not reported.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    if n == 0 or tail_count(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs at least {MIN_TAIL} samples beyond it; "
            f"{n} samples give {tail_count(n, q) if n else 0}"
        )
    xs = sorted(samples)
    pos = q / 100.0 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def chunk_samples(
    stamps: Sequence[float], chunk_sizes: Sequence[int], start: float
) -> List[float]:
    """Per-replication wall-time samples, one per chunk.

    ``stamps[i]`` is when replication ``i`` reached ``consume=``; the
    replications of one chunk arrive together once the chunk finishes,
    so chunk ``k`` ends at the stamp of its last replication and its
    sample is the time since the previous chunk ended (``start`` for the
    first), divided by its replication count.  The sequential engine is
    the case of chunks of one.
    """
    if sum(chunk_sizes) != len(stamps):
        raise ValueError(
            f"chunks cover {sum(chunk_sizes)} replications, "
            f"stamps {len(stamps)}"
        )
    out: List[float] = []
    prev = start
    end = 0
    for size in chunk_sizes:
        if size < 1:
            raise ValueError(f"chunk sizes must be positive, got {size}")
        end += size
        t = stamps[end - 1]
        out.append((t - prev) / size)
        prev = t
    return out


def row_util(rounds: Sequence[int], chunk_sizes: Sequence[int]) -> float:
    """Share of the ``(R, n)`` row-rounds that did useful work.

    A chunk runs until its slowest replication finishes, so it spends
    ``size * max(rounds in chunk)`` row-rounds of which only the sum of
    the per-replication rounds advanced a live replication.
    """
    if sum(chunk_sizes) != len(rounds):
        raise ValueError(
            f"chunks cover {sum(chunk_sizes)} replications, "
            f"rounds {len(rounds)}"
        )
    used = spent = 0
    end = 0
    for size in chunk_sizes:
        chunk = rounds[end : end + size]
        end += size
        used += sum(chunk)
        spent += size * max(chunk)
    return used / spent if spent else 0.0


#: Simulated statistics: (metric, replication scalar it averages).
SIM_METRICS = (
    ("rounds_mean", "spread_rounds"),
    ("msgs_per_node_mean", "messages_per_node"),
    ("bits_per_node_mean", "bits_per_node"),
    ("sim_time_mean", "sim_time"),
    ("task_error_mean", "task_error"),
)


def sim_stats(rows: Sequence[Dict], task: Optional[str]) -> Dict[str, float]:
    """Means of the simulated figures over ``rows``.

    ``rounds_mean`` averages ``spread_rounds`` for broadcast and the
    rounds to converge for a task.  Figures a workload does not produce
    (``sim_time`` off the event tier, ``task_error`` for broadcast) are
    left out.
    """
    out: Dict[str, float] = {}
    for metric, key in SIM_METRICS:
        if key == "spread_rounds" and task is not None:
            key = "rounds"
        values = [row[key] for row in rows if key in row]
        if values and len(values) == len(rows):
            out[metric] = math.fsum(values) / len(values)
    return out


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0
