"""Short-term workload fluctuation (the ``f`` knob of the synthetic generator).

The paper's generator "keeps swapping frequencies between keys from different
task instances until the change on workload is significant enough, i.e.
``|L_i(d) − L_{i−1}(d)| / L̄ ≥ f``".  :func:`fluctuate` reproduces that
procedure on a count column: frequencies of key pairs that live on different
tasks under the reference assignment are exchanged until the maximum relative
per-task load change reaches the requested rate.  :func:`apply_fluctuation`,
the public entry point, is the same on a ``{key: count}`` mapping.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np

from repro.core.snapshot import Snapshot

__all__ = ["apply_fluctuation"]

Key = Hashable


def task_column(keys: Sequence[Key], task_of: Callable[[Key], int]) -> np.ndarray:
    """``task_of`` over ``keys`` as an ``intp`` column (computed once per key tuple)."""
    return np.fromiter(map(task_of, keys), dtype=np.intp, count=len(keys))


def fluctuate(
    counts: np.ndarray,
    tasks: np.ndarray,
    *,
    fluctuation: float,
    num_tasks: int,
    rng: Optional[np.random.Generator] = None,
    max_swaps: int = 1_000_000,
) -> np.ndarray:
    """Return a count column whose per-task load differs from ``counts``' by ≥ ``f``.

    ``counts[i]`` is the frequency of a key on task ``tasks[i]``.  Frequencies
    are swapped between keys assigned to *different* tasks (so the overall
    key-popularity distribution is unchanged) until the maximum relative
    per-task load change reaches ``fluctuation``.  ``max_swaps`` bounds the
    work for degenerate inputs (e.g. a single task).  The result is a new
    read-only column, or ``counts`` itself when nothing is swapped for want
    of tasks, keys, load or ``f``.
    """
    if fluctuation < 0:
        raise ValueError("fluctuation must be non-negative")
    if num_tasks <= 0:
        raise ValueError("num_tasks must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    if fluctuation == 0 or len(counts) < 2 or num_tasks < 2:
        return counts
    if tasks.min() < 0 or tasks.max() >= num_tasks:
        raise ValueError(f"every key must sit on a task in 0..{num_tasks - 1}")

    # Per-task loads added key by key in key order, as a loop over the keys
    # would (bincount's weighted sum is a left fold per bin).
    before = np.bincount(tasks, weights=counts, minlength=num_tasks).tolist()
    current = list(before)
    mean = sum(before) / len(before)
    if mean <= 0:
        return counts

    # Concentrate the change on one randomly chosen target task: swapping its
    # coldest keys against hotter keys of the other tasks raises its load by
    # (hot − cold) per swap.  Each swap is sized to the *remaining* change still
    # needed, so the delivered fluctuation tracks ``f`` instead of overshooting
    # it (a small f must stay a small disturbance), and even f = 2.0 is reached
    # in O(K log K) work.  Keys are ordered by count, ties in key order; a
    # key's count is read before any swap touches it, so both sides read the
    # original column.
    target = int(rng.integers(0, num_tasks))
    on_target = tasks == target
    inside = np.flatnonzero(on_target)
    inside = inside[np.argsort(counts[inside], kind="stable")]
    outside = np.flatnonzero(~on_target)
    outside = outside[np.argsort(counts[outside], kind="stable")]
    inside_freqs = counts[inside].tolist()
    outside_freqs = counts[outside].tolist()
    result = counts.copy()
    used = set()  # positions in ``outside`` already swapped
    swaps = 0
    for cold_at, cold in zip(inside.tolist(), inside_freqs):
        if swaps >= max_swaps:
            break
        needed = fluctuation * mean - abs(current[target] - before[target])
        if needed <= 0:
            break
        # Largest outside key whose swap gain stays within the needed change;
        # fall back to the smallest strictly hotter key when every candidate
        # overshoots (progress must still be made).
        idx = bisect_right(outside_freqs, cold + needed) - 1
        hot_idx = None
        while idx >= 0:
            if idx not in used and outside_freqs[idx] > cold:
                hot_idx = idx
                break
            idx -= 1
        if hot_idx is None:
            idx = bisect_right(outside_freqs, cold)
            while idx < len(outside_freqs):
                if idx not in used and outside_freqs[idx] > cold:
                    hot_idx = idx
                    break
                idx += 1
        if hot_idx is None:
            break
        used.add(hot_idx)
        hot_at = int(outside[hot_idx])
        hot = outside_freqs[hot_idx]
        result[cold_at], result[hot_at] = hot, cold
        other = int(tasks[hot_at])
        current[target] += hot - cold
        current[other] -= hot - cold
        swaps += 1
    result.flags.writeable = False
    return result


def apply_fluctuation(
    frequencies: Mapping[Key, float],
    *,
    fluctuation: float,
    task_of: Callable[[Key], int],
    num_tasks: int,
    rng: Optional[np.random.Generator] = None,
    max_swaps: int = 1_000_000,
) -> Snapshot:
    """:func:`fluctuate` over a ``{key: count}`` mapping: the snapshot whose
    per-task load (under ``task_of``) differs from the input's by ≥ ``f``.

    The result is a read-only :class:`~repro.core.snapshot.Snapshot` over
    the input's keys; ``dict(result)`` is a mutable copy.
    """
    snapshot = Snapshot.of(frequencies)
    counts = fluctuate(
        snapshot.counts,
        task_column(snapshot.key_tuple, task_of),
        fluctuation=fluctuation,
        num_tasks=num_tasks,
        rng=rng,
        max_swaps=max_swaps,
    )
    return Snapshot(snapshot.key_tuple, counts)
