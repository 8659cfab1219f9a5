"""Short-term workload fluctuation (the ``f`` knob of the synthetic generator).

The paper's generator "keeps swapping frequencies between keys from different
task instances until the change on workload is significant enough, i.e.
``|L_i(d) − L_{i−1}(d)| / L̄ ≥ f``".  :func:`apply_fluctuation` reproduces that
procedure: frequencies of randomly chosen key pairs (that live on different
tasks under the reference assignment) are exchanged until the maximum relative
per-task load change reaches the requested rate.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

import numpy as np

__all__ = ["apply_fluctuation", "per_task_loads"]

Key = Hashable


def per_task_loads(
    frequencies: Dict[Key, float],
    task_of: Callable[[Key], int],
    num_tasks: int,
) -> Dict[int, float]:
    """Aggregate a key-frequency snapshot into per-task loads."""
    loads = {task: 0.0 for task in range(num_tasks)}
    for key, freq in frequencies.items():
        loads[task_of(key)] += freq
    return loads


def apply_fluctuation(
    frequencies: Dict[Key, float],
    *,
    fluctuation: float,
    task_of: Callable[[Key], int],
    num_tasks: int,
    rng: Optional[np.random.Generator] = None,
    max_swaps: int = 1_000_000,
) -> Dict[Key, float]:
    """Return a new snapshot whose per-task load differs from the input by ≥ ``f``.

    Key frequencies are swapped between keys assigned to *different* tasks (so
    the overall key-popularity distribution is unchanged) until the maximum
    relative per-task load change reaches ``fluctuation``.  ``max_swaps`` bounds
    the work for degenerate inputs (e.g. a single task).
    """
    if fluctuation < 0:
        raise ValueError("fluctuation must be non-negative")
    if num_tasks <= 0:
        raise ValueError("num_tasks must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    result = dict(frequencies)
    if fluctuation == 0 or len(result) < 2 or num_tasks < 2:
        return result

    before = per_task_loads(result, task_of, num_tasks)
    current = dict(before)
    mean = sum(before.values()) / len(before)
    if mean <= 0:
        return result

    # Concentrate the change on one randomly chosen target task: swapping its
    # coldest keys against hotter keys of the other tasks raises its load by
    # (hot − cold) per swap.  Each swap is sized to the *remaining* change still
    # needed, so the delivered fluctuation tracks ``f`` instead of overshooting
    # it (a small f must stay a small disturbance), and even f = 2.0 is reached
    # in O(K log K) work.
    from bisect import bisect_right

    target = int(rng.integers(0, num_tasks))
    inside = sorted(
        (key for key in result if task_of(key) == target), key=lambda k: result[k]
    )
    outside = sorted(
        (key for key in result if task_of(key) != target), key=lambda k: result[k]
    )
    outside_freqs = [result[key] for key in outside]
    used = set()
    swaps = 0
    for cold_key in inside:
        if swaps >= max_swaps:
            break
        needed = fluctuation * mean - abs(current[target] - before[target])
        if needed <= 0:
            break
        cold = result[cold_key]
        # Largest outside key whose swap gain stays within the needed change;
        # fall back to the smallest strictly hotter key when every candidate
        # overshoots (progress must still be made).
        idx = bisect_right(outside_freqs, cold + needed) - 1
        hot_key = None
        while idx >= 0:
            candidate = outside[idx]
            if candidate not in used and result[candidate] > cold:
                hot_key = candidate
                break
            idx -= 1
        if hot_key is None:
            idx = bisect_right(outside_freqs, cold)
            while idx < len(outside):
                candidate = outside[idx]
                if candidate not in used and result[candidate] > cold:
                    hot_key = candidate
                    break
                idx += 1
        if hot_key is None:
            break
        used.add(hot_key)
        hot = result[hot_key]
        result[cold_key], result[hot_key] = hot, cold
        other = task_of(hot_key)
        current[target] += hot - cold
        current[other] -= hot - cold
        swaps += 1
    return result
