"""The dict-walking Zipf generator, kept as the oracle for the columnar one in ``src/``.

These are the bodies ``repro.workloads`` shipped before the generator kept its
state as columns (``per_task_loads``, ``apply_fluctuation`` and
``ZipfWorkload.__iter__``), unchanged apart from their names: each interval
is a ``{key: count}`` dict, fluctuation walks it key by key and sorts keys
with ``sorted(key=…)``, and every yield copies the dict.  Nothing under ``src/`` uses them;
``test_generator_oracle.py`` asserts that the columnar generator yields the
same ``(key, count)`` sequence, bit for bit, and draws the same random
numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, Mapping, Optional

import numpy as np

from repro.workloads.zipf import zipf_frequencies

Key = Hashable


def per_task_loads(
    frequencies: Mapping[Key, float],
    task_of: Callable[[Key], int],
    num_tasks: int,
) -> Dict[int, float]:
    """Aggregate a key-frequency snapshot into per-task loads."""
    loads = {task: 0.0 for task in range(num_tasks)}
    for key, freq in frequencies.items():
        loads[task_of(key)] += freq
    return loads


def reference_apply_fluctuation(
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


def reference_zipf_snapshots(
    *,
    num_keys: int,
    skew: float,
    tuples_per_interval: int,
    fluctuation: float,
    num_tasks: int,
    task_of: Optional[Callable[[int], int]] = None,
    intervals: Optional[int] = None,
    seed: int = 0,
    sampled: bool = True,
) -> Iterator[Dict[int, float]]:
    """``ZipfWorkload(...)`` iterated: one ``{key: count}`` dict per interval."""
    task_of = task_of if task_of is not None else (lambda key: key % num_tasks)
    rng = np.random.default_rng(seed)
    base = zipf_frequencies(num_keys, skew, tuples_per_interval, rng, exact=not sampled)
    current = dict(base)
    produced = 0
    while intervals is None or produced < intervals:
        yield dict(current)
        produced += 1
        if intervals is not None and produced >= intervals:
            break
        if fluctuation > 0:
            current = reference_apply_fluctuation(
                current,
                fluctuation=fluctuation,
                task_of=task_of,
                num_tasks=num_tasks,
                rng=rng,
            )
        if sampled:
            keys = list(current.keys())
            weights = np.array([current[key] for key in keys], dtype=np.float64)
            total = weights.sum()
            if total > 0:
                draws = rng.multinomial(tuples_per_interval, weights / total)
                current = {
                    key: float(count)
                    for key, count in zip(keys, draws)
                    if count > 0
                }
