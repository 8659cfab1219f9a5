"""Synthetic Zipf workload (Section V, "Synthetic Data").

Tuples are drawn from a Zipf distribution with skew parameter ``z`` over an
integer key domain of size ``K``.  At the beginning of every interval the
generator perturbs the distribution until the per-task workload change reaches
the fluctuation rate ``f`` (``|L_i(d) − L_{i−1}(d)| / L̄ ≥ f``), exactly as the
paper describes — frequencies are *swapped* between keys that hash to different
tasks, so the total workload stays constant while its placement shifts.

The generator's state is columns: a key tuple, shared by every snapshot while
the keys do not change, the count column and the task column fluctuation
swaps across.  Each interval is a :class:`~repro.core.snapshot.Snapshot` over
them, so the router and the statistics read the columns as they are.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.core.snapshot import Snapshot
from repro.workloads.fluctuation import fluctuate, task_column

__all__ = ["zipf_frequencies", "ZipfWorkload"]

Key = Hashable


def zipf_frequencies(
    num_keys: int,
    skew: float,
    total_tuples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    exact: bool = False,
) -> Dict[int, float]:
    """Draw one interval's ``{key: count}`` snapshot from a Zipf distribution.

    Parameters
    ----------
    num_keys:
        Size of the key domain ``K`` (keys are ``0 .. K-1``).
    skew:
        Zipf exponent ``z`` (0 = uniform; the paper's default is 0.85).
    total_tuples:
        Number of tuples in the interval.
    rng:
        Numpy random generator; a fixed default seed is used when omitted.
    exact:
        When True the expected (deterministic) counts are returned instead of a
        multinomial draw — useful for property tests.
    """
    counts = _zipf_counts(num_keys, skew, total_tuples, rng, exact)
    return {int(key): float(count) for key, count in enumerate(counts) if count > 0}


def _zipf_counts(
    num_keys: int,
    skew: float,
    total_tuples: int,
    rng: Optional[np.random.Generator],
    exact: bool,
) -> np.ndarray:
    """The count column of :func:`zipf_frequencies`: one entry per key ``0 .. K-1``."""
    if num_keys <= 0:
        raise ValueError("num_keys must be positive")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    if total_tuples < 0:
        raise ValueError("total_tuples must be non-negative")
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    if exact:
        return weights * total_tuples
    rng = rng if rng is not None else np.random.default_rng(0)
    return rng.multinomial(total_tuples, weights).astype(np.float64)


class ZipfWorkload:
    """Iterator of per-interval key-frequency snapshots.

    Parameters
    ----------
    num_keys:
        Key domain size ``K``.
    skew:
        Zipf skew ``z``.
    tuples_per_interval:
        Interval volume.
    fluctuation:
        Fluctuation rate ``f``: the minimum relative per-task workload change
        between consecutive intervals (0 = static distribution).
    num_tasks / task_of:
        The fluctuation definition is relative to a task assignment; either
        pass the number of tasks (keys are assigned by ``hash``-less modulo for
        the purpose of measuring the change, matching the generator the paper
        built on) or an explicit ``task_of(key)`` callable (e.g. the same hash
        the system under test uses).
    intervals:
        Number of intervals to generate (``None`` = unbounded).
    seed:
        RNG seed.
    sampled:
        Draw multinomial samples (True) or use exact expected counts (False).
    """

    def __init__(
        self,
        num_keys: int = 100_000,
        skew: float = 0.85,
        tuples_per_interval: int = 100_000,
        fluctuation: float = 1.0,
        num_tasks: int = 10,
        task_of: Optional[Callable[[int], int]] = None,
        intervals: Optional[int] = None,
        seed: int = 0,
        sampled: bool = True,
    ) -> None:
        if num_keys <= 0 or tuples_per_interval < 0:
            raise ValueError("num_keys must be positive and tuples_per_interval >= 0")
        if fluctuation < 0:
            raise ValueError("fluctuation must be non-negative")
        if num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        self.num_keys = int(num_keys)
        self.skew = float(skew)
        self.tuples_per_interval = int(tuples_per_interval)
        self.fluctuation = float(fluctuation)
        self.num_tasks = int(num_tasks)
        self.task_of = task_of if task_of is not None else (lambda key: key % self.num_tasks)
        self.intervals = intervals
        self.seed = int(seed)
        self.sampled = bool(sampled)

    def __iter__(self) -> Iterator[Snapshot]:
        rng = np.random.default_rng(self.seed)
        # The base popularity ranking; fluctuation permutes which key holds
        # which rank, so the marginal distribution stays Zipf(z).
        counts = _zipf_counts(
            self.num_keys, self.skew, self.tuples_per_interval, rng, exact=not self.sampled
        )
        base = Snapshot(tuple(range(self.num_keys)), counts).live()
        keys, counts = base.key_tuple, base.counts
        tasks = None  # the task column of ``keys``, computed on first use
        produced = 0
        while self.intervals is None or produced < self.intervals:
            yield Snapshot(keys, counts)
            produced += 1
            if self.intervals is not None and produced >= self.intervals:
                break
            if self.fluctuation > 0:
                if tasks is None:
                    tasks = task_column(keys, self.task_of)
                counts = fluctuate(
                    counts,
                    tasks,
                    fluctuation=self.fluctuation,
                    num_tasks=self.num_tasks,
                    rng=rng,
                )
            if self.sampled:
                # Re-draw the sampling noise on top of the (possibly permuted)
                # expected frequencies.
                total = counts.sum()
                if total > 0:
                    draws = rng.multinomial(self.tuples_per_interval, counts / total)
                    drawn = Snapshot(keys, draws).live()
                    if tasks is not None and drawn.key_tuple is not keys:
                        tasks = tasks[draws > 0]
                    keys, counts = drawn.key_tuple, drawn.counts

    def take(self, intervals: int) -> List[Snapshot]:
        """Materialise the first ``intervals`` snapshots as a list."""
        result: List[Snapshot] = []
        for snapshot in self:
            result.append(snapshot)
            if len(result) >= intervals:
                break
        return result

