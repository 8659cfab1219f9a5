"""Value discretisation for the compact statistics representation (Section IV-B).

The size of the 6-dimensional compact key space is proportional to the number
of distinct computation-cost and memory values, so both are discretised onto a
small set of representative values before records are grouped.

Two discretisers are provided:

* :class:`HLHEDiscretizer` — the paper's half-linear-half-exponential scheme
  ``φ(x)``: representative values are generated with a linear ladder of step
  ``R`` above ``R`` and an exponential ladder (R/2, R/4, …, 2, 1) below it, and
  each value is rounded to one of its two bracketing representatives so that
  the *accumulated* deviation stays as close to zero as possible (Theorem 3:
  the total deviation is ≈ 0).
* :class:`NearestValueDiscretizer` — the naive piecewise-constant baseline the
  paper argues against (each value independently takes its nearest
  representative); kept for the ablation benchmark.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "HLHEDiscretizer",
    "NearestValueDiscretizer",
    "representative_values",
    "total_deviation",
]


def _validate_degree(degree: int) -> int:
    """Check that the degree of discretisation ``R`` is a power of two ≥ 1."""
    if degree < 1:
        raise ValueError(f"degree R must be >= 1, got {degree}")
    if degree & (degree - 1) != 0:
        raise ValueError(f"degree R must be a power of two, got {degree}")
    return int(degree)


def representative_values(max_value: float, degree: int) -> List[float]:
    """Generate the HLHE representative ladder for values in ``[1, max_value]``.

    With ``R = 2^r`` and ``s = floor(max_value / R)`` the ladder is, in strictly
    decreasing order::

        s·R, (s-1)·R, …, R,   R/2, R/4, …, 2, 1

    i.e. ``s`` linear values followed by ``r`` exponential values.  When
    ``max_value < R`` the linear part is empty and the ladder starts at ``R/2``
    (still covering every value ≥ 1 thanks to the exponential part).
    """
    degree = _validate_degree(degree)
    if max_value < 1:
        max_value = 1.0
    r = degree.bit_length() - 1  # R = 2^r
    s = int(max_value // degree)
    ladder: List[float] = [float(step * degree) for step in range(s, 0, -1)]
    ladder.extend(float(2 ** power) for power in range(r - 1, -1, -1))
    if not ladder:
        ladder = [1.0]
    # Guarantee every value in [1, max_value] has a representative no larger
    # than itself; the exponential tail always ends at 1, so this only matters
    # for degenerate degree=1 ladders, where the linear part already reaches 1.
    return ladder


def total_deviation(values: Sequence[float], discretized: Sequence[float]) -> float:
    """``|δ| = |Σ (x_i − φ(x_i))|`` — the accumulated approximation error."""
    if len(values) != len(discretized):
        raise ValueError("values and discretized must have the same length")
    return abs(sum(v - d for v, d in zip(values, discretized)))


class _LadderDiscretizer:
    """Shared machinery: ladder construction and bracketing lookups."""

    def __init__(self, degree: int = 8) -> None:
        self.degree = _validate_degree(degree)

    def _brackets(self, values: Sequence[float]) -> Tuple[np.ndarray, List[float], List[float]]:
        """``values`` as a float64 column, with the (upper, lower) representatives
        bracketing each value on the ladder of their largest positive one.

        Values at or above the top of the ladder only have the single
        candidate at its top; values below 1 are clamped onto the smallest
        representative.  One ``searchsorted`` over the ascending ladder.
        """
        column = np.asarray(values, dtype=np.float64)
        if (column < 0).any():
            raise ValueError("values must be non-negative")
        positive = column[column > 0]
        ladder = representative_values(positive.max() if len(positive) else 1.0, self.degree)
        ascending = np.array(ladder[::-1])
        below = np.clip(np.searchsorted(ascending, column, side="right") - 1, 0, len(ladder) - 1)
        above = ascending[np.minimum(below + 1, len(ladder) - 1)]
        upper = np.where(column < ascending[0], ascending[0], above)
        return column, upper.tolist(), ascending[below].tolist()

    # -- public API ---------------------------------------------------------

    def discretize(self, values: Sequence[float]) -> List[float]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(degree={self.degree})"


class HLHEDiscretizer(_LadderDiscretizer):
    """Half-linear-half-exponential discretisation ``φ(x)`` with greedy
    deviation cancelling (the paper's proposed approach, Fig. 6(b)).

    Values are processed in non-increasing order; for each value the bracketing
    representative that keeps the running accumulated deviation closest to zero
    is chosen (ties prefer the lower representative, which is exact whenever
    the value sits on the ladder).  The choice depends on the deviation so far,
    so it is made value by value; the brackets are looked up as arrays.
    """

    def discretize(self, values: Sequence[float]) -> List[float]:
        """Return ``[φ(x) for x in values]`` in the original order."""
        if not len(values):
            return []
        column, upper, lower = self._brackets(values)
        result: List[float] = [0.0] * len(values)
        accumulated = 0.0
        for idx in np.argsort(-column, kind="stable").tolist():
            value = values[idx]
            if value <= 0:
                continue
            # Choose the representative minimising |accumulated + (value - rep)|.
            dev_upper = accumulated + (value - upper[idx])
            dev_lower = accumulated + (value - lower[idx])
            if abs(dev_upper) < abs(dev_lower):
                result[idx], accumulated = upper[idx], dev_upper
            else:
                result[idx], accumulated = lower[idx], dev_lower
        return result


class NearestValueDiscretizer(_LadderDiscretizer):
    """Naive piecewise-constant discretisation (Fig. 6(a) baseline).

    Every value is rounded independently to whichever bracketing representative
    is closer (ties towards the lower one).  Used only for the ablation showing
    why the greedy deviation-cancelling pass matters.
    """

    def discretize(self, values: Sequence[float]) -> List[float]:
        if not len(values):
            return []
        column, upper, lower = self._brackets(values)
        up, low = np.array(upper), np.array(lower)
        nearer = np.where(np.abs(up - column) < np.abs(low - column), up, low)
        return np.where(column <= 0, 0.0, nearer).tolist()
