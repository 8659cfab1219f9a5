"""Interpolated quantiles of a :class:`~repro.runtime.LatencyHistogram`.

The histogram's own ``quantile`` answers with the upper edge of the bucket the
quantile falls in, and the edges are a growth factor (25 %) apart — a median
that moves by a few percent between runs either reads exactly the same or
jumps by a quarter.  Interpolating log-linearly inside the bucket (samples of
a geometric bucket are closer to log-uniform than uniform) gives a value that
moves with the samples, which is what a regression bound of a tenth needs.

Only the ``to_dict()`` payload is read (its ``growth`` / ``min_us`` / sparse
``counts``), never the histogram module's private layout constants.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = ["histogram_quantile_us"]


def histogram_quantile_us(payload: Mapping[str, Any], q: float) -> float:
    """The ``q``-quantile in microseconds of a ``LatencyHistogram.to_dict()``.

    Raises ``ValueError`` on an empty histogram: a latency metric with no
    samples is a failed measurement, not a zero.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = int(payload["total"])
    if total <= 0:
        raise ValueError("cannot take a quantile of an empty histogram")
    growth = float(payload["growth"])
    min_us = float(payload["min_us"])
    max_us = float(payload["max_us"])
    target = q * total
    seen = 0
    buckets = sorted((int(index), int(count)) for index, count in payload["counts"].items())
    for index, count in buckets:
        if seen + count >= target:
            fraction = (target - seen) / count
            value = min_us * growth ** (index + fraction)
            return min(value, max_us) if max_us > 0 else value
        seen += count
    return max_us
