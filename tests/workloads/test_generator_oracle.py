"""The columnar Zipf generator against the dict-walking one it replaced.

``reference_generator.py`` holds the generator as it was when every interval
was a ``{key: count}`` dict.  The columnar one must yield the same keys with
the same counts, in the same order, bit for bit, interval after interval, in
both the sampled and the expected-count mode, and leave the random stream
where the dict walk left it.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import Snapshot
from repro.workloads import ZipfWorkload, apply_fluctuation

from reference_generator import reference_apply_fluctuation, reference_zipf_snapshots


def _rows(snapshot):
    return [(key, struct.pack("<d", count)) for key, count in snapshot.items()]


@pytest.mark.parametrize("sampled", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_columnar_generator_yields_the_reference_sequence(seed, sampled):
    shape = dict(
        num_keys=3_000,
        skew=0.85,
        tuples_per_interval=20_000,
        fluctuation=1.0,
        num_tasks=7,
        intervals=12,
        seed=seed,
        sampled=sampled,
    )
    actual = ZipfWorkload(**shape).take(12)
    expected = list(reference_zipf_snapshots(**shape))
    assert len(actual) == len(expected) == 12
    for interval, (snapshot, reference) in enumerate(zip(actual, expected)):
        assert isinstance(snapshot, Snapshot)
        assert _rows(snapshot) == _rows(reference), interval
        values = list(snapshot.values())
        assert all(type(value) is float for value in values)
        assert [struct.pack("<d", v) for v in values] == [
            struct.pack("<d", v) for v in reference.values()
        ]
        assert all(type(key) is int for key in snapshot.key_tuple)


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.integers(1, 400),
    skew=st.sampled_from([0.0, 0.5, 0.85, 1.2]),
    tuples=st.integers(0, 3_000),
    fluctuation=st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0]),
    num_tasks=st.integers(1, 6),
    seed=st.integers(0, 1_000),
    sampled=st.booleans(),
)
def test_any_shape_matches_the_reference(
    num_keys, skew, tuples, fluctuation, num_tasks, seed, sampled
):
    shape = dict(
        num_keys=num_keys,
        skew=skew,
        tuples_per_interval=tuples,
        fluctuation=fluctuation,
        num_tasks=num_tasks,
        intervals=5,
        seed=seed,
        sampled=sampled,
    )
    actual = ZipfWorkload(**shape).take(5)
    expected = list(reference_zipf_snapshots(**shape))
    assert [_rows(s) for s in actual] == [_rows(s) for s in expected]


def test_a_custom_task_of_and_the_random_stream_follow_the_reference():
    """A ``task_of`` of the caller's, and the random numbers left after the
    walk: the next draw of both generators is the same."""
    frequencies = {f"k{i}": float((i * 37) % 101) for i in range(500)}

    def task_of(key):
        return len(key) % 3

    actual_rng, expected_rng = np.random.default_rng(9), np.random.default_rng(9)
    actual = apply_fluctuation(frequencies, fluctuation=0.8, task_of=task_of, num_tasks=3, rng=actual_rng)
    expected = reference_apply_fluctuation(
        frequencies, fluctuation=0.8, task_of=task_of, num_tasks=3, rng=expected_rng
    )
    assert _rows(actual) == _rows(expected)
    assert actual != frequencies
    assert actual_rng.random() == expected_rng.random()


def test_the_key_tuple_is_shared_while_the_keys_do_not_change():
    snapshots = ZipfWorkload(
        num_keys=2_000, tuples_per_interval=50_000, fluctuation=1.0, intervals=4, sampled=False
    ).take(4)
    assert all(s.key_tuple is snapshots[0].key_tuple for s in snapshots)
    assert len({id(s.counts) for s in snapshots}) == 4
