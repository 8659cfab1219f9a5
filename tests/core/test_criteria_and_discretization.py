"""Tests for the selection criteria (γ index) and the HLHE discretisation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_planner import reference_discretize
from repro.core.criteria import (
    DEFAULT_BETA,
    HighestCostFirst,
    LargestGammaFirst,
    SmallestMemoryFirst,
    gamma_index,
)
from repro.core.discretization import (
    HLHEDiscretizer,
    NearestValueDiscretizer,
    representative_values,
    total_deviation,
)


class TestGammaIndex:
    def test_basic_value(self):
        assert gamma_index(4.0, 2.0, beta=1.0) == pytest.approx(2.0)
        assert gamma_index(4.0, 2.0, beta=2.0) == pytest.approx(8.0)

    def test_zero_memory_is_finite(self):
        assert gamma_index(4.0, 0.0) > 0
        assert gamma_index(4.0, 0.0) < float("inf")

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            gamma_index(-1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_index(1.0, -1.0)
        with pytest.raises(ValueError):
            gamma_index(1.0, 1.0, beta=-0.5)

    def test_paper_example_beta_weights(self):
        # c(k1)=S(k1)=7, c(k2)=S(k2)=4: equal priority at beta=1, k2 wins at beta=0.5.
        assert gamma_index(7, 7, beta=1.0) == pytest.approx(gamma_index(4, 4, beta=1.0))
        assert gamma_index(4, 4, beta=0.5) > gamma_index(7, 7, beta=0.5)


class TestCriteria:
    costs = {"a": 10.0, "b": 5.0, "c": 1.0}
    memories = {"a": 100.0, "b": 1.0, "c": 1.0}

    def test_highest_cost_first(self):
        order = HighestCostFirst().sort(self.costs, self.costs, self.memories)
        assert order == ["a", "b", "c"]

    def test_largest_gamma_first(self):
        order = LargestGammaFirst(beta=1.0).sort(self.costs, self.costs, self.memories)
        # b has gamma 5, c has 1, a has 0.1 -> b first, a last.
        assert order == ["b", "c", "a"]

    def test_smallest_memory_first(self):
        order = SmallestMemoryFirst().sort(self.costs, self.costs, self.memories)
        assert order[-1] == "a"

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            LargestGammaFirst(beta=-1)

    def test_sort_is_deterministic_on_ties(self):
        costs = {"x": 1.0, "y": 1.0, "z": 1.0}
        mems = {"x": 1.0, "y": 1.0, "z": 1.0}
        first = HighestCostFirst().sort(costs, costs, mems)
        second = HighestCostFirst().sort(costs, costs, mems)
        assert first == second

    def test_default_beta_value(self):
        assert DEFAULT_BETA == pytest.approx(1.5)


#: Costs up to 1e12: any float (subnormals included), exact integers, and the
#: smallest subnormals, whose powers underflow.
_COSTS = st.one_of(
    st.floats(min_value=0.0, max_value=1e12),
    st.integers(min_value=0, max_value=10**12).map(float),
    st.sampled_from([5e-324, 1e-310, 2.0**-1022]),
)
#: Memories down to 0, below the γ floor.
_MEMORIES = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e12))


class TestGammaColumn:
    """``LargestGammaFirst.priorities`` is the scalar ``gamma_index``, bit for bit.

    Plans tie-break on exact γ equality, so a column kernel that rounds one
    power differently (a SIMD ``pow``) would reorder keys silently.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_COSTS, _MEMORIES), min_size=1, max_size=40),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    )
    def test_column_equals_scalar_bit_for_bit(self, pairs, beta):
        cost = np.array([c for c, _ in pairs])
        memory = np.array([m for _, m in pairs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = LargestGammaFirst(beta).priorities(cost, memory)
        scalar = np.array([gamma_index(c, m, beta) for c, m in pairs])
        assert column.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()

    def test_overflow_raises_on_both_paths(self):
        with pytest.raises(OverflowError):
            gamma_index(1e300, 1.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                LargestGammaFirst(1.5).priorities(np.array([2.0, 1e300]), np.ones(2))


class TestRepresentativeValues:
    def test_paper_example_r4(self):
        # R = 4, max = 8 -> m = 2 + 2 = 4 representatives: 8, 4, 2, 1.
        assert representative_values(8, 4) == [8.0, 4.0, 2.0, 1.0]

    def test_degree_one_is_integers(self):
        assert representative_values(5, 1) == [5.0, 4.0, 3.0, 2.0, 1.0]

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            representative_values(10, 0)
        with pytest.raises(ValueError):
            representative_values(10, 3)

    def test_small_max_value(self):
        ladder = representative_values(0.5, 8)
        assert ladder[-1] == 1.0

    def test_strictly_decreasing(self):
        ladder = representative_values(1000, 16)
        assert all(a > b for a, b in zip(ladder, ladder[1:]))


class TestHLHEDiscretizer:
    def test_paper_example_total_deviation_zero(self):
        # Fig. 6(b): values 8,6,3,2,2,1,1,1,1,1 with R=4 end with |delta| = 0.
        values = [8, 6, 3, 2, 2, 1, 1, 1, 1, 1]
        out = HLHEDiscretizer(4).discretize(values)
        assert total_deviation(values, out) == pytest.approx(0.0)

    def test_values_on_ladder_are_exact(self):
        values = [8.0, 4.0, 2.0, 1.0]
        assert HLHEDiscretizer(4).discretize(values) == values

    def test_zero_values_stay_zero(self):
        assert HLHEDiscretizer(8).discretize([0.0, 5.0])[0] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HLHEDiscretizer(8).discretize([-1.0])

    def test_empty_input(self):
        assert HLHEDiscretizer(8).discretize([]) == []

    def test_beats_nearest_on_accumulated_deviation(self):
        values = [8, 6, 3, 2, 2, 1, 1, 1, 1, 1]
        hlhe = HLHEDiscretizer(4).discretize(values)
        nearest = NearestValueDiscretizer(4).discretize(values)
        assert total_deviation(values, hlhe) <= total_deviation(values, nearest)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=200),
        st.sampled_from([1, 2, 4, 8, 16, 32]),
    )
    @settings(max_examples=60)
    def test_accumulated_deviation_bounded(self, values, degree):
        """Theorem 3: the greedy pass keeps the accumulated deviation small.

        Values between two representatives contribute at most one ladder gap
        (≤ R) to the residual because the greedy picks the bracket that cancels
        the running error; values above the top representative only have a
        single candidate, so their (bounded) excess is the only part that may
        remain uncancelled.
        """
        out = HLHEDiscretizer(degree).discretize(values)
        ladder = representative_values(max(values), degree)
        top = ladder[0]
        over_top_excess = sum(v - top for v in values if v >= top)
        assert total_deviation(values, out) <= over_top_excess + degree + 1e-6

    def test_skewed_inputs_reach_near_zero_deviation(self):
        """The paper's setting (many small values): deviation ends ≈ 0."""
        values = [300.0, 170.0, 90.0] + [float(v % 7 + 1) for v in range(300)]
        out = HLHEDiscretizer(8).discretize(values)
        assert total_deviation(values, out) <= 8.0

    @given(
        st.lists(st.floats(min_value=1.0, max_value=500.0), min_size=1, max_size=100),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40)
    def test_each_value_maps_to_a_representative(self, values, degree):
        discretizer = HLHEDiscretizer(degree)
        ladder = set(representative_values(max(values), degree))
        for _original, rounded in zip(values, discretizer.discretize(values)):
            assert rounded in ladder

    def test_fewer_distinct_values_with_larger_degree(self):
        values = [float(v) for v in range(1, 400)]
        fine = len(set(HLHEDiscretizer(2).discretize(values)))
        coarse = len(set(HLHEDiscretizer(64).discretize(values)))
        assert coarse <= fine


class TestNearestValueDiscretizer:
    def test_rounds_to_nearest(self):
        # Ladder for max=8, R=4 is [8, 4, 2, 1]: 7.9 rounds up, 4.1 rounds down.
        out = NearestValueDiscretizer(4).discretize([8.0, 7.9, 4.1])
        assert out[1] == 8.0
        assert out[2] == 4.0

    def test_empty_and_zero(self):
        assert NearestValueDiscretizer(4).discretize([]) == []
        assert NearestValueDiscretizer(4).discretize([0.0]) == [0.0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            NearestValueDiscretizer(4).discretize([-2.0])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 7, 8.0, 9.5, 64.0, 0.1, 1e-3]),
            st.floats(min_value=0.0, max_value=5_000.0),
            st.integers(min_value=0, max_value=300),
        ),
        max_size=80,
    ),
    st.sampled_from([1, 2, 4, 8, 64]),
    st.sampled_from([HLHEDiscretizer, NearestValueDiscretizer]),
)
def test_discretize_matches_value_by_value_reference(values, degree, kind):
    """The array bracket lookup picks, value for value, what the per-value
    binary search of ``reference_planner.reference_discretize`` picks."""
    discretizer = kind(degree)
    actual = discretizer.discretize(values)
    expected = reference_discretize(discretizer, values)
    assert [float(x).hex() for x in actual] == [float(x).hex() for x in expected]
