"""Regression tests: the load model must survive subnormal totals.

``5e-324`` is the smallest positive float; dividing it by the task count
underflows to 0.0, so any metric computed via the divided mean (``x / L̄``
guarded by ``mean <= 0``) silently reported a loaded operator as empty.  All
ratios are now evaluated from the total load (see ``repro.core.load``).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load import (
    average_load,
    balance_indicators,
    load_ceiling,
    max_balance_indicator,
    max_skewness,
    overloaded_tasks,
    safe_mean,
    total_load,
)

SUBNORMAL = 5e-324  # math.ulp(0.0): the smallest positive double


class TestSubnormalLoads:
    def test_mean_underflows_but_skewness_does_not(self):
        loads = {0: 0.0, 1: SUBNORMAL}
        assert average_load(loads) == 0.0  # the underflow the guards must survive
        assert max_skewness(loads) >= 1.0
        assert max_skewness(loads) == pytest.approx(2.0)

    def test_balance_indicators_subnormal(self):
        loads = {0: 0.0, 1: SUBNORMAL}
        indicators = balance_indicators(loads)
        assert indicators[0] == pytest.approx(1.0)
        assert indicators[1] == pytest.approx(1.0)
        assert max_balance_indicator(loads) == pytest.approx(1.0)

    def test_overloaded_tasks_subnormal_is_conservative(self):
        # At subnormal magnitudes the ceiling is below float resolution; the
        # important property is that NOT every loaded task is flagged.
        loads = {0: 0.0, 1: SUBNORMAL, 2: SUBNORMAL}
        assert overloaded_tasks(loads, 0.1) != [0, 1, 2]

    def test_load_ceiling_orders_multiply_before_divide(self):
        # (1 + θ) · total first, then / N — the subnormal total is not first
        # crushed to a zero mean.
        assert load_ceiling({0: 12.0, 1: 8.0}, 0.1) == pytest.approx(11.0)
        assert load_ceiling({}, 0.1) == 0.0

    def test_helpers(self):
        assert total_load({0: 1.0, 1: 2.0}) == 3.0
        assert total_load({}) == 0.0
        assert safe_mean(10.0, 4) == 2.5
        assert safe_mean(10.0, 0) == 0.0

    @given(
        st.dictionaries(
            st.integers(0, 9),
            st.floats(0.0, 1e308, allow_nan=False),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=100)
    def test_skewness_at_least_one_for_any_loaded_operator(self, loads):
        total = sum(loads.values())
        if total > 0 and not math.isinf(total):
            assert max_skewness(loads) >= 1.0 - 1e-9
        assert max_balance_indicator(loads) >= 0.0

    @given(st.floats(5e-324, 1e-300))
    @settings(max_examples=50)
    def test_single_tiny_hot_key_always_skewed(self, tiny):
        loads = {0: tiny, 1: 0.0, 2: 0.0, 3: 0.0}
        assert max_skewness(loads) == pytest.approx(4.0)
        assert max_balance_indicator(loads) == pytest.approx(3.0)
