"""Tests for the workload generators (Zipf, fluctuation, Social, Stock, TPC-H)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    SocialFeedWorkload,
    StockExchangeWorkload,
    TPCHStreamWorkload,
    ZipfWorkload,
    apply_fluctuation,
    generate_tpch,
    zipf_frequencies,
)
from repro.engine.topology import map_keys
from repro.workloads.tpch import ForeignKeyLookup

from reference_generator import per_task_loads


class TestZipfFrequencies:
    def test_total_preserved(self):
        freqs = zipf_frequencies(1000, 0.85, 50_000, np.random.default_rng(0))
        assert sum(freqs.values()) == 50_000

    def test_exact_mode_matches_zipf_shape(self):
        freqs = zipf_frequencies(100, 1.0, 10_000, exact=True)
        assert freqs[0] > freqs[1] > freqs[10]
        assert freqs[0] / freqs[1] == pytest.approx(2.0, rel=1e-6)

    def test_zero_skew_is_uniform(self):
        freqs = zipf_frequencies(10, 0.0, 1_000, exact=True)
        values = list(freqs.values())
        assert max(values) == pytest.approx(min(values))

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_frequencies(0, 0.5, 100)
        with pytest.raises(ValueError):
            zipf_frequencies(10, -1, 100)
        with pytest.raises(ValueError):
            zipf_frequencies(10, 0.5, -1)

    @given(st.integers(1, 2000), st.floats(0, 2), st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_counts_non_negative_and_bounded(self, num_keys, skew, total):
        freqs = zipf_frequencies(num_keys, skew, total, np.random.default_rng(1))
        assert all(count > 0 for count in freqs.values())
        assert sum(freqs.values()) == total


class TestFluctuation:
    def test_zero_fluctuation_is_identity(self):
        freqs = {i: float(i + 1) for i in range(20)}
        assert apply_fluctuation(
            freqs, fluctuation=0.0, task_of=lambda k: k % 4, num_tasks=4
        ) == freqs

    def test_reaches_requested_change(self):
        freqs = zipf_frequencies(2000, 0.85, 100_000, np.random.default_rng(2))
        task_of = lambda key: key % 10
        before = per_task_loads(freqs, task_of, 10)
        shaken = apply_fluctuation(
            freqs, fluctuation=0.8, task_of=task_of, num_tasks=10,
            rng=np.random.default_rng(3),
        )
        after = per_task_loads(shaken, task_of, 10)
        mean = sum(before.values()) / len(before)
        assert max(abs(after[d] - before[d]) for d in before) / mean >= 0.8

    def test_total_volume_and_key_set_preserved(self):
        freqs = zipf_frequencies(500, 1.0, 20_000, np.random.default_rng(4))
        shaken = apply_fluctuation(
            freqs, fluctuation=1.0, task_of=lambda k: k % 5, num_tasks=5,
            rng=np.random.default_rng(5),
        )
        assert set(shaken) == set(freqs)
        assert sum(shaken.values()) == pytest.approx(sum(freqs.values()))
        # The multiset of frequencies is unchanged (frequencies are swapped).
        assert sorted(shaken.values()) == sorted(freqs.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_fluctuation({}, fluctuation=-1, task_of=lambda k: 0, num_tasks=2)
        with pytest.raises(ValueError):
            apply_fluctuation({}, fluctuation=0.5, task_of=lambda k: 0, num_tasks=0)


class TestZipfWorkload:
    def test_take_produces_requested_intervals(self):
        snapshots = ZipfWorkload(
            num_keys=500, tuples_per_interval=10_000, intervals=4, fluctuation=0.5,
            num_tasks=5, seed=1,
        ).take(4)
        assert len(snapshots) == 4
        for snapshot in snapshots:
            assert sum(snapshot.values()) == pytest.approx(10_000, rel=0.01)
            assert all(0 <= key < 500 for key in snapshot)

    def test_fluctuation_changes_task_loads(self):
        workload = ZipfWorkload(
            num_keys=1000, tuples_per_interval=50_000, intervals=3, fluctuation=1.0,
            num_tasks=5, seed=2, sampled=False,
        )
        snapshots = workload.take(3)
        task_of = workload.task_of
        first = per_task_loads(snapshots[0], task_of, 5)
        second = per_task_loads(snapshots[1], task_of, 5)
        mean = sum(first.values()) / len(first)
        assert max(abs(second[d] - first[d]) for d in first) / mean >= 0.9

    def test_static_workload_when_fluctuation_zero(self):
        snapshots = ZipfWorkload(
            num_keys=100, tuples_per_interval=1_000, intervals=3, fluctuation=0.0,
            seed=3, sampled=False,
        ).take(3)
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfWorkload(num_keys=0)
        with pytest.raises(ValueError):
            ZipfWorkload(fluctuation=-1)


class TestSocialAndStock:
    def test_social_volume_and_drift(self):
        snapshots = SocialFeedWorkload(
            num_words=2000, tuples_per_interval=20_000, intervals=4, seed=1
        ).take(4)
        assert len(snapshots) == 4
        for snapshot in snapshots:
            assert sum(snapshot.values()) == pytest.approx(20_000)
        # Slow drift: the hot-word set overlaps heavily between intervals.
        def top(snapshot, n=50):
            return set(sorted(snapshot, key=snapshot.get, reverse=True)[:n])
        overlap = len(top(snapshots[0]) & top(snapshots[1])) / 50
        assert overlap > 0.5

    def test_stock_key_domain_and_bursts(self):
        workload = StockExchangeWorkload(
            num_stocks=200, tuples_per_interval=50_000, burst_probability=0.05,
            burst_magnitude=50.0, intervals=6, seed=2,
        )
        snapshots = workload.take(6)
        all_keys = set().union(*snapshots)
        assert len(all_keys) <= 200
        # Bursts make some interval's hottest stock far hotter than the median.
        peaks = [max(snapshot.values()) for snapshot in snapshots]
        assert max(peaks) > 3 * min(peaks) or max(peaks) > 0.05 * 50_000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SocialFeedWorkload(drift_rate=2.0)
        with pytest.raises(ValueError):
            StockExchangeWorkload(burst_magnitude=0.5)


class TestTPCH:
    def test_generate_row_counts_scale(self):
        small = generate_tpch(scale=0.001, seed=0)
        large = generate_tpch(scale=0.002, seed=0)
        assert large.num_orders > small.num_orders
        assert len(small.lineitems) == small.num_lineitems
        assert set(small.nation_region.values()) <= set(range(5))

    def test_foreign_keys_are_skewed(self):
        dataset = generate_tpch(scale=0.002, fk_skew=0.9, seed=1)
        counts = {}
        for order, _, _ in dataset.lineitems:
            counts[order] = counts.get(order, 0) + 1
        top_share = max(counts.values()) / len(dataset.lineitems)
        uniform_share = 1.0 / dataset.num_orders
        assert top_share > 5 * uniform_share

    def test_lookup_helpers_total(self):
        dataset = generate_tpch(scale=0.001, seed=0)
        for order in range(dataset.num_orders):
            assert 0 <= dataset.customer_of_order(order) < dataset.num_customers
        assert 0 <= dataset.nation_of_customer(0) < 25
        assert 0 <= dataset.nation_of_supplier(0) < 25
        assert 0 <= dataset.region_of_nation(7) < 5
        # Unknown keys fall back deterministically instead of raising.
        assert dataset.customer_of_order(10**9) < dataset.num_customers

    def test_foreign_key_lookup_answers_a_batch_like_one_call_per_key(self):
        lookup = ForeignKeyLookup({1: 7, 2: 9, 30: 0}, 25)
        known, unknown = [2, 1, 30, 1], [26, 10**9, 3]
        for keys in (known, unknown, known + unknown + known, []):
            assert lookup.map_batch(keys) == [lookup(key) for key in keys]
            assert map_keys(lookup, keys) == lookup.map_batch(keys)
        # A mapped value of 0 is an answer, not a miss; misses spread by modulus.
        assert lookup.map_batch([30, 26]) == [0, 1]
        # A plain callable has no batch form: one call per key.
        assert map_keys(lambda key: key + 1, [1, 2]) == [2, 3]

    def test_foreign_key_lookup_pickles_its_mapping_and_modulus_only(self):
        lookup = ForeignKeyLookup({1: 7}, 25)
        assert lookup.__getstate__() == ({1: 7}, 25)
        clone = pickle.loads(pickle.dumps(lookup))
        assert (clone.mapping, clone.modulus) == ({1: 7}, 25)
        assert clone.map_batch([1, 26]) == [7, 1]

    def test_q5_reference_answer_structure(self):
        dataset = generate_tpch(scale=0.002, seed=1)
        revenue = dataset.q5_reference_answer(region=0)
        assert all(dataset.region_of_nation(nation) == 0 for nation in revenue)
        assert all(value > 0 for value in revenue.values())

    def test_stream_distribution_change(self):
        dataset = generate_tpch(scale=0.002, seed=1)
        stream = TPCHStreamWorkload(
            dataset, tuples_per_interval=20_000, intervals=4, change_every=2, seed=1
        )
        snapshots = stream.take(4)
        assert len(snapshots) == 4
        def hot(snapshot, n=20):
            return set(sorted(snapshot, key=snapshot.get, reverse=True)[:n])
        # Before the change the hot sets are similar; across it they differ.
        stable = len(hot(snapshots[0]) & hot(snapshots[1]))
        across = len(hot(snapshots[1]) & hot(snapshots[2]))
        assert across <= stable

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_tpch(scale=0)
        dataset = generate_tpch(scale=0.001)
        with pytest.raises(ValueError):
            TPCHStreamWorkload(dataset, change_every=0)
        with pytest.raises(ValueError):
            TPCHStreamWorkload(dataset, change_fraction=2.0)
