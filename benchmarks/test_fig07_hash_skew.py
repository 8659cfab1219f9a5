"""Benchmark regenerating Fig. 7 of the paper.

Cdf of workload skewness under hash routing, varying n_d and k.

Expected shape (paper): skewness grows with the task count and shrinks with the key-domain size.
Run with ``pytest benchmarks/test_fig07_hash_skew.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig07_hash_skew(run_figure):
    result = run_figure(get_experiment("fig07").builder)
    assert len(result) > 0
