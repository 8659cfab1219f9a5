"""Benchmark regenerating Fig. 10 of the paper.

Plan-generation time and migration cost vs key-domain size k.

Expected shape (paper): planning time grows with K; Mixed's migration cost stays below MinTable's.
Run with ``pytest benchmarks/test_fig10_vary_keys.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig10_vary_keys(run_figure):
    result = run_figure(get_experiment("fig10").builder)
    assert len(result) > 0
