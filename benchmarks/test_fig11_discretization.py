"""Benchmark regenerating Fig. 11 of the paper.

Compact representation: planning time and load-estimation error vs degree r.

Expected shape (paper): an order-of-magnitude planning speed-up with sub-1% estimation error.
Run with ``pytest benchmarks/test_fig11_discretization.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig11_discretization(run_figure):
    result = run_figure(get_experiment("fig11").builder)
    assert len(result) > 0
