"""Benchmark regenerating Fig. 17 of the paper.

Mixed's migration cost vs the routing-table cap n_a.

Expected shape (paper): tight caps force MinTable-like behaviour; relaxing the cap drops migration sharply.
Run with ``pytest benchmarks/test_fig17_table_cap.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig17_table_cap(run_figure):
    result = run_figure(get_experiment("fig17").builder)
    assert len(result) > 0
