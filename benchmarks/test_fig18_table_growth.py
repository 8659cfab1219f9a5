"""Benchmark regenerating Fig. 18 of the paper.

Minmig routing-table growth along successive adjustments.

Expected shape (paper): the table grows monotonically towards (N_D-1)/N_D * K entries.
Run with ``pytest benchmarks/test_fig18_table_growth.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig18_table_growth(run_figure):
    result = run_figure(get_experiment("fig18").builder)
    assert len(result) > 0
