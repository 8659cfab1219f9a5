"""Benchmark regenerating Fig. 20 of the paper.

Minmig routing-table size vs the gamma weight beta.

Expected shape (paper): larger beta prefers heavy keys, so the table shrinks and stabilises for beta>=1.5.
Run with ``pytest benchmarks/test_fig20_beta_table.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig20_beta_table(run_figure):
    result = run_figure(get_experiment("fig20").builder)
    assert len(result) > 0
