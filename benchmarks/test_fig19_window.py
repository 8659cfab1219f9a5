"""Benchmark regenerating Fig. 19 of the paper.

Migration cost vs state window size w.

Expected shape (paper): larger windows offer cheaper migration candidates; Mixed stays below MinTable.
Run with ``pytest benchmarks/test_fig19_window.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig19_window(run_figure):
    result = run_figure(get_experiment("fig19").builder)
    assert len(result) > 0
