"""Benchmark regenerating Fig. 21 of the paper.

Minmig migration cost vs the gamma weight beta.

Expected shape (paper): migration cost rises with beta as heavier (state-rich) keys are preferred.
Run with ``pytest benchmarks/test_fig21_beta_migration.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig21_beta_migration(run_figure):
    result = run_figure(get_experiment("fig21").builder)
    assert len(result) > 0
