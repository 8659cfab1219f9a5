"""Benchmark regenerating Fig. 9 of the paper.

Plan-generation time and migration cost vs theta_max.

Expected shape (paper): both metrics fall as theta_max is relaxed; MinTable ~3x Mixed's migration at tight theta.
Run with ``pytest benchmarks/test_fig09_vary_theta.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig09_vary_theta(run_figure):
    result = run_figure(get_experiment("fig09").builder)
    assert len(result) > 0
