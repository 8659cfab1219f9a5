"""Benchmark regenerating Fig. 14 of the paper.

Throughput on the social and stock surrogate workloads vs theta_max.

Expected shape (paper): Mixed leads on both workloads; PKG below Mixed on Social; Readj needs loose theta.
Run with ``pytest benchmarks/test_fig14_real_throughput.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig14_real_throughput(run_figure):
    result = run_figure(get_experiment("fig14").builder)
    assert len(result) > 0
