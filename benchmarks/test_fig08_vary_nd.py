"""Benchmark regenerating Fig. 8 of the paper.

Plan-generation time and migration cost vs number of task instances.

Expected shape (paper): Mixed pays slightly more planning time than MinTable but far less migration.
Run with ``pytest benchmarks/test_fig08_vary_nd.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig08_vary_nd(run_figure):
    result = run_figure(get_experiment("fig08").builder)
    assert len(result) > 0
