"""Benchmark regenerating Fig. 12 of the paper.

Planner comparison (mixed/mintable/readj/mixedbf) vs fluctuation rate f.

Expected shape (paper): Readj and MixedBF planning times explode with f; Mixed's migration grows slowest.
Run with ``pytest benchmarks/test_fig12_vary_fluct.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig12_vary_fluct(run_figure):
    result = run_figure(get_experiment("fig12").builder)
    assert len(result) > 0
