"""Benchmark regenerating Fig. 15 of the paper.

Throughput over time while one task instance is added.

Expected shape (paper): Mixed re-balances onto the new instance within one planning round.
Run with ``pytest benchmarks/test_fig15_scale_out.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig15_scale_out(run_figure):
    result = run_figure(get_experiment("fig15").builder)
    assert len(result) > 0
