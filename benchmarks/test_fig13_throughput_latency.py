"""Benchmark regenerating Fig. 13 of the paper.

Simulated throughput and latency vs fluctuation rate f.

Expected shape (paper): Ideal bounds everything; Mixed tracks Ideal; Readj/Storm degrade with f.
Run with ``pytest benchmarks/test_fig13_throughput_latency.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig13_throughput_latency(run_figure):
    result = run_figure(get_experiment("fig13").builder)
    assert len(result) > 0
