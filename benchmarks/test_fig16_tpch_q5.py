"""Benchmark regenerating Fig. 16 of the paper.

Continuous tpc-h q5 pipeline throughput under periodic distribution change.

Expected shape (paper): Mixed sustains the best throughput and recovers fastest after each change.
Run with ``pytest benchmarks/test_fig16_tpch_q5.py --benchmark-only`` (set
``REPRO_BENCH_SCALE=small`` or ``paper`` for larger workloads).
"""

from repro.experiments import get_experiment


def test_fig16_tpch_q5(run_figure):
    result = run_figure(get_experiment("fig16").builder)
    assert len(result) > 0
