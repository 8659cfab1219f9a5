"""Shared machinery for the benchmarks.

Every benchmark runs at the benchmark scale (``REPRO_BENCH_SCALE`` environment
variable, default ``tiny``) and prints its series, so the run doubles as a
reproduction report.  The figures (``test_paper_figures.py``) and the
ablations are macro-benchmarks, each executed once per run
(``benchmark.pedantic`` with a single round) rather than micro-benchmarked.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.config import get_scale

_BENCHMARKS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark every benchmark ``slow`` so CI can deselect the directory."""
    for item in items:
        if _BENCHMARKS_DIR in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def bench_scale():
    """Workload scale preset used by every benchmark."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "tiny"))


@pytest.fixture
def run_figure(benchmark, bench_scale):
    """Run an ablation driver once under pytest-benchmark and print its series."""

    def _run(driver, **kwargs):
        result = benchmark.pedantic(
            driver, args=(bench_scale,), kwargs=kwargs, rounds=1, iterations=1
        )
        print()
        print(result.to_text())
        return result

    return _run
