"""Self-test of the benchmark harness (tier-1, a few seconds).

Drives every workload's code path at toy size through the very functions the
CLI calls (the CLI itself has no size flag), and pins the output schema to
``BENCHMARK.json`` and the contract it is written to.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from perf import run as perf_run
from perf.metrics import END_TO_END, PER_LAYER
from perf.quantiles import histogram_quantile_us
from perf.workloads import DEFAULT_SECONDS, WORKLOADS
from repro.runtime import LatencyHistogram

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def toy(name: str):
    """The named workload shrunk to a fraction of a second."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, num_keys=500, tuples_per_interval=2_000, intervals_per_second=4.0
    )


# -- quantiles -------------------------------------------------------------------------


def test_interpolated_quantiles_track_numpy_percentiles():
    rng = np.random.default_rng(7)
    samples = rng.lognormal(mean=9.5, sigma=0.6, size=50_000)  # ~13 ms median, in us
    histogram = LatencyHistogram()
    for value in samples:
        histogram.record(float(value))
    payload = histogram.to_dict()
    for q in (0.5, 0.9, 0.99):
        exact = float(np.percentile(samples, q * 100))
        assert histogram_quantile_us(payload, q) == pytest.approx(exact, rel=0.02)
    # The built-in quantile answers with a bucket edge: up to a growth factor off.
    assert histogram.p50_us >= histogram_quantile_us(payload, 0.5)


def test_quantile_resolves_a_shift_smaller_than_a_bucket():
    rng = np.random.default_rng(11)
    medians = {}
    for centre_ms in (76.0, 80.0):  # both inside the 70.065 .. 87.581 ms bucket
        samples = rng.normal(centre_ms, 10.0, size=20_000).clip(min=1.0) * 1000
        histogram = LatencyHistogram()
        for value in samples:
            histogram.record(float(value))
        medians[centre_ms] = (
            histogram.p50_us,
            histogram_quantile_us(histogram.to_dict(), 0.5),
            float(np.median(samples)),
        )
    (edge_a, ours_a, exact_a), (edge_b, ours_b, exact_b) = medians.values()
    assert edge_a == edge_b  # the built-in median cannot see a 5 % shift
    assert ours_b / ours_a == pytest.approx(exact_b / exact_a, rel=0.02)


def test_empty_histogram_is_an_error_not_a_zero():
    with pytest.raises(ValueError):
        histogram_quantile_us(LatencyHistogram().to_dict(), 0.5)


# -- inputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed_alone(name):
    workload = toy(name)
    first = workload.set_up(3, 4).inputs
    again = workload.set_up(3, 4).inputs
    other = workload.set_up(4, 4).inputs
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.probe_keys == again.probe_keys and first.probe_keys


# -- schema ----------------------------------------------------------------------------


def test_benchmark_json_repeats_the_registry_within_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["command"] == ["python3", "perf/run.py"]
    assert document["paths"] == ["perf"]
    assert document["run_seconds"] == DEFAULT_SECONDS
    assert document["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert document["end_to_end"] == [metric.entry() for metric in END_TO_END]
    assert document["per_layer"] == [metric.entry() for metric in PER_LAYER]

    assert len(WORKLOADS) == 4
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in WORKLOADS.values():
        assert "\n" not in workload.why and len(workload.why) <= 200
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for metric in END_TO_END:
        assert metric.bound is not None and 0 < metric.bound <= 0.25
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)
    assert all(metric.bound is None for metric in PER_LAYER)


# -- every workload's code path --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    report = perf_run.untraced(toy(name), seed=1, seconds=1.0)
    assert report["problems"] == [] and report["failed"] == 0
    assert report["attempted"] >= 1
    assert set(report["metrics"]) == {metric.name for metric in END_TO_END}
    # Applicable everywhere, so never zero.
    assert all(value > 0 for value in report["metrics"].values())


@pytest.mark.parametrize("name", ["diamond_open_ckpt", "planner_paper_scale"])
def test_traced_run_reports_every_per_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(perf_run, "OUT_DIR", str(tmp_path))
    report = perf_run.traced(toy(name), seed=1, seconds=1.0)
    assert report["problems"] == []
    assert {metric.name for metric in PER_LAYER} <= set(report["metrics"])
    tracer = report["tracer"]
    assert {span["workload"] for span in tracer.spans} == {name}
    assert all(span["end"] >= span["start"] for span in tracer.spans)
    path = perf_run.write_trace(name, 1, report)
    written = json.loads(Path(path).read_text(encoding="utf-8"))
    assert written[name]["spans"] and written[name]["budget"]
    runtime = name != "planner_paper_scale"
    assert (report["metrics"]["runtime.processes"] > 0) == runtime
    assert (report["metrics"]["analysis.sanitizer.checks"] > 0) == runtime


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    workload = toy("planner_paper_scale")
    # A table cap no plan can meet: every plan must count as failed.
    broken = dataclasses.replace(
        workload, tunables={**workload.tunables, "max_table_size": 0}
    )
    monkeypatch.setitem(WORKLOADS, workload.name, broken)
    status = perf_run.run_one(workload.name, seed=1, seconds=1.0, trace=False)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert line["correct"] is False and line["failed"] >= 1
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
