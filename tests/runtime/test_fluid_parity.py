"""Fluid-simulator vs process-runtime parity on strategy ordering.

The two engines measure different things (modelled load vs wall clock), but
for a fig07-style skew sweep they must agree on the *ordering* of strategies:
under heavy Zipf skew the mixed controller loses less throughput than static
hashing in the fluid model, and it must also sustain higher measured
throughput on the real worker processes; under near-uniform load the two
strategies are equivalent in both engines.
"""

import numpy as np
import pytest

from repro.baselines import HashPartitioner
from repro.core.strategy import get_strategy
from repro.engine import PipelineSimulator, SimulationConfig
from repro.experiments.harness import run_simulation
from repro.operators import build_q5_topology
from repro.operators.wordcount import WordCountOperator
from repro.runtime import RuntimeConfig, TopologyRuntime
from repro.runtime.bench import _expand_snapshots
from repro.workloads import TPCHStreamWorkload, generate_tpch
from repro.workloads.zipf import ZipfWorkload

PARALLELISM = 4
NUM_KEYS = 500
TUPLES = 8_000
INTERVALS = 4
STRATEGIES = ("storm", "mixed")


def _snapshots(skew):
    return ZipfWorkload(
        num_keys=NUM_KEYS,
        skew=skew,
        tuples_per_interval=TUPLES,
        fluctuation=0.1,
        num_tasks=PARALLELISM,
        intervals=INTERVALS,
        seed=3,
    ).take(INTERVALS)


def _fluid_loss(strategy, snapshots):
    """Throughput loss fraction in the fluid simulator (capacity ~ saturation)."""
    collector = run_simulation(
        strategy,
        snapshots,
        WordCountOperator(emit_updates=False),
        num_tasks=PARALLELISM,
        theta_max=0.08,
        max_table_size=200,
        capacity_factor=1.05,
        seed=0,
    )
    offered = sum(collector.series("offered_tuples"))
    processed = sum(collector.series("processed_tuples"))
    return 1.0 - processed / offered


def _runtime_throughput(run_one_stage, strategy, snapshots):
    """Measured tuples/sec on live worker processes (paced service)."""
    partitioner = get_strategy(strategy).build(
        PARALLELISM, theta_max=0.08, max_table_size=200, window=1, seed=0
    )
    result = run_one_stage(
        WordCountOperator(emit_updates=False),
        partitioner,
        RuntimeConfig(batch_size=128, queue_capacity=2, service_time_us=40.0),
        _expand_snapshots(snapshots, np.random.default_rng(7)),
    )
    assert result.tuples_processed == result.tuples_offered
    return result.tuples_per_second


class TestSkewSweepOrderingParity:
    @pytest.fixture(scope="class")
    def measurements(self, run_one_stage):
        rows = {}
        for skew in (0.1, 1.2):
            snapshots = _snapshots(skew)
            rows[skew] = {
                name: (
                    _fluid_loss(name, snapshots),
                    _runtime_throughput(run_one_stage, name, snapshots),
                )
                for name in STRATEGIES
            }
        return rows

    def test_fluid_prefers_mixed_under_heavy_skew(self, measurements):
        losses = {name: loss for name, (loss, _) in measurements[1.2].items()}
        assert losses["storm"] > 0.05  # hashing visibly saturates a task
        assert losses["mixed"] < losses["storm"]

    def test_runtime_ordering_matches_fluid_under_heavy_skew(self, measurements):
        skewed = measurements[1.2]
        by_fluid = sorted(STRATEGIES, key=lambda name: skewed[name][0])
        by_runtime = sorted(STRATEGIES, key=lambda name: -skewed[name][1])
        assert by_fluid == by_runtime == ["mixed", "storm"]
        # The measured gap must be material, not a timing accident.
        assert skewed["mixed"][1] > skewed["storm"][1] * 1.05

    def test_both_engines_see_no_material_gap_under_uniform_load(self, measurements):
        uniform = measurements[0.1]
        assert uniform["storm"][0] == pytest.approx(0.0, abs=0.02)
        assert uniform["mixed"][0] == pytest.approx(0.0, abs=0.02)
        fast = max(throughput for _, throughput in uniform.values())
        slow = min(throughput for _, throughput in uniform.values())
        assert slow > fast * 0.75

    def test_runtime_throughput_degrades_with_skew_for_hashing(self, measurements):
        # The fig07 shape, measured: static hashing slows down as z grows.
        assert measurements[1.2]["storm"][1] < measurements[0.1]["storm"][1] * 0.9


class TestOneSpecBothEngines:
    def test_one_q5_spec_is_simulated_and_executed(self):
        """The same ``TopologySpec`` object feeds both engines.

        Hash routing keeps no learned state, so the partitioners the fluid
        run used are as good as fresh ones for the process run.
        """
        dataset = generate_tpch(scale=0.001, seed=0)
        topology = build_q5_topology(
            dataset,
            lambda stage, tasks: HashPartitioner(tasks, seed=0),
            parallelism=2,
            window=2,
        )
        intervals = 3
        snapshots = TPCHStreamWorkload(
            dataset, tuples_per_interval=2_000, intervals=intervals, seed=0
        ).take(intervals)
        stream = _expand_snapshots(snapshots, np.random.default_rng(7), value=1.0)
        total = sum(len(tuples) for tuples in stream)

        simulated = PipelineSimulator(
            topology, SimulationConfig(capacity_factor=2.0)
        ).run(snapshots)
        executed = TopologyRuntime(
            topology, RuntimeConfig(batch_size=128, service_time_us=0.0)
        ).run(stream)

        assert list(simulated.stages) == list(executed.stages) == topology.stage_names()
        # With capacity to spare neither engine sheds, and the foreign-key
        # re-keying conserves tuples: every stage sees the whole stream.
        assert executed.tuples_processed == executed.tuples_offered == total
        for name in topology.stage_names():
            assert executed.stages[name].tuples_offered == total
            assert sum(simulated.stages[name].series("offered_tuples")) == (
                pytest.approx(total, rel=0.01)
            )
        assert sum(simulated.pipeline.series("processed_tuples")) == (
            pytest.approx(total, rel=0.01)
        )
