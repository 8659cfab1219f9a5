"""Shared helper for the runtime tests."""

import pytest

from repro.runtime import StageSpec, TopologyRuntime, TopologySpec


@pytest.fixture(scope="session")
def run_one_stage():
    """``run(logic, partitioner, config, stream)`` on real worker processes."""

    def run(logic, partitioner, config, stream, name="stage"):
        stage = StageSpec(name=name, logic=logic, partitioner=partitioner)
        result = TopologyRuntime(TopologySpec(name, [stage]), config).run(stream)
        return result.stages[name]

    return run
