"""Scale overrides (``repro run figNN --set beta=3``) reach the strategy builders.

The spy checks the parameters every rebalancing strategy of a figure is built
with, not the figure's rows (the golden test and the figure claims check
those), so each figure runs at a cut-down scale that builds the same
strategies as the full one in a fraction of its time.
"""

import pytest

from repro.core.strategy import StrategySpec
from repro.experiments import ExperimentSpec, experiment_names, run

#: The knobs a figure sweeps itself (an override of those is the figure's to ignore).
SWEPT = {
    "theta_max": {"fig09", "fig11", "fig14", "fig15", "fig16", "fig17", "fig18", "fig20", "fig21"},
    "beta": {"fig20", "fig21"},
}
OVERRIDES = {"beta": 3.0, "theta_max": 0.2}
#: Fewer keys, tuples and intervals than ``tiny``; the same strategy builds.
CUT_DOWN = {"num_keys": 200, "tuples_per_interval": 2_000, "intervals": 2, "sim_intervals": 2}


@pytest.mark.parametrize("fig_id", experiment_names())
def test_scale_overrides_reach_every_rebalancing_builder(fig_id, monkeypatch):
    received = []
    build = StrategySpec.build

    def spy(spec, num_tasks, **params):
        if spec.rebalancing:
            received.append((spec, params))
        return build(spec, num_tasks, **params)

    monkeypatch.setattr(StrategySpec, "build", spy)
    run(ExperimentSpec(fig_id, scale="tiny", overrides={**CUT_DOWN, **OVERRIDES}))
    for knob, value in OVERRIDES.items():
        if fig_id in SWEPT[knob]:
            continue
        for spec, params in received:
            assert params.get(knob) == value, (fig_id, spec.name, knob, params)
