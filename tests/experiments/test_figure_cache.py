"""The session's figure cache (root ``conftest.py``): one computation per spec.

Two specs share an entry exactly when they describe the same computation, so
the figure benchmarks, the golden test and the claim checks read one run.
"""

import pytest

from repro.experiments import ExperimentResult, ExperimentSpec, experiment_names, get_scale
from repro.experiments.specs import _EXPERIMENTS, ExperimentDefinition


def test_the_benchmark_and_the_golden_test_read_one_entry(figure_cache):
    # benchmarks/test_paper_figures.py passes get_scale(REPRO_BENCH_SCALE), the
    # golden test the preset's name: at tiny the printed rows are the compared ones.
    for fig_id in experiment_names():
        assert figure_cache.key(ExperimentSpec(fig_id, scale=get_scale("tiny"))) == (
            figure_cache.key(ExperimentSpec(fig_id, scale="tiny"))
        )


def test_equal_specs_share_an_entry(figure_cache):
    key = figure_cache.key(ExperimentSpec("fig09", scale="tiny", sweep={"thetas": [0.02]}))
    for same in (
        ExperimentSpec("fig09", scale=get_scale("tiny"), sweep={"thetas": [0.02]}),
        ExperimentSpec("fig09", scale="tiny", seed=0, params={"thetas": (0.02,)}),
        ExperimentSpec("fig09", scale="tiny", sweep={"thetas": [0.02]}, overrides={"beta": 1.5}),
    ):
        assert figure_cache.key(same) == key


@pytest.mark.parametrize(
    "change",
    [{"overrides": {"beta": 3.0}}, {"seed": 1}, {"params": {"windows": [1]}}],
    ids=["overrides", "seed", "params"],
)
def test_a_different_spec_gets_its_own_entry(figure_cache, change):
    assert figure_cache.key(ExperimentSpec("fig09", scale="tiny", **change)) != (
        figure_cache.key(ExperimentSpec("fig09", scale="tiny"))
    )


def test_each_entry_is_computed_once(figure_cache, monkeypatch):
    calls = []

    def probe(scale, *, seed=0, **params):
        calls.append((scale, seed, params))
        return ExperimentResult(figure="probe", title="probe")

    monkeypatch.setitem(_EXPERIMENTS, "probe", ExperimentDefinition("probe", probe))
    cache = type(figure_cache)()  # a fresh cache keeps the session's counts the figures'
    first = cache.run(ExperimentSpec("probe", scale="tiny"))
    assert cache.run(ExperimentSpec("probe", scale=get_scale("tiny"), seed=0)) is first
    for change in ({"overrides": {"beta": 3.0}}, {"seed": 1}, {"params": {"x": 1}}):
        cache.run(ExperimentSpec("probe", scale="tiny", **change))
    assert len(calls) == cache.computations["probe"] == 4
    assert cache.hits == 1
