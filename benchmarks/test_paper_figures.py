"""The paper's figures (Figs. 7–21), one case per registered experiment.

Each case computes its figure once through the session's figure cache at the
benchmark scale (``REPRO_BENCH_SCALE``: tiny | small | paper, default tiny),
timed by pytest-benchmark, prints the series and the verdict on each of the
figure's claims (``CLAIMS.md``), and fails when a claim does not hold.  One
figure: ``pytest benchmarks/test_paper_figures.py -k fig13 -s``.
"""

import pytest

from repro.experiments import ExperimentSpec, experiment_names, get_experiment


@pytest.mark.parametrize("fig_id", experiment_names())
def test_figure(fig_id, benchmark, bench_scale, figure_cache):
    spec = ExperimentSpec(fig_id, scale=bench_scale)
    result = benchmark.pedantic(
        lambda: figure_cache.run(spec).result, rounds=1, iterations=1
    )
    print()
    print(result.to_text())
    failing = []
    for claim in get_experiment(fig_id).claims:
        holds = claim.holds(result)
        print(f"claim {'holds' if holds else 'FAILS'}: {claim.text}")
        if not holds:
            failing.append(claim.text)
    assert not failing, f"{fig_id} at {bench_scale.name}: {failing}"
