"""Golden comparison: the spec-based figure drivers reproduce the pre-refactor
output row for row.

The JSON files under ``golden/`` were captured from the hand-written drivers
(as of the PR that introduced the ExperimentSpec runner) at the ``tiny``
scale.  Every figure must produce the same rows, in the same order, with the
same values — except wall-clock timing columns, which are inherently
non-deterministic and are excluded from the comparison.  Golden files store
columns alphabetically (``sort_keys``), so column *sets* are compared rather
than column order.

The same ``tiny`` run, read from the session's figure cache (the one the
figure benchmarks print), must also satisfy each of its figure's claims.
"""

import json
import math
from pathlib import Path

import pytest

from repro.experiments import ExperimentSpec, experiment_names, get_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
CLAIMS_MD = Path(__file__).resolve().parents[2] / "CLAIMS.md"

#: Wall-clock measurements: real on every run, but never reproducible.
TIMING_COLUMNS = {"avg_generation_time_ms"}

#: Figures cheap enough to golden-check in the fast CI subset; the rest of
#: the suite (simulations, brute-force planners) runs with the slow marker.
FAST_FIGURES = {"fig07", "fig08", "fig10", "fig17", "fig18", "fig19", "fig20", "fig21"}

ALL_PARAMS = [
    pytest.param(fig_id, marks=() if fig_id in FAST_FIGURES else pytest.mark.slow)
    for fig_id in experiment_names()
]


def _strip_timing(rows):
    return [
        {key: value for key, value in row.items() if key not in TIMING_COLUMNS}
        for row in rows
    ]


def _values_match(expected, actual) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        expected_f, actual_f = float(expected), float(actual)
        if math.isnan(expected_f) or math.isnan(actual_f):
            return math.isnan(expected_f) and math.isnan(actual_f)
        return math.isclose(expected_f, actual_f, rel_tol=1e-9, abs_tol=1e-12)
    return expected == actual


def _tiny(fig_id, figure_cache):
    return figure_cache.run(ExperimentSpec(fig_id, scale="tiny")).result


@pytest.mark.parametrize("fig_id", ALL_PARAMS)
def test_figure_matches_golden(fig_id, figure_cache):
    golden = json.loads((GOLDEN_DIR / f"{fig_id}.json").read_text())
    result = _tiny(fig_id, figure_cache)

    assert result.figure == golden["figure"]
    assert result.title == golden["title"]
    assert result.parameters == golden["parameters"]

    expected_rows = _strip_timing(golden["rows"])
    actual_rows = _strip_timing(result.rows)
    assert len(actual_rows) == len(expected_rows), (
        f"{fig_id}: {len(actual_rows)} rows, golden has {len(expected_rows)}"
    )
    for index, (expected, actual) in enumerate(zip(expected_rows, actual_rows)):
        assert set(actual) == set(expected), f"{fig_id} row {index}: column mismatch"
        for column in expected:
            assert _values_match(expected[column], actual[column]), (
                f"{fig_id} row {index} column {column!r}: "
                f"golden {expected[column]!r} != actual {actual[column]!r}"
            )


@pytest.mark.parametrize("fig_id", ALL_PARAMS)
def test_claims_hold_at_tiny(fig_id, figure_cache):
    result = _tiny(fig_id, figure_cache)
    claims = get_experiment(fig_id).claims
    assert claims, f"{fig_id} has no claim"
    failing = [claim.text for claim in claims if not claim.holds(result)]
    assert not failing, f"{fig_id}: {failing}"


def test_every_figure_has_a_golden():
    missing = [
        fig_id
        for fig_id in experiment_names()
        if not (GOLDEN_DIR / f"{fig_id}.json").is_file()
    ]
    assert not missing, f"golden files missing for: {missing}"


def test_claims_md_lists_every_claim():
    table = CLAIMS_MD.read_text()
    missing = [
        (fig_id, claim.text)
        for fig_id in experiment_names()
        for claim in get_experiment(fig_id).claims
        if f"| {int(fig_id[3:])} | {claim.text} |" not in table
    ]
    assert not missing, f"CLAIMS.md does not list: {missing}"
