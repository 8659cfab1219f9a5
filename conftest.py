"""Pytest bootstrap: make ``src/`` importable (the repo runs from source, it is
not packaged), register the shared markers and hold the session's figure
cache, which ``tests/`` and ``benchmarks/`` share."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments import ExperimentSpec, run  # noqa: E402


class FigureCache:
    """Each resolved :class:`ExperimentSpec` run once per session.

    Two specs share an entry when they describe the same computation: the
    experiment, the resolved scale (a preset name or the preset itself, plus
    overrides), the seed and the merged driver parameters.  The first reader
    of a spec computes it — under the root, ``benchmarks/`` is collected
    before ``tests/``, so the figure benchmark is the one timed — and every
    later reader gets the same :class:`ExperimentRun`.
    """

    def __init__(self):
        self._runs = {}
        #: Computations per experiment name; every other read is a hit.
        self.computations = Counter()
        self.hits = 0

    @staticmethod
    def key(spec: ExperimentSpec):
        params = json.dumps(spec.driver_params(), sort_keys=True)
        return spec.experiment, spec.resolve_scale(), spec.seed, params

    def run(self, spec: ExperimentSpec):
        key = self.key(spec)
        if key in self._runs:
            self.hits += 1
        else:
            self.computations[spec.experiment] += 1
            self._runs[key] = run(spec)
        return self._runs[key]


_FIGURE_CACHE = pytest.StashKey[FigureCache]()


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running figure reproduction; deselected in CI with -m 'not slow'",
    )
    config.stash[_FIGURE_CACHE] = FigureCache()


@pytest.fixture(scope="session")
def figure_cache(pytestconfig):
    """The session's one :class:`FigureCache`."""
    return pytestconfig.stash[_FIGURE_CACHE]


def pytest_terminal_summary(terminalreporter, config):
    cache = config.stash[_FIGURE_CACHE]
    if cache.computations:
        counts = " ".join(f"{name}:{n}" for name, n in sorted(cache.computations.items()))
        terminalreporter.write_line(
            f"figure cache: {sum(cache.computations.values())} specs computed ({counts}), "
            f"{cache.hits} reads served from the cache"
        )
