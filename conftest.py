"""Pytest bootstrap: make ``src/`` importable (the repo runs from source, it is
not packaged) and register the shared markers."""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running figure reproduction; deselected in CI with -m 'not slow'",
    )
