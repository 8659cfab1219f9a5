#!/usr/bin/env python3
"""Run the protocol static checker (``python -m repro lint``) from a checkout.

Thin wrapper that bootstraps ``src/`` onto ``sys.path`` so the checker runs
without an installed package, and runs it in the checkout's root, wherever it
is started from: the design rules (RPL008) check the repo at the working
directory, and relative paths are taken from that root::

    python scripts/lint_protocol.py                 # lint src/
    python scripts/lint_protocol.py --strict src    # the CI gate
    python scripts/lint_protocol.py --list-rules

All arguments are forwarded to the ``lint`` subcommand; see
``python -m repro lint --help``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main  # noqa: E402


if __name__ == "__main__":
    os.chdir(REPO_ROOT)
    sys.exit(main(["lint", *sys.argv[1:]]))
