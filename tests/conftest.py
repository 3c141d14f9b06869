import os
from pathlib import Path

import numpy as np
import pytest

from qsiegel.quad import QuadratureSpec

# one line per acceptance criterion, filled by test_acceptance.py
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def spec():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def src_env():
    """The environment with this repository's src first on PYTHONPATH, for
    tests that start a Python child process: pytest's ``pythonpath``
    setting does not reach it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
