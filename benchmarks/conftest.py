"""Shared fixtures and helpers for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper's
evaluation (see DESIGN.md for the experiment index).  The benches are run
with::

    pytest benchmarks/ --benchmark-only

Each bench times the experiment with ``pytest-benchmark`` and *prints* the
regenerated rows/series in the same structure the paper reports, so the
output can be compared side by side with the original figures (recorded in
EXPERIMENTS.md).  Key reproduced values are also attached to
``benchmark.extra_info`` so they end up in the benchmark JSON.
"""

from __future__ import annotations

import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package; ``tests/properties`` for the reference
# compilers the benches time against (``cost_table_oracle``).
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests", "properties")):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)

from repro.accelerator.array import ArrayConfig  # noqa: E402
from repro.analysis.experiments import ExperimentRunner  # noqa: E402


def emit(title: str, text: str) -> None:
    """Print a regenerated figure with a recognisable banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{text}\n")


@pytest.fixture(scope="session")
def paper_runner():
    """The paper's configuration: sixteen accelerators, H tree, batch 256."""
    return ExperimentRunner()


@pytest.fixture(scope="session")
def paper_array():
    return ArrayConfig()


@pytest.fixture(scope="session")
def full_evaluation(paper_runner):
    """Figures 6-8 data over all ten networks, computed once per session."""
    return paper_runner.run()
