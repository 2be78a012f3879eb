"""Golden step graphs of both simulator engines.

``tests/sim/golden_step_graphs.json`` pins one SHA-256 per case over every
scheduled task (name, exact start and end, sorted tags) and the step
report, on the grid of ``scripts/generate_step_graph_golden.py``: chain
and DAG models, H tree and torus, dp/mp/pp/trick/random/HyPar
assignments, both engines and a single accelerator.  A refactor of the
step-graph walk must leave every digest unchanged; a mismatch names the
case.  Regenerate the file deliberately with
``python scripts/generate_step_graph_golden.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = os.path.join(_ROOT, "scripts", "generate_step_graph_golden.py")
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_step_graphs.json")


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_step_graph_golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID = _load_script()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("model_name", GRID.MODELS)
def test_step_graphs_match_golden(model_name, golden):
    computed = dict(GRID.model_cases(model_name))
    expected = {
        case: digest
        for case, digest in golden.items()
        if case.split("/", 1)[0] == model_name
    }
    assert computed.keys() == expected.keys()
    mismatched = sorted(case for case in computed if computed[case] != expected[case])
    assert not mismatched, f"step graphs changed: {mismatched}"


def test_golden_covers_the_whole_grid(golden):
    models = {case.split("/", 1)[0] for case in golden}
    assert models == set(GRID.MODELS)
    engines = {case.rsplit("/", 1)[1] for case in golden}
    assert engines == set(GRID.ENGINES)
    assert any("/n1/" in case for case in golden)
    assert any("-torus/" in case for case in golden)
