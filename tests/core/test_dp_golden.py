"""Golden results of the partition dynamic program.

``tests/core/golden_dp.json`` pins, on the grid of
``scripts/generate_dp_golden.py``, every per-level table a 16-accelerator
hierarchical search solves (the zoo, the transformer families at four
depths, two strategy spaces, the analytic model and a profiled pack) and
50 seeded random DAG tables: memoized and cold ``dp_partition`` totals
and codes, the layers filled by periodic jumps, plain and pruned
exhaustive optima, and warm-started 16 -> 8 -> 16 accelerator sequences.
A refactor of the search must leave every record unchanged; a mismatch
names the case.  Regenerate the file deliberately with
``python scripts/generate_dp_golden.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = os.path.join(_ROOT, "scripts", "generate_dp_golden.py")
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_dp.json")


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_dp_golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID = _load_script()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


def _mismatches(computed: dict, expected: dict) -> list[str]:
    assert computed.keys() == expected.keys()
    # A JSON round trip turns the computed tuples into the golden's lists.
    computed = json.loads(json.dumps(computed))
    return sorted(case for case in computed if computed[case] != expected[case])


@pytest.mark.parametrize("model_name", GRID.MODELS)
def test_model_searches_match_golden(model_name, golden):
    computed = dict(GRID.model_cases(model_name))
    expected = {
        case: record
        for case, record in golden["models"].items()
        if case.split("/", 1)[0] == model_name
    }
    assert not _mismatches(computed, expected), f"DP results changed for {model_name}"


def test_random_dag_tables_match_golden(golden):
    mismatched = _mismatches(dict(GRID.random_dag_cases()), golden["random_dags"])
    assert not mismatched, f"DP results changed: {mismatched}"


def test_golden_exercises_every_path(golden):
    """The grid keeps chains, DAGs, both jumps and both exhaustive scans."""
    records = [level for case in golden["models"].values() for level in case["levels"]]
    records += list(golden["random_dags"].values())
    chain_jumps = [r["jumped"] for r in records if isinstance(r["jumped"], int)]
    dag_jumps = [r["jumped"]["jumps"] for r in records if isinstance(r["jumped"], dict)]
    assert any(chain_jumps) and not all(chain_jumps)
    assert any(dag_jumps) and not all(dag_jumps)
    assert sum("exhaustive" in r for r in records) >= 100
    assert {case.split("/")[1] for case in golden["models"]} == set(GRID.SPACES)
