"""Golden request keys and response bytes of the service.

``tests/service/golden_request_keys.json`` pins, for the grid of request
bodies in ``scripts/generate_request_key_golden.py``, the canonical
payload, ``cache_key()`` and ``coalesce_key()`` of every parsed request,
plus the SHA-256 of the response bytes of a handful of POSTs.  Stored
keys and cached responses outlive a process, so a refactor of request
canonicalization must leave every entry unchanged; a mismatch names the
body.  Regenerate the file deliberately with
``python scripts/generate_request_key_golden.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SCRIPT = os.path.join(_ROOT, "scripts", "generate_request_key_golden.py")
_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_request_keys.json")


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_request_key_golden", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRID = _load_script()


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("path", list(GRID.BODIES))
def test_request_keys_match_golden(path, golden):
    computed = GRID.request_cases(path)
    expected = golden["requests"][path]
    assert [case["body"] for case in computed] == [case["body"] for case in expected]
    changed = [
        json.dumps(case["body"], sort_keys=True)
        for case, pinned in zip(computed, expected)
        if case != pinned
    ]
    assert not changed, f"{path} request keys changed for: {changed}"


def test_response_bytes_match_golden(golden):
    computed = GRID.response_digests()
    changed = [
        f"{case['path']} {json.dumps(case['body'], sort_keys=True)}"
        for case, pinned in zip(computed, golden["responses"])
        if case != pinned
    ]
    assert len(computed) == len(golden["responses"])
    assert not changed, f"response bytes changed for: {changed}"


def test_golden_file_is_what_the_script_renders(golden):
    with open(_GOLDEN) as handle:
        assert handle.read() == GRID.render(golden)


def test_golden_covers_every_endpoint_and_spelling(golden):
    assert set(golden["requests"]) == {"/partition", "/simulate", "/replan", "/sweep"}
    simulate = golden["requests"]["/simulate"]
    assert {case["payload"]["topology"] for case in simulate} == {"htree", "torus"}
    assert {case["payload"].get("sim_engine", "analytic") for case in simulate} == {
        "analytic",
        "network",
    }
    assert any(case["body"]["model"] != case["payload"]["model"] for case in simulate)
    assert all(case["status"] == 200 for case in golden["responses"])
