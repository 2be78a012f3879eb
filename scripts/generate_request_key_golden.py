#!/usr/bin/env python
"""Regenerate the golden request keys and response digests of the service.

Usage::

    PYTHONPATH=src python scripts/generate_request_key_golden.py [OUT]

Writes ``tests/service/golden_request_keys.json`` (or ``OUT``).  For a grid
of ``/partition``, ``/simulate``, ``/replan`` and ``/sweep`` bodies --
aliased and canonical spellings, omitted and explicit defaults, both
engines, both topologies, the analytic and a profiled cost model -- it
records the canonical payload, ``cache_key()`` and ``coalesce_key()`` of
the parsed request.  It also records the SHA-256 of the response bytes of
a handful of POSTs made through :meth:`HyParService.handle`.  The golden
test recomputes everything and compares exactly: the response cache and
every client that stored a key depend on these values, so rerun this
script only when a key change is intended, and say so in the commit
message.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.service.app import HyParService  # noqa: E402
from repro.service.schemas import (  # noqa: E402
    PartitionRequest,
    ReplanRequest,
    SimulateRequest,
    SweepRequest,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "service",
    "golden_request_keys.json",
)

PROFILED = "profiled:slow-interconnect"

SCHEMAS = {
    "/partition": PartitionRequest,
    "/simulate": SimulateRequest,
    "/replan": ReplanRequest,
    "/sweep": SweepRequest,
}


def _grid(base: dict, axes: dict) -> list[dict]:
    """``base`` extended by every combination of ``axes``.

    Each axis lists the values to try; ``None`` leaves the field out of
    the body, so omitted and explicit defaults both appear.
    """
    bodies = []
    for values in itertools.product(*axes.values()):
        body = dict(base)
        for name, value in zip(axes, values):
            if value is not None:
                body[name] = value
        bodies.append(body)
    return bodies


def _variants(bases: list[dict], axes: dict) -> list[dict]:
    """Every base, then every base with one field of ``axes`` set."""
    bodies = list(bases)
    for base in bases:
        for name, values in axes.items():
            bodies += [{**base, name: value} for value in values]
    return bodies


def partition_bodies() -> list[dict]:
    return _variants(
        _grid(
            {},
            {
                "model": ("VGG-A", "vgg_a", "GPT_S-4"),
                "num_accelerators": (None, 16, 2),
            },
        ),
        {
            "batch_size": (256, 64),
            "scaling_mode": ("PARALLELISM_AWARE", " Uniform ", "none"),
            "strategies": ("dp,mp", "dp,mp,pp", "mp,dp", " dp , mp "),
            "backend": ("numpy", "compiled", "compiled-parallel"),
            "cost_model": ("analytic", "  ", PROFILED, " profiled: fp16-precision "),
        },
    )


def simulate_bodies() -> list[dict]:
    return _variants(
        _grid(
            {},
            {
                "model": ("SFC", "alexnet"),
                "num_accelerators": (None, 1, 4),
                "sim_engine": (None, "analytic", "Network", " network "),
            },
        ),
        {
            "batch_size": (256, 64),
            "topology": ("htree", "Torus", " HTREE "),
            "scaling_mode": ("none",),
            "strategies": ("dp,mp,pp",),
            "cost_model": (PROFILED,),
        },
    )


def replan_bodies() -> list[dict]:
    trace = [
        {"t": 1.0, "event": "leave", "nodes": [3]},
        {"t": 2.5, "event": "join", "nodes": [3]},
    ]
    return _variants(
        [
            {"model": "lenet_c", "preset": "spot"},
            {"model": "Lenet-c", "preset": "rack", "num_nodes": 8, "seed": 3, "num_events": 4},
            {"model": "SFC", "trace": trace, "num_nodes": 4},
            {"model": "sfc", "trace": trace, "num_nodes": 4, "horizon": 10},
        ],
        {
            "batch_size": (256, 64),
            "policy": ("every-event", "hysteresis"),
            "topology": ("htree", "Torus"),
            "scaling_mode": ("UNIFORM",),
            "strategies": ("dp,mp", "dp,mp,pp"),
            "horizon_steps": (100,),
            "cost_model": ("analytic", PROFILED),
        },
    )


def sweep_bodies() -> list[dict]:
    specs = _variants(
        [
            {"name": "mine", "models": ["VGG-A"]},
            {"name": "mine", "models": ["vgg_a", "lenet_c"], "batch_sizes": [64, 256]},
        ],
        {
            "array_sizes": ([1, 4, 16],),
            "topologies": (["htree", "torus"],),
            "scaling_modes": (["UNIFORM", "parallelism-aware"],),
            "strategy_spaces": (["dp,mp", "dp,mp,pp"],),
            "cost_models": (["analytic", PROFILED],),
            "sim_engines": (["analytic", "network"],),
        },
    )
    return [{"preset": name} for name in ("fig6", "fig12", "batch", "smoke")] + [
        {"spec": spec} for spec in specs
    ]


BODIES = {
    "/partition": partition_bodies,
    "/simulate": simulate_bodies,
    "/replan": replan_bodies,
    "/sweep": sweep_bodies,
}

#: Cheap POSTs whose response bytes are pinned, in request order.
RESPONSES = (
    ("/partition", {"model": "lenet_c", "batch_size": 64, "num_accelerators": 4}),
    ("/partition", {"model": "SFC", "batch_size": 64, "num_accelerators": 2, "cost_model": PROFILED}),
    ("/partition", {"model": "ResNet-S", "batch_size": 64, "num_accelerators": 4, "strategies": "dp,mp,pp"}),
    ("/simulate", {"model": "SFC", "batch_size": 64, "num_accelerators": 4}),
    ("/simulate", {"model": "lenet_c", "batch_size": 64, "num_accelerators": 4, "topology": "Torus", "sim_engine": "Network"}),
    ("/simulate", {"model": "Lenet-c", "batch_size": 64, "num_accelerators": 1}),
    ("/simulate", {"model": "Cifar-c", "batch_size": 32, "num_accelerators": 4, "scaling_mode": "uniform", "cost_model": PROFILED}),
    ("/sweep", {"spec": {"name": "tiny", "models": ["sfc"], "batch_sizes": [64], "array_sizes": [1, 4]}}),
    ("/sweep", {"spec": {"name": "engines", "models": ["Lenet-c"], "batch_sizes": [64], "array_sizes": [4], "sim_engines": ["analytic", "network"]}}),
    ("/replan", {"model": "Lenet-c", "batch_size": 64, "preset": "spot", "num_nodes": 4, "num_events": 3, "seed": 1}),
    ("/replan", {"model": "SFC", "batch_size": 64, "num_nodes": 4, "policy": "hysteresis", "trace": [{"t": 1.0, "event": "leave", "nodes": [1]}, {"t": 2.0, "event": "join", "nodes": [1]}]}),
)


def request_cases(path: str) -> list[dict]:
    """Canonical payload, cache key and coalesce key of every body of ``path``."""
    schema = SCHEMAS[path]
    cases = []
    for body in BODIES[path]():
        request = schema.from_payload(body)
        cases.append(
            {
                "body": body,
                "payload": request.canonical_payload(),
                "cache_key": request.cache_key(),
                "coalesce_key": list(request.coalesce_key()),
            }
        )
    # One JSON round trip so computed cases compare equal to loaded ones.
    return json.loads(json.dumps(cases))


def response_digests() -> list[dict]:
    """SHA-256 of the response bytes of every :data:`RESPONSES` POST."""
    digests = []
    with HyParService(cache_size=len(RESPONSES)) as service:
        for path, body in RESPONSES:
            status, response = service.handle("POST", path, json.dumps(body).encode())
            digests.append(
                {
                    "path": path,
                    "body": body,
                    "status": status,
                    "sha256": hashlib.sha256(response).hexdigest(),
                }
            )
    return json.loads(json.dumps(digests))


def all_cases() -> dict:
    return {
        "requests": {path: request_cases(path) for path in BODIES},
        "responses": response_digests(),
    }


def render(cases: dict) -> str:
    """The golden file's text: one case per line, keys sorted."""

    def line(case: dict) -> str:
        return json.dumps(case, sort_keys=True, separators=(",", ":"))

    sections = [
        f'  "{path}": [\n' + ",\n".join(f"   {line(case)}" for case in entries) + "\n  ]"
        for path, entries in cases["requests"].items()
    ]
    responses = ",\n".join(f"  {line(case)}" for case in cases["responses"])
    return (
        '{\n "requests": {\n'
        + ",\n".join(sections)
        + '\n },\n "responses": [\n'
        + responses
        + "\n ]\n}\n"
    )


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else GOLDEN_PATH
    cases = all_cases()
    with open(path, "w") as handle:
        handle.write(render(cases))
    count = sum(len(entries) for entries in cases["requests"].values())
    print(f"wrote {count} request keys and {len(cases['responses'])} response digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
