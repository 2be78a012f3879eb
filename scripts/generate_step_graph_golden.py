#!/usr/bin/env python
"""Regenerate the golden step-graph digests of both simulator engines.

Usage::

    PYTHONPATH=src python scripts/generate_step_graph_golden.py [OUT]

Writes ``tests/sim/golden_step_graphs.json`` (or ``OUT``): one SHA-256 per
case over every scheduled task of the simulated training step (name,
``float.hex`` start and end, sorted tags) and over the step report.  The
grid covers chain and DAG models (the paper's chains, the branching zoo
models and the transformer families), the H tree and the torus, uniform
dp/mp/pp, the one weird trick, a seeded random assignment and HyPar's
searched assignments, both engines, and a single accelerator.  The
golden test recomputes every case and compares the digests exactly, so
rerun this script only when a change to the simulated schedule is
intended, and say so in the commit message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Iterator

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.accelerator.array import ArrayConfig  # noqa: E402
from repro.core.baselines import (  # noqa: E402
    data_parallelism,
    model_parallelism,
    one_weird_trick,
    pipeline_parallelism,
    random_assignment,
)
from repro.interconnect import HTreeTopology, TorusTopology  # noqa: E402
from repro.nn.model_zoo import get_model  # noqa: E402
from repro.sim.api import SimulationSpec, simulate  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "sim",
    "golden_step_graphs.json",
)

MODELS = (
    "SFC",
    "SCONV",
    "Lenet-c",
    "Cifar-c",
    "AlexNet",
    "VGG-A",
    "VGG-E",
    "ResNet-S",
    "Inception-S",
    "gpt_s-4",
    "bert_s-4",
    "gpt_r-4",
)
#: ``(accelerators, topology)`` of every multi-accelerator platform.
PLATFORMS = ((4, "htree"), (16, "htree"), (16, "torus"))
#: Models also simulated on a single accelerator (a chain and a DAG).
SINGLE_ACCELERATOR_MODELS = ("Lenet-c", "ResNet-S")
#: Assignment label -> (strategy space, builder); ``None`` means searched.
ASSIGNMENTS = {
    "dp": ("dp,mp", data_parallelism),
    "mp": ("dp,mp", model_parallelism),
    "pp": ("dp,mp,pp", pipeline_parallelism),
    "trick": ("dp,mp", one_weird_trick),
    "random": ("dp,mp", lambda model, levels: random_assignment(model, levels, seed=7)),
    "hypar": ("dp,mp", None),
    "hypar-pp": ("dp,mp,pp", None),
}
ENGINES = ("analytic", "network")
BATCH_SIZE = 128


def _canonical(value):
    """JSON-ready form of a report or tag value, floats written exactly."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [[key, _canonical(item)] for key, item in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def result_digest(result) -> str:
    """SHA-256 over a simulation result's scheduled tasks and report."""
    payload = {
        "tasks": [
            [task.name, task.start.hex(), task.end.hex(), _canonical(task.tags)]
            for task in result.schedule.tasks
        ],
        "report": _canonical(dataclasses.asdict(result.report)),
    }
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def model_cases(model_name: str) -> Iterator[tuple[str, str]]:
    """``(case id, digest)`` of every case of one model, in grid order."""
    model = get_model(model_name)
    if model_name in SINGLE_ACCELERATOR_MODELS:
        spec = SimulationSpec(batch_size=BATCH_SIZE, array=ArrayConfig(num_accelerators=1))
        simulator = spec.build_simulator()
        for engine in ENGINES:
            result = simulate(model, None, spec, sim_engine=engine, simulator=simulator)
            yield f"{model_name}/n1/none/{engine}", result_digest(result)
    for num_accelerators, topology_name in PLATFORMS:
        array = ArrayConfig(num_accelerators=num_accelerators)
        topology_type = {"htree": HTreeTopology, "torus": TorusTopology}[topology_name]
        topology = topology_type(num_accelerators, array.link_bandwidth_bytes)
        simulators = {}
        for label, (strategies, build) in ASSIGNMENTS.items():
            spec = SimulationSpec(
                batch_size=BATCH_SIZE, array=array, topology=topology, strategies=strategies
            )
            if strategies not in simulators:
                simulators[strategies] = spec.build_simulator()
            simulator = simulators[strategies]
            assignment = None if build is None else build(model, array.num_levels)
            for engine in ENGINES:
                result = simulate(
                    model, assignment, spec, sim_engine=engine, simulator=simulator
                )
                case = f"{model_name}/n{num_accelerators}-{topology_name}/{label}/{engine}"
                yield case, result_digest(result)


def all_cases() -> dict[str, str]:
    """Every case id of the grid mapped to its digest."""
    return {case: digest for name in MODELS for case, digest in model_cases(name)}


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else GOLDEN_PATH
    cases = all_cases()
    with open(path, "w") as handle:
        json.dump(cases, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(cases)} step-graph digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
