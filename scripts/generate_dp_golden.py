#!/usr/bin/env python
"""Regenerate the golden results of the partition dynamic program.

Usage::

    PYTHONPATH=src python scripts/generate_dp_golden.py [OUT]

Writes ``tests/core/golden_dp.json`` (or ``OUT``).  Every per-level table a
16-accelerator ``HierarchicalPartitioner.partition`` solves is recorded for
the paper's chains, the branching zoo models and the transformer families
at several depths, under ``dp,mp`` and ``dp,mp,pp``, with the analytic cost
model and one profiled pack; so are 50 seeded random DAG tables.  Per
table the record holds:

* ``memoized`` / ``cold``: the ``float.hex`` total and the per-layer
  strategy codes of ``dp_partition()`` and ``dp_partition(memoize=False)``
  (codes are written verbatim up to 64 layers, as a SHA-256 above that);
* ``jumped``: the layers a fresh memoized solve filled by periodic jumps
  (``WarmStartDP.memoized_layers`` on chains, the ``DAG_JUMP_STATS``
  delta on DAGs);
* ``exhaustive``: on spaces of at most ``2**20`` assignments, the plain
  and the pruned ``argmin_assignment`` (the pruned scan is seeded with the
  DP total as its upper bound).

Each model configuration also records a ``HierarchicalWarmStart``
sequence across 16, 8 and 16 accelerators: every result and the
``stats()`` after every solve.  The golden test recomputes every case and
compares exactly, so rerun this script only when a change to a search
result is intended, and say so in the commit message.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Iterator

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.core import costs  # noqa: E402
from repro.core.costmodel import resolve_cost_model  # noqa: E402
from repro.core.costs import CostTable, WarmStartDP  # noqa: E402
from repro.core.hierarchical import (  # noqa: E402
    HierarchicalPartitioner,
    HierarchicalWarmStart,
)
from repro.core.tensors import LayerTensors  # noqa: E402
from repro.nn.model_zoo import GRAPH_MODEL_BUILDERS, MODEL_BUILDERS, get_model  # noqa: E402

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests",
    "core",
    "golden_dp.json",
)

MODELS = (
    *MODEL_BUILDERS,
    *GRAPH_MODEL_BUILDERS,
    *(f"{family}-{depth}" for family in ("gpt_s", "bert_s", "gpt_r") for depth in (4, 16, 64, 256)),
)
SPACES = ("dp,mp", "dp,mp,pp")
COST_MODELS = ("analytic", "profiled:slow-interconnect")
BATCH_SIZE = 256
NUM_LEVELS = 4
#: Accelerator-array depths of the warm-start sequence: 16 -> 8 -> 16.
WARM_LEVELS = (4, 3, 4)
#: Largest assignment space the exhaustive entries enumerate.
MAX_EXHAUSTIVE = 1 << 20
#: Per-layer codes longer than this are recorded as a SHA-256.
MAX_VERBATIM_LAYERS = 64
NUM_RANDOM_DAGS = 50


def codes_text(assignment, strategies) -> str:
    """The per-layer strategy codes, verbatim or hashed when long."""
    text = "".join(str(strategies.code_of(choice)) for choice in assignment)
    if len(text) > MAX_VERBATIM_LAYERS:
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()
    return text


def table_record(table: CostTable) -> dict:
    """Every DP and exhaustive result of one table."""
    before = dict(costs.DAG_JUMP_STATS)
    memoized = table.dp_partition()
    after = dict(costs.DAG_JUMP_STATS)
    cold = table.dp_partition(memoize=False)
    if table.is_chain:
        solver = WarmStartDP()
        solver.solve(table)
        jumped = solver.memoized_layers
    else:
        jumped = {key: after[key] - before[key] for key in sorted(after)}
    record = {
        "layers": table.num_layers,
        "memoized": [
            memoized.communication_bytes.hex(),
            codes_text(memoized.assignment, table.strategies),
        ],
        "cold": [
            cold.communication_bytes.hex(),
            codes_text(cold.assignment, table.strategies),
        ],
        "jumped": jumped,
    }
    if table.num_assignments <= MAX_EXHAUSTIVE:
        plain = table.argmin_assignment()
        pruned = table.argmin_assignment(
            prune=True, upper_bound=memoized.communication_bytes
        )
        record["exhaustive"] = {
            "plain": [plain[0], plain[1].hex()],
            "pruned": [pruned[0], pruned[1].hex()],
        }
    return record


def hierarchical_record(result, strategies) -> dict:
    return {
        "total": result.total_communication_bytes.hex(),
        "levels": [
            [level.communication_bytes.hex(), codes_text(level.assignment, strategies)]
            for level in result.levels
        ],
    }


def model_cases(model_name: str) -> Iterator[tuple[str, dict]]:
    """``(case id, record)`` of every configuration of one model."""
    model = get_model(model_name)
    for strategies in SPACES:
        for cost_model in COST_MODELS:
            communication_model = resolve_cost_model(cost_model).communication_model()
            partitioner = HierarchicalPartitioner(
                NUM_LEVELS, communication_model=communication_model, strategies=strategies
            )
            table = partitioner.compile_table(model, BATCH_SIZE)
            result = partitioner.partition(model, BATCH_SIZE, table=table)
            states = table.state_indices(result.assignment)
            levels = [
                table_record(table.level_cost_table(level, states[level]))
                for level in range(NUM_LEVELS)
            ]
            warm = HierarchicalWarmStart()
            sequence = []
            for num_levels in WARM_LEVELS:
                solved = HierarchicalPartitioner(
                    num_levels, communication_model=communication_model, strategies=strategies
                ).partition(model, BATCH_SIZE, warm=warm)
                sequence.append(
                    {
                        **hierarchical_record(solved, partitioner.strategies),
                        "stats": warm.stats(),
                    }
                )
            yield f"{model_name}/{strategies}/{cost_model}", {
                "levels": levels,
                "warm": sequence,
            }


def _layer(index: int, feature_in: float, feature_out: float, weight: float) -> LayerTensors:
    return LayerTensors(
        layer_index=index,
        layer_name=f"layer{index}",
        is_conv=False,
        feature_in=feature_in,
        feature_out=feature_out,
        weight=weight,
        macs=weight,
    )


def random_dag(seed: int) -> tuple[list[LayerTensors], list[tuple[int, int]], str]:
    """``(tensors, edges, strategies)`` of one seeded random DAG table.

    Even seeds search ``dp,mp`` and odd seeds ``dp,mp,pp``; every fourth
    seed carries non-integer amounts.  The first 35 seeds are small DAGs
    (a chain plus up to three skip edges) whose whole space is
    enumerable.  The last 15 are periodic residual stacks deep enough for
    the repeated-segment jump: a stem, identical blocks with one skip
    each, and a head.
    """
    rng = np.random.default_rng(seed)
    strategies = SPACES[seed % 2]

    def amount() -> float:
        if seed % 4 == 3:
            return float(rng.uniform(1.0, 1 << 24))
        return float(rng.integers(1, 1 << 24))

    if seed < 35:
        count = int(rng.integers(3, 13))
        tensors = [_layer(index, amount(), amount(), amount()) for index in range(count)]
        edges = [(index, index + 1) for index in range(count - 1)]
        for _ in range(int(rng.integers(0, 4))):
            source = int(rng.integers(0, count - 2))
            destination = int(rng.integers(source + 2, count))
            if (source, destination) not in edges:
                edges.append((source, destination))
        return tensors, edges, strategies
    block_len = int(rng.integers(3, 5))
    repeats = int(rng.integers(16, 41))
    block = [(amount(), amount(), amount()) for _ in range(block_len)]
    rows = [(amount(), amount(), amount())] + block * repeats + [(amount(), amount(), amount())]
    tensors = [_layer(index, *row) for index, row in enumerate(rows)]
    edges = [(index, index + 1) for index in range(len(rows) - 1)]
    for repeat in range(repeats):
        start = 1 + repeat * block_len
        edges.append((start, start + 2))
    return tensors, edges, strategies


def random_dag_cases() -> Iterator[tuple[str, dict]]:
    for seed in range(NUM_RANDOM_DAGS):
        tensors, edges, strategies = random_dag(seed)
        table = CostTable.from_tensors(tensors, strategies=strategies, edges=edges)
        yield f"random-dag-{seed}/{strategies}", table_record(table)


def all_cases() -> dict:
    return {
        "models": {case: record for name in MODELS for case, record in model_cases(name)},
        "random_dags": dict(random_dag_cases()),
    }


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else GOLDEN_PATH
    cases = all_cases()
    with open(path, "w") as handle:
        json.dump(cases, handle, indent=1, sort_keys=True)
        handle.write("\n")
    count = len(cases["models"]) + len(cases["random_dags"])
    print(f"wrote {count} DP golden cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
