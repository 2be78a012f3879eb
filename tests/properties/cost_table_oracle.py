"""Per-layer reference compile of a :class:`HierarchicalCostTable`.

The table prices each distinct layer cost signature once and scatters the
rows.  This module is the layer-by-layer compile it replaced: every
layer's own tensor record goes through ``_fill_cost_block`` at every
``(level, state)`` -- the combined arrays in one call, the
forward/backward splits in a second -- and ``level_communication`` is
the scalar per-layer, per-edge gather over those arrays, with the
scale-descent states tracked choice by choice.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import HierarchicalCostTable, _fill_cost_block
from repro.core.strategies import BATCH, WEIGHT, strategy_spec
from repro.core.tensors import ScalingMode, layer_tensors


class PerLayerReference:
    """``intra`` / ``inter`` / forward / backward arrays, one row per layer."""

    def __init__(self, table: HierarchicalCostTable) -> None:
        self.table = table
        model = table.model
        space = table.strategies
        specs = [strategy_spec(member) for member in space]
        members = space.members
        size = space.size
        edges = table.edges
        self.intra: list[np.ndarray] = []
        self.inter: list[np.ndarray] = []
        self.inter_forward: list[np.ndarray] = []
        self.inter_backward: list[np.ndarray] = []
        for level in range(table.num_levels):
            states = table._states[level]
            intra = np.empty((len(model), len(states), size))
            inter = np.zeros((len(edges), len(states), size, size))
            forward = np.zeros_like(inter)
            backward = np.zeros_like(inter)
            for state, (b, w) in enumerate(states):
                scale = table._state_scale(level, b, w)
                records = [
                    layer_tensors(layer, table.batch_size, scale) for layer in model
                ]
                _fill_cost_block(
                    records,
                    specs,
                    members,
                    table.communication_model,
                    intra=intra[:, state, :],
                    inter=inter[:, state, :, :],
                    edges=edges,
                )
                _fill_cost_block(
                    records,
                    specs,
                    members,
                    table.communication_model,
                    inter_forward=forward[:, state, :, :],
                    inter_backward=backward[:, state, :, :],
                    edges=edges,
                )
            self.intra.append(intra)
            self.inter.append(inter)
            self.inter_forward.append(forward)
            self.inter_backward.append(backward)

    def state_indices(self, assignment) -> np.ndarray:
        """Per-(level, layer) states, tracked one choice at a time."""
        table = self.table
        states = np.zeros((table.num_levels, table.num_layers), dtype=np.int64)
        if table.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return states
        batch_counts = [0] * table.num_layers
        weight_counts = [0] * table.num_layers
        for level in range(table.num_levels):
            for layer, choice in enumerate(assignment[level]):
                states[level, layer] = table._state_lut[level][
                    batch_counts[layer], weight_counts[layer]
                ]
                halves = strategy_spec(choice).halves
                if halves == BATCH:
                    batch_counts[layer] += 1
                elif halves == WEIGHT:
                    weight_counts[layer] += 1
        return states

    def level_communication(self, assignment) -> list:
        """The scalar gather: ``(choice, intra, ((source, fwd, bwd), ...))``."""
        table = self.table
        code_of = table.strategies.code_of
        states = self.state_indices(assignment)
        incoming: list[list[tuple[int, int]]] = [[] for _ in range(table.num_layers)]
        for edge_index, (source, destination) in enumerate(table.edges):
            incoming[destination].append((edge_index, source))
        records = []
        for level in range(table.num_levels):
            level_assignment = assignment[level]
            level_records = []
            for layer, choice in enumerate(level_assignment):
                state = int(states[level, layer])
                intra = float(self.intra[level][layer, state, code_of(choice)])
                edges = []
                for edge_index, source in incoming[layer]:
                    entry = (
                        edge_index,
                        int(states[level, source]),
                        code_of(level_assignment[source]),
                        code_of(choice),
                    )
                    edges.append(
                        (
                            source,
                            float(self.inter_forward[level][entry]),
                            float(self.inter_backward[level][entry]),
                        )
                    )
                level_records.append((choice, intra, tuple(edges)))
            records.append(level_records)
        return records
