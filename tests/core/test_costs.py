"""Tests for the vectorized cost-table evaluation engine."""

import numpy as np
import pytest

from repro.core.communication import CommunicationModel
from repro.core.costs import CostTable, HierarchicalCostTable, compile_cost_table
from repro.core.exhaustive import (
    enumerate_restricted,
    enumerate_restricted_communication,
    exhaustive_hierarchical,
    exhaustive_hierarchical_reference,
    exhaustive_two_way,
    exhaustive_two_way_reference,
    restricted_assignment,
)
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.parallelism import (
    DATA,
    MODEL,
    HierarchicalAssignment,
    LayerAssignment,
)
from repro.core.partitioner import TwoWayPartitioner
from repro.core.tensors import ScalingMode, model_tensors


class TestCostTableCompilation:
    def test_shapes(self, lenet_model):
        table = compile_cost_table(lenet_model, 256)
        layers = len(lenet_model)
        assert table.intra.shape == (layers, 2)
        assert table.inter.shape == (layers - 1, 2, 2)
        assert table.num_assignments == 1 << layers

    def test_entries_match_communication_model(self, lenet_model, communication_model):
        tensors = model_tensors(lenet_model, 256)
        table = CostTable.from_tensors(tensors, communication_model)
        for index, record in enumerate(tensors):
            assert table.intra[index, 0] == communication_model.intra_layer_bytes(record, DATA)
            assert table.intra[index, 1] == communication_model.intra_layer_bytes(record, MODEL)
        for index in range(len(tensors) - 1):
            for p_bit, previous in enumerate((DATA, MODEL)):
                for q_bit, current in enumerate((DATA, MODEL)):
                    assert table.inter[index, p_bit, q_bit] == (
                        communication_model.inter_layer_bytes(
                            previous, current, tensors[index]
                        )
                    )

    def test_rejects_empty_tensor_list(self):
        with pytest.raises(ValueError):
            CostTable.from_tensors([])

    def test_single_layer_table(self, tiny_model):
        table = compile_cost_table(tiny_model, 8)
        sub = CostTable.from_tensors(table.tensors[:1], table.communication_model)
        assert sub.inter.shape == (0, 2, 2)
        bits, total = sub.argmin_assignment()
        assert bits in (0, 1)
        assert total == min(sub.intra[0])


class TestCostTableScoring:
    def test_score_codes_matches_evaluate_exactly(self, lenet_model, two_way_partitioner):
        tensors = model_tensors(lenet_model, 256)
        table = two_way_partitioner.compile_table(tensors)
        bits = np.arange(table.num_assignments)
        totals = table.score_codes(bits)
        for pattern in bits:
            assignment = LayerAssignment.from_codes(int(pattern), len(tensors))
            expected = two_way_partitioner.evaluate(tensors, assignment)
            assert totals[pattern] == expected.communication_bytes

    def test_total_bytes_matches_communication_model(self, alexnet_model):
        comm = CommunicationModel()
        tensors = model_tensors(alexnet_model, 64)
        table = CostTable.from_tensors(tensors, comm)
        assignment = LayerAssignment.from_codes(0b10110101, len(tensors))
        assert table.total_bytes(assignment) == comm.total_bytes(tensors, assignment)

    def test_result_for_codes_materializes_one_pattern(self, lenet_model):
        table = compile_cost_table(lenet_model, 64)
        for codes in range(table.num_assignments):
            result = table.result_for_codes(codes)
            assignment = LayerAssignment.from_codes(codes, table.num_layers)
            assert result.assignment == assignment
            assert result.communication_bytes == table.score_codes([codes])[0]
            assert result.communication_bytes == table.total_bytes(assignment)

    def test_rejects_mismatched_assignment(self, lenet_model):
        table = compile_cost_table(lenet_model, 256)
        with pytest.raises(ValueError):
            table.total_bytes(LayerAssignment.uniform(DATA, len(lenet_model) + 1))

    def test_rejects_non_vector_codes(self, lenet_model):
        table = compile_cost_table(lenet_model, 256)
        with pytest.raises(ValueError):
            table.score_codes(np.zeros((2, 2), dtype=np.int64))


class TestArrayDynamicProgram:
    @pytest.mark.parametrize("batch_size", [16, 256, 1024])
    def test_matches_reference_dp_exactly(self, batch_size, alexnet_model):
        partitioner = TwoWayPartitioner()
        tensors = model_tensors(alexnet_model, batch_size)
        vectorized = partitioner.partition_tensors(tensors)
        reference = partitioner.partition_tensors_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    def test_breakdown_is_lazy_but_correct(self, lenet_model, two_way_partitioner):
        tensors = model_tensors(lenet_model, 256)
        result = two_way_partitioner.partition_tensors(tensors)
        reference = two_way_partitioner.partition_tensors_reference(tensors)
        assert [record.total_bytes for record in result.breakdown] == [
            record.total_bytes for record in reference.breakdown
        ]

    def test_dp_tie_rule_prefers_data_parallelism(self):
        """Equal dp/mp costs at every step must resolve to all-dp."""
        from repro.core.tensors import LayerTensors

        tensors = [
            LayerTensors(
                layer_index=i,
                layer_name=f"l{i}",
                is_conv=False,
                feature_in=8.0,
                feature_out=0.0,
                weight=0.0,
                macs=1.0,
            )
            for i in range(3)
        ]
        partitioner = TwoWayPartitioner()
        vectorized = partitioner.partition_tensors(tensors)
        reference = partitioner.partition_tensors_reference(tensors)
        assert vectorized.assignment.choices == reference.assignment.choices
        assert vectorized.assignment.is_uniform(DATA)


class TestExhaustiveParity:
    @pytest.mark.parametrize("batch_size", [16, 256])
    def test_two_way_matches_reference_winner(self, batch_size, lenet_model):
        tensors = model_tensors(lenet_model, batch_size)
        vectorized = exhaustive_two_way(tensors)
        reference = exhaustive_two_way_reference(tensors)
        assert vectorized.communication_bytes == reference.communication_bytes
        assert vectorized.assignment.choices == reference.assignment.choices

    def test_hierarchical_matches_reference_winner(self, tiny_model):
        partitioner = HierarchicalPartitioner(num_levels=2)
        vectorized = exhaustive_hierarchical(
            tiny_model, 8, num_levels=2, partitioner=partitioner
        )
        reference = exhaustive_hierarchical_reference(
            tiny_model, 8, num_levels=2, partitioner=partitioner
        )
        assert (
            vectorized.total_communication_bytes
            == reference.total_communication_bytes
        )
        assert vectorized.assignment.levels == reference.assignment.levels


class TestHierarchicalCostTable:
    @pytest.mark.parametrize("mode", list(ScalingMode))
    def test_total_bytes_matches_object_evaluate(self, mode, lenet_model):
        partitioner = HierarchicalPartitioner(num_levels=3, scaling_mode=mode)
        table = partitioner.compile_table(lenet_model, 256)
        rng = np.random.default_rng(7)
        for _ in range(20):
            assignment = HierarchicalAssignment.of(
                [
                    [int(bit) for bit in rng.integers(0, 2, len(lenet_model))]
                    for _ in range(3)
                ]
            )
            reference = partitioner.evaluate_reference(lenet_model, assignment, 256)
            assert table.total_bytes(assignment) == reference.total_communication_bytes
            evaluated = partitioner.evaluate(lenet_model, assignment, 256, table=table)
            assert (
                evaluated.total_communication_bytes
                == reference.total_communication_bytes
            )
            for fast, slow in zip(evaluated.levels, reference.levels):
                assert fast.communication_bytes == slow.communication_bytes

    def test_score_codes_product_order(self, tiny_model):
        """Candidate index decodes with the last level varying fastest."""
        partitioner = HierarchicalPartitioner(num_levels=2)
        table = partitioner.compile_table(tiny_model, 8)
        layers = len(tiny_model)
        # Candidate 1 flips only layer 0 of the *last* level.
        assignment = table.codes_to_assignment(1)
        assert assignment[1][0] is MODEL
        assert assignment[0].is_uniform(DATA)
        encoded = table.assignment_to_codes(assignment)
        assert encoded == 1
        totals = table.score_codes(np.arange(1 << (2 * layers)))
        for bits in (0, 1, 5, (1 << (2 * layers)) - 1):
            candidate = table.codes_to_assignment(bits)
            assert totals[bits] == table.total_bytes(candidate)

    def test_partition_matches_table_free_search(self, alexnet_model):
        partitioner = HierarchicalPartitioner(num_levels=4)
        table = partitioner.compile_table(alexnet_model, 256)
        with_table = partitioner.partition(alexnet_model, 256, table=table)
        without_table = partitioner.partition(alexnet_model, 256)
        assert (
            with_table.total_communication_bytes
            == without_table.total_communication_bytes
        )
        assert with_table.assignment.levels == without_table.assignment.levels

    def test_rejects_foreign_table(self, lenet_model, alexnet_model):
        partitioner = HierarchicalPartitioner(num_levels=2)
        table = partitioner.compile_table(lenet_model, 256)
        with pytest.raises(ValueError):
            partitioner.partition(alexnet_model, 256, table=table)
        with pytest.raises(ValueError):
            partitioner.partition(lenet_model, 128, table=table)

    def test_evaluate_handles_models_with_64_plus_layers(self):
        """Single-assignment scoring must not pack bits into an int64.

        The object path supported arbitrary depth; the table path decodes
        assignments directly so 64+ weighted layers keep working.
        """
        from repro.core.baselines import data_parallelism
        from repro.nn.layers import ConvLayer
        from repro.nn.model import build_model

        specs = [
            ConvLayer(name=f"conv{i}", out_channels=4, kernel_size=3, padding=1)
            for i in range(70)
        ]
        model = build_model("deep-70", (8, 8, 4), specs)
        partitioner = HierarchicalPartitioner(num_levels=2)
        assignment = data_parallelism(model, 2)
        evaluated = partitioner.evaluate(model, assignment, 8)
        reference = partitioner.evaluate_reference(model, assignment, 8)
        assert (
            evaluated.total_communication_bytes
            == reference.total_communication_bytes
        )
        searched = partitioner.partition(model, 8)
        assert searched.assignment.num_layers == 70

    def test_level_cost_table_gathers_consistent_states(self, lenet_model):
        partitioner = HierarchicalPartitioner(num_levels=3)
        table = partitioner.compile_table(lenet_model, 256)
        states = [0, 1, 2, 1]
        level_table = table.level_cost_table(2, states)
        for layer, state in enumerate(states):
            assert level_table.tensors[layer] is table.tensors_for_level(2, states)[layer]
            assert level_table.intra[layer, 0] == table._intra[2][layer, state, 0]


class TestRestrictedSweep:
    def _communication_evaluator(self, partitioner, model, batch, table):
        def evaluate(assignment):
            return partitioner.evaluate(
                model, assignment, batch, table=table
            ).total_communication_bytes

        return evaluate

    def test_vectorized_sweep_matches_object_sweep(self, lenet_model):
        partitioner = HierarchicalPartitioner(num_levels=2)
        table = partitioner.compile_table(lenet_model, 256)
        base = partitioner.partition(lenet_model, 256, table=table).assignment
        free = [(0, 0), (0, 2), (1, 1), (1, 3)]
        object_points = enumerate_restricted(
            lenet_model,
            256,
            base,
            free,
            self._communication_evaluator(partitioner, lenet_model, 256, table),
        )
        totals = enumerate_restricted_communication(
            lenet_model, 256, base, free, table=table
        )
        assert len(object_points) == len(totals) == 16
        for bits, (assignment, cost) in enumerate(object_points):
            assert totals[bits] == cost
            assert restricted_assignment(base, free, bits).levels == assignment.levels

    def test_restricted_assignment_flips_only_free_positions(self, lenet_model):
        base = HierarchicalAssignment.uniform(DATA, 2, len(lenet_model))
        free = [(1, 2), (0, 0)]
        assignment = restricted_assignment(base, free, 0b01)
        assert assignment.choice(1, 2) is MODEL
        assert assignment.choice(0, 0) is DATA
        flipped = {(1, 2)}
        for level in range(2):
            for layer in range(len(lenet_model)):
                expected = MODEL if (level, layer) in flipped else DATA
                assert assignment.choice(level, layer) is expected

    def test_sweep_rejects_stale_table(self, lenet_model, alexnet_model):
        partitioner = HierarchicalPartitioner(num_levels=2)
        base = HierarchicalAssignment.uniform(DATA, 2, len(lenet_model))
        wrong_batch = partitioner.compile_table(lenet_model, 32)
        with pytest.raises(ValueError):
            enumerate_restricted_communication(
                lenet_model, 256, base, [(0, 0)], table=wrong_batch
            )
        wrong_model = partitioner.compile_table(alexnet_model, 256)
        with pytest.raises(ValueError):
            enumerate_restricted_communication(
                lenet_model, 256, base, [(0, 0)], table=wrong_model
            )

    def test_sweep_without_table_compiles_one(self, lenet_model):
        base = HierarchicalAssignment.uniform(DATA, 2, len(lenet_model))
        partitioner = HierarchicalPartitioner(num_levels=2)
        totals = enumerate_restricted_communication(
            lenet_model, 256, base, [(0, 0)], partitioner=partitioner
        )
        expected = partitioner.evaluate(
            lenet_model, base, 256
        ).total_communication_bytes
        assert totals[0] == expected


class TestLazyBreakdown:
    def test_evaluate_defers_breakdown(self, lenet_model, two_way_partitioner):
        tensors = model_tensors(lenet_model, 256)
        assignment = LayerAssignment.uniform(DATA, len(lenet_model))
        result = two_way_partitioner.evaluate(tensors, assignment)
        assert result._breakdown is None  # not materialized yet
        breakdown = result.breakdown
        assert result._breakdown is not None  # cached after first access
        assert result.breakdown is breakdown
        assert sum(r.total_bytes for r in breakdown) == pytest.approx(
            result.communication_bytes
        )

    def test_hierarchical_evaluate_defers_breakdown(self, lenet_model):
        partitioner = HierarchicalPartitioner(num_levels=2)
        assignment = HierarchicalAssignment.uniform(MODEL, 2, len(lenet_model))
        result = partitioner.evaluate(lenet_model, assignment, 256)
        for level in result.levels:
            assert level._breakdown is None
        reference = partitioner.evaluate_reference(lenet_model, assignment, 256)
        for fast, slow in zip(result.levels, reference.levels):
            assert [r.total_bytes for r in fast.breakdown] == [
                r.total_bytes for r in slow.breakdown
            ]


class TestDagBlockDynamicProgram:
    """Deterministic pins of the cut-vertex DP's block machinery."""

    def _skip_table(self, num_layers, strategies=None):
        from repro.core.tensors import LayerTensors

        rng = np.random.default_rng(7)
        tensors = [
            LayerTensors(
                layer_index=index,
                layer_name=f"layer{index}",
                is_conv=bool(index % 2),
                feature_in=float(rng.uniform(1, 1e7)),
                feature_out=float(rng.uniform(1, 1e7)),
                weight=float(rng.uniform(1, 1e7)),
                macs=1.0,
            )
            for index in range(num_layers)
        ]
        # A chain plus one skip spanning the whole model: the only cut
        # vertices are the endpoints, so the DP enumerates one big block.
        edges = tuple((i, i + 1) for i in range(num_layers - 1)) + (
            (0, num_layers - 1),
        )
        return CostTable.from_tensors(tensors, strategies=strategies, edges=edges)

    def test_cut_vertices_of_skip_model(self):
        table = self._skip_table(6)
        assert table.cut_vertices() == [0, 5]
        assert not table.is_chain

    def test_single_block_spanning_multiple_chunks_matches_brute_force(self):
        # 2^18 patterns = four DEFAULT_CHUNK_SIZE chunks through one block.
        table = self._skip_table(18)
        searched = table.dp_partition()
        _, brute_total = table.argmin_assignment()
        assert searched.communication_bytes == brute_total
        assert table.total_bytes(searched.assignment) == searched.communication_bytes

    def test_base_three_block_matches_brute_force(self):
        table = self._skip_table(9, strategies="dp,mp,pp")
        searched = table.dp_partition()
        _, brute_total = table.argmin_assignment()
        assert searched.communication_bytes == brute_total

    def test_oversized_block_raises(self):
        from repro.core.costs import DEFAULT_MAX_BLOCK_PATTERNS

        table = self._skip_table(30)
        assert 2 ** 30 > DEFAULT_MAX_BLOCK_PATTERNS
        with pytest.raises(ValueError, match="branch interior"):
            table.dp_partition()
