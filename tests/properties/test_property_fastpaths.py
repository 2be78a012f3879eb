"""Property-based bit-exactness tests for the search fast paths.

PR 7's performance work adds three accelerations to the cost engine --
block-repetition memoization in the chain DP, dominance pruning in the
batched scanners, and an optional compiled (numba) kernel backend -- all
promising *bit-exact* agreement with the plain NumPy path (which the
existing property suites pin against the object oracle, making the
equivalence three deep).  These tests drive the fast paths over random
repeated-block chains at transformer-style depth and assert exact float
equality: same optimum bytes, same argmin assignment, identical candidate
totals.

When numba is absent (the default local environment) ``backend="compiled"``
silently runs the NumPy path, so the backend tests hold trivially here and
bind for real in the numba CI leg.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.costs import CostTable, HierarchicalCostTable, WarmStartDP
from repro.core.exhaustive import (
    enumerate_restricted_communication,
    exhaustive_two_way,
    exhaustive_two_way_reference,
)
from repro.core.parallelism import HierarchicalAssignment, Parallelism
from repro.core.tensors import LayerTensors, model_tensors
from repro.nn.model_zoo import gpt_s, lenet_c

# Integer byte-like amounts keep every cost a small exact float, the regime
# where the memoizer's exactness certificate admits the translated-frontier
# jump; the bit-exactness property itself holds for any floats (the jump
# simply declines when exactness cannot be certified).
int_amounts = st.integers(min_value=1, max_value=1 << 24)


def _layer(index: int, feature_in: int, feature_out: int, weight: int) -> LayerTensors:
    return LayerTensors(
        layer_index=index,
        layer_name=f"layer{index}",
        is_conv=False,
        feature_in=float(feature_in),
        feature_out=float(feature_out),
        weight=float(weight),
        macs=float(weight),
    )


@st.composite
def repeated_block_chains(draw, min_repeats=3, max_repeats=40):
    """A stem, ``repeats`` copies of one 1-4 layer block, and a head.

    The structure of a parameterized transformer chain: distinct layers at
    both ends, an exactly-periodic interior.  Depths reach past the
    memoizer's minimum (32 layers) so the periodic-region detector and the
    block-stepping path both run under the property.
    """
    block_len = draw(st.integers(min_value=1, max_value=4), label="block_len")
    repeats = draw(
        st.integers(min_value=min_repeats, max_value=max_repeats), label="repeats"
    )
    block = [
        (draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for _ in range(block_len)
    ]
    stem = (draw(int_amounts), draw(int_amounts), draw(int_amounts))
    head = (draw(int_amounts), draw(int_amounts), draw(int_amounts))
    rows = [stem] + block * repeats + [head]
    return [
        _layer(index, fin, fout, weight)
        for index, (fin, fout, weight) in enumerate(rows)
    ]


@st.composite
def short_chains(draw, max_layers=7):
    count = draw(st.integers(min_value=1, max_value=max_layers))
    return [
        _layer(index, draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for index in range(count)
    ]


class TestMemoizedChainDP:
    @settings(max_examples=50, deadline=None)
    @given(tensors=repeated_block_chains())
    def test_memoized_dp_is_bit_exact_with_cold_dp(self, tensors):
        table = CostTable.from_tensors(tensors)
        memoized = table.dp_partition(memoize=True)
        cold = table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    @settings(max_examples=25, deadline=None)
    @given(tensors=repeated_block_chains(min_repeats=10))
    def test_warmstart_memoized_solve_matches_cold(self, tensors):
        table = CostTable.from_tensors(tensors)
        warm = WarmStartDP().solve(table)
        cold = table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices

    @settings(max_examples=15, deadline=None)
    @given(tensors=repeated_block_chains(min_repeats=12), data=st.data())
    def test_warmstart_suffix_mutation_reuse_at_depth(self, tensors, data):
        """Mutating a suffix layer re-solves only the suffix, bit-exactly."""
        solver = WarmStartDP()
        table = CostTable.from_tensors(tensors)
        solver.solve(table)
        # Mutate one layer in the back half; the prefix frontier is reused.
        # Bumping the weight guarantees the layer's cost column changes, so
        # the solve cannot short-circuit as a full cache hit.
        index = data.draw(
            st.integers(min_value=len(tensors) // 2, max_value=len(tensors) - 1),
            label="mutated_layer",
        )
        original = tensors[index]
        mutated = list(tensors)
        mutated[index] = _layer(
            index,
            int(original.feature_in),
            int(original.feature_out),
            int(original.weight) + 1,
        )
        mutated_table = CostTable.from_tensors(mutated)
        warm = solver.solve(mutated_table)
        cold = mutated_table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices
        assert solver.stats()["reused_layers"] > 0

    def test_periodic_jump_fires_at_transformer_depth(self):
        """The translated-frontier jump actually engages (not just falls back).

        ``gpt_s(64)`` is a 258-layer chain of integer-valued tensor amounts,
        the regime where the exactness certificate certifies the jump; if a
        refactor silently degrades it to cold stepping, ``memoized_layers``
        stays zero and this test (not just a benchmark) catches it.
        """
        tensors = model_tensors(gpt_s(64), 256)
        cost_table = CostTable.from_tensors(tensors)
        solver = WarmStartDP()
        warm = solver.solve(cost_table)
        assert solver.memoized_layers > 0
        cold = cost_table.dp_partition(memoize=False)
        assert warm.communication_bytes == cold.communication_bytes
        assert warm.assignment.choices == cold.assignment.choices


class TestDominancePruning:
    @settings(max_examples=40, deadline=None)
    @given(tensors=short_chains())
    def test_pruned_argmin_matches_plain_scan(self, tensors):
        table = CostTable.from_tensors(tensors)
        plain = table.argmin_assignment()
        pruned = table.argmin_assignment(prune=True)
        assert pruned == plain

    @settings(max_examples=40, deadline=None)
    @given(
        tensors=short_chains(),
        space=st.sampled_from(["dp,mp", "dp,mp,pp"]),
        chunk=st.sampled_from([None, 1, 2]),
    )
    def test_pruned_argmin_with_dp_incumbent_matches(self, tensors, space, chunk):
        # Chunks of 1 or 2 patterns fix every digit, so the bound must
        # price layer 0 exactly once; the DP total is a tight incumbent.
        table = CostTable.from_tensors(tensors, strategies=space)
        plain = table.argmin_assignment()
        upper = table.dp_partition().communication_bytes
        pruned = table.argmin_assignment(prune=True, chunk_size=chunk, upper_bound=upper)
        assert pruned == plain

    @settings(max_examples=25, deadline=None)
    @given(tensors=short_chains(max_layers=6))
    def test_branch_and_bound_exhaustive_matches_reference(self, tensors):
        pruned = exhaustive_two_way(tensors, prune=True, chunk_size=8)
        reference = exhaustive_two_way_reference(tensors)
        assert pruned.communication_bytes == reference.communication_bytes
        assert pruned.assignment.choices == reference.assignment.choices


class TestChunkSizeByteIdentity:
    @settings(max_examples=30, deadline=None)
    @given(tensors=short_chains(), data=st.data())
    def test_tiny_chunks_score_byte_identically(self, tensors, data):
        table = CostTable.from_tensors(tensors)
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        chunk = data.draw(st.sampled_from([1, 2, 3, 7]), label="chunk_size")
        assert np.array_equal(table.score_codes(codes, chunk_size=chunk), baseline)

    def test_hierarchical_scorer_tiny_chunks_are_byte_identical(self):
        table = HierarchicalCostTable(lenet_c(), 64, 2)
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        for chunk in (1, 3, 16):
            assert np.array_equal(table.score_codes(codes, chunk_size=chunk), baseline)
        plain = table.argmin_assignment()
        assert table.argmin_assignment(chunk_size=1) == plain

    def test_restricted_sweep_tiny_chunks_are_byte_identical(self):
        model = lenet_c()
        base = HierarchicalAssignment.uniform(Parallelism.DATA, 2, len(model))
        free = [(0, 0), (1, 2), (0, 3)]
        baseline = enumerate_restricted_communication(model, 64, base, free)
        tiny = enumerate_restricted_communication(model, 64, base, free, chunk_size=2)
        assert np.array_equal(tiny, baseline)


class TestCompiledBackendEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        tensors=repeated_block_chains(max_repeats=12),
        backend=st.sampled_from(["compiled", "compiled-parallel"]),
    )
    def test_compiled_dp_matches_numpy_dp(self, tensors, backend):
        numpy_table = CostTable.from_tensors(tensors, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, backend=backend)
        a = numpy_table.dp_partition()
        b = compiled_table.dp_partition()
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices
        # And with memoization off, the raw kernels against each other.
        a = numpy_table.dp_partition(memoize=False)
        b = compiled_table.dp_partition(memoize=False)
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices

    @settings(max_examples=30, deadline=None)
    @given(
        tensors=short_chains(),
        backend=st.sampled_from(["compiled", "compiled-parallel"]),
    )
    def test_compiled_scorer_matches_numpy_scorer(self, tensors, backend):
        numpy_table = CostTable.from_tensors(tensors, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, backend=backend)
        codes = np.arange(numpy_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            compiled_table.score_codes(codes), numpy_table.score_codes(codes)
        )
