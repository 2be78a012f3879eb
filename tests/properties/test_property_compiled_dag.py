"""Bit-exactness properties of the compiled DAG and hierarchical fast paths.

PR 8 extends the compiled (numba) kernel backend beyond chains: the DAG
cut-vertex DP enumerates its branch interiors in an ``@njit`` block
scorer, the hierarchical level scorers run as kernels, a
``"compiled-parallel"`` leg scores candidates under ``prange``, and the
cut-vertex program gains the chain DP's repeated-block memoization for
residual transformer DAGs (``gpt_r``).  Every one of those paths promises
*bit-exact* agreement with the cold NumPy oracle; these tests drive them
over the branching zoo, random DAGs and periodic residual stacks and
assert exact float equality.

When numba is absent (the default local environment) the compiled
backends silently run the NumPy path, so the backend properties hold
trivially here and bind for real in the numba CI leg; the dispatch-counter
tests flip accordingly and prove the kernels actually *executed* wherever
numba is present.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from unittest import mock

import numpy as np
import pytest

from repro.core import kernels
from repro.core.costs import DAG_JUMP_STATS, CostTable, HierarchicalCostTable
from repro.core.exhaustive import enumerate_restricted_communication
from repro.core.parallelism import HierarchicalAssignment, Parallelism
from repro.core.tensors import LayerTensors, model_tensors
from repro.nn.model_zoo import gpt_r, inception_s, lenet_c, resnet_s

COMPILED_BACKENDS = ["compiled", "compiled-parallel"]

# Integer byte-like amounts keep every cost a small exact float -- the
# regime where the DAG block jump's exactness certificate admits the
# translation (the parity properties themselves hold for any floats).
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
def random_dag_tables(draw, max_layers=7):
    """Tensors plus a random DAG edge list (chain + up to two skips).

    Small enough that the full ``K**L`` space is enumerable, so the
    cut-vertex DP can be checked against the brute-force scorer minimum
    as well as across backends.  Skip edges may share a destination with
    the chain edge (a merge layer) and are appended *after* the chain
    edges, exercising the kernels' stable destination grouping.
    """
    count = draw(st.integers(min_value=3, max_value=max_layers), label="layers")
    tensors = [
        _layer(index, draw(int_amounts), draw(int_amounts), draw(int_amounts))
        for index in range(count)
    ]
    edges = [(index, index + 1) for index in range(count - 1)]
    num_skips = draw(st.integers(min_value=0, max_value=2), label="skips")
    for _ in range(num_skips):
        source = draw(st.integers(min_value=0, max_value=count - 3), label="src")
        destination = draw(
            st.integers(min_value=source + 2, max_value=count - 1), label="dst"
        )
        if (source, destination) not in edges:
            edges.append((source, destination))
    return tensors, edges


@st.composite
def periodic_residual_tables(draw, min_repeats=6, max_repeats=24):
    """A stem, repeated identical blocks with a skip edge each, and a head.

    The residual-transformer shape: block-periodic costs *and*
    block-periodic edge structure, so the DAG repetition memoizer's
    detector sees a periodic cut-segment region (the jump itself still
    requires steady state plus the exactness certificate, and simply
    declines otherwise -- either way the result must stay bit-exact).
    """
    block_len = draw(st.integers(min_value=3, max_value=4), label="block_len")
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
    tensors = [
        _layer(index, fin, fout, weight)
        for index, (fin, fout, weight) in enumerate(rows)
    ]
    edges = [(index, index + 1) for index in range(len(rows) - 1)]
    # One skip per repeated block, spanning its first interior layer.
    for repeat in range(repeats):
        start = 1 + repeat * block_len
        edges.append((start, start + 2))
    return tensors, edges


class TestCompiledDagDP:
    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), backend=st.sampled_from(COMPILED_BACKENDS))
    def test_compiled_dag_dp_matches_numpy_and_brute_force(self, table, backend):
        tensors, edges = table
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        a = numpy_table.dp_partition()
        b = compiled_table.dp_partition()
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices
        _, brute = numpy_table.argmin_assignment()
        assert a.communication_bytes == brute

    @settings(max_examples=40, deadline=None)
    @given(table=random_dag_tables(), backend=st.sampled_from(COMPILED_BACKENDS))
    def test_compiled_dag_scorer_matches_numpy(self, table, backend):
        tensors, edges = table
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        codes = np.arange(numpy_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            compiled_table.score_codes(codes), numpy_table.score_codes(codes)
        )

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("builder", [resnet_s, inception_s, gpt_r])
    def test_branching_zoo_compiled_dp_matches_numpy(self, builder, backend):
        tensors = model_tensors(builder(), 64)
        edges = builder().edges
        numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
        compiled_table = CostTable.from_tensors(tensors, edges=edges, backend=backend)
        a = numpy_table.dp_partition()
        b = compiled_table.dp_partition()
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices


class TestDagRepeatedBlockMemoization:
    @settings(max_examples=30, deadline=None)
    @given(table=periodic_residual_tables())
    def test_memoized_dag_dp_is_bit_exact_with_cold(self, table):
        tensors, edges = table
        cost_table = CostTable.from_tensors(tensors, edges=edges)
        memoized = cost_table.dp_partition(memoize=True)
        cold = cost_table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    @settings(max_examples=30, deadline=None)
    @given(table=st.one_of(periodic_residual_tables(), random_dag_tables()))
    def test_bucketed_block_edges_equal_the_full_edge_scan(self, table):
        """Destination buckets return exactly the old full scan's edges,
        in its order, and the periodic detector finds the same region."""
        tensors, edges = table
        self._assert_bucketed_edges_match_scan(CostTable.from_tensors(tensors, edges=edges))

    def test_bucketed_block_edges_equal_the_full_edge_scan_on_gpt_r(self):
        self._assert_bucketed_edges_match_scan(CostTable.compile(gpt_r(64), 256))

    @staticmethod
    def _assert_bucketed_edges_match_scan(cost_table):
        def scan(table, block_start, block_end):
            # The full edge scan the destination buckets replaced.
            return [
                (edge_index, source - block_start, destination - block_start)
                for edge_index, (source, destination) in enumerate(table.edges)
                if block_start < destination <= block_end
            ]

        cuts = cost_table.cut_vertices()
        blocks = list(zip(cuts, cuts[1:]))
        for block_start, block_end in blocks:
            assert cost_table._block_local_edges(block_start, block_end) == scan(
                cost_table, block_start, block_end
            )
        for start in cuts:
            for end in cuts:
                if start < end:
                    assert cost_table._edges_into(start, end) == [
                        edge_index for edge_index, _, _ in scan(cost_table, start, end)
                    ]
        detected = cost_table._detect_periodic_segments()
        with mock.patch.object(CostTable, "_block_local_edges", scan):
            assert cost_table._detect_periodic_segments() == detected

    def test_block_jump_fires_on_gpt_r_at_depth(self):
        """The DAG periodic-block jump actually engages on ``gpt_r``.

        A 64-block residual transformer has ~129 cut segments alternating
        with period two; integer tensor amounts let the exactness
        certificate admit the jump.  If a refactor silently degrades the
        cut-vertex program to cold stepping, the jump statistics stay
        flat and this test (not just a benchmark) catches it.
        """
        table = CostTable.compile(gpt_r(64), 256)
        before = dict(DAG_JUMP_STATS)
        memoized = table.dp_partition()
        after = dict(DAG_JUMP_STATS)
        assert after["jumps"] > before["jumps"]
        assert after["jumped_blocks"] > before["jumped_blocks"]
        cold = table.dp_partition(memoize=False)
        assert memoized.communication_bytes == cold.communication_bytes
        assert memoized.assignment.choices == cold.assignment.choices

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_gpt_r_compiled_memoized_matches_numpy_cold(self, backend):
        """Memoizer and compiled kernels compose on the residual stack."""
        model = gpt_r(32)
        compiled_table = CostTable.compile(model, 64, backend=backend)
        numpy_table = CostTable.compile(model, 64, backend="numpy")
        a = compiled_table.dp_partition()
        b = numpy_table.dp_partition(memoize=False)
        assert a.communication_bytes == b.communication_bytes
        assert a.assignment.choices == b.assignment.choices


class TestCompiledHierarchicalScorers:
    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    @pytest.mark.parametrize("builder", [lenet_c, resnet_s])
    def test_hier_score_codes_matches_numpy(self, builder, backend):
        model = builder()
        numpy_table = HierarchicalCostTable(model, 64, 2, backend="numpy")
        compiled_table = HierarchicalCostTable(model, 64, 2, backend=backend)
        codes = np.arange(numpy_table.num_assignments, dtype=np.int64)
        assert np.array_equal(
            compiled_table.score_codes(codes), numpy_table.score_codes(codes)
        )
        assert compiled_table.argmin_assignment() == numpy_table.argmin_assignment()

    def test_parallel_scorer_tiny_chunks_are_byte_identical(self):
        """Chunk boundaries never leak into the prange leg's totals."""
        table = HierarchicalCostTable(resnet_s(), 64, 2, backend="compiled-parallel")
        codes = np.arange(table.num_assignments, dtype=np.int64)
        baseline = table.score_codes(codes)
        for chunk in (1, 3, 7):
            assert np.array_equal(table.score_codes(codes, chunk_size=chunk), baseline)

    @pytest.mark.parametrize("backend", COMPILED_BACKENDS)
    def test_restricted_sweep_rides_the_compiled_table(self, backend):
        model = resnet_s()
        numpy_table = HierarchicalCostTable(model, 64, 4, backend="numpy")
        compiled_table = HierarchicalCostTable(model, 64, 4, backend=backend)
        base = HierarchicalAssignment.uniform(Parallelism.DATA, 4, len(model))
        free = [(0, 0), (1, 2), (2, 5), (0, 3)]
        baseline = enumerate_restricted_communication(
            model, 64, base, free, table=numpy_table
        )
        compiled = enumerate_restricted_communication(
            model, 64, base, free, table=compiled_table
        )
        assert np.array_equal(compiled, baseline)


class TestKernelDispatchCounters:
    """`--backend compiled` must *execute* kernels, not silently fall back.

    With numba present the counters prove the dispatch happened; without
    it they prove the graceful fallback stayed on the NumPy path.
    """

    def setup_method(self):
        kernels.reset_dispatch_counts()

    def test_dag_dp_dispatches_block_kernel(self):
        CostTable.compile(resnet_s(), 64, backend="compiled").dp_partition()
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["dag_block"] > 0
        else:
            assert counts["dag_block"] == 0

    def test_hierarchical_scoring_dispatches_level_kernel(self):
        table = HierarchicalCostTable(resnet_s(), 64, 2, backend="compiled")
        table.score_codes(np.arange(256, dtype=np.int64))
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["hier_level"] > 0
        else:
            assert counts["hier_level"] == 0

    def test_parallel_backend_dispatches_scorer_kernels(self):
        chain = CostTable.compile(lenet_c(), 64, backend="compiled-parallel")
        chain.score_codes(np.arange(chain.num_assignments, dtype=np.int64))
        dag = CostTable.compile(resnet_s(), 64, backend="compiled-parallel")
        dag.score_codes(np.arange(64, dtype=np.int64))
        counts = kernels.dispatch_counts()
        if kernels.NUMBA_AVAILABLE:
            assert counts["chain_score"] > 0
            assert counts["dag_score"] > 0
        else:
            assert counts["chain_score"] == 0
            assert counts["dag_score"] == 0
