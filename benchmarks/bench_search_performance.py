"""Micro-benchmarks of the partition search itself.

Section 4 claims the search is practical because its time complexity is
linear in the number of weighted layers.  These benches measure the search
latency on the smallest and largest evaluation networks and on synthetic
networks of growing depth, so the linearity is visible in the benchmark
table itself.
"""

import time

import numpy as np
import pytest

from repro.core import kernels
from repro.core.costmodel import resolve_cost_model
from repro.core.costs import CostTable, HierarchicalCostTable
from repro.core.hierarchical import HierarchicalPartitioner
from repro.core.partitioner import TwoWayPartitioner
from repro.core.tensors import model_tensors
from repro.nn.layers import ConvLayer
from repro.nn.model import build_model
from repro.nn.model_zoo import gpt_s, lenet_c, resnet_s, vgg_e

from conftest import emit
from cost_table_oracle import PerLayerReference


def _synthetic_network(depth: int):
    specs = [
        ConvLayer(name=f"conv{i}", out_channels=16, kernel_size=3, padding=1)
        for i in range(depth)
    ]
    return build_model(f"synthetic-{depth}", (32, 32, 16), specs)


def test_two_way_search_lenet(benchmark):
    tensors = model_tensors(lenet_c(), 256)
    partitioner = TwoWayPartitioner()
    result = benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = result.num_layers


def test_two_way_search_vgg_e(benchmark):
    tensors = model_tensors(vgg_e(), 256)
    partitioner = TwoWayPartitioner()
    result = benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = result.num_layers


def test_hierarchical_search_vgg_e_four_levels(benchmark):
    partitioner = HierarchicalPartitioner(num_levels=4)
    model = vgg_e()
    result = benchmark(partitioner.partition, model, 256)
    benchmark.extra_info["layers"] = result.assignment.num_layers
    benchmark.extra_info["levels"] = result.num_levels


@pytest.mark.parametrize("depth", [32, 128, 512])
def test_two_way_search_scales_linearly(benchmark, depth):
    """Search latency should grow roughly linearly with network depth."""
    tensors = model_tensors(_synthetic_network(depth), 32)
    partitioner = TwoWayPartitioner()
    benchmark(partitioner.partition_tensors, tensors)
    benchmark.extra_info["layers"] = depth


@pytest.mark.parametrize("blocks", [128, 512, 1024])
def test_deep_transformer_dp_memoized(benchmark, blocks):
    """Chain DP over ``gpt_s`` transformer depths, memoized vs cold.

    The parameterized transformer chains are exactly periodic in their
    interior, so the block-repetition memoizer converges after a handful of
    blocks and replays the rest by translation.  The cold NumPy layer loop
    runs like-for-like inside the bench (best round on both sides, as in
    the gated sweep ratios) and the measured speedup lands in
    ``extra_info``; at 1024 blocks it is recorded as ``deep_dp_speedup``,
    whose >= 10x acceptance floor ``scripts/check_bench_regression.py``
    enforces against the committed baseline.  Bit-exact agreement between
    the two paths is asserted on every run.
    """
    tensors = model_tensors(gpt_s(blocks), 256)
    table = CostTable.from_tensors(tensors)

    result = benchmark(table.dp_partition)

    cold_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        cold = table.dp_partition(memoize=False)
        cold_rounds.append(time.perf_counter() - start)
    assert cold.communication_bytes == result.communication_bytes
    assert cold.assignment.choices == result.assignment.choices

    cold_seconds = min(cold_rounds)
    memoized_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / memoized_seconds
    benchmark.extra_info["layers"] = len(tensors)
    benchmark.extra_info["blocks"] = blocks
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["memoized_seconds"] = memoized_seconds
    # Only the deepest case is gated: the floor protects the regime the
    # acceptance bar names (1024 blocks), while the shallower depths keep
    # an informational measurement in the baseline history.
    key = "deep_dp_speedup" if blocks == 1024 else "memoized_speedup"
    benchmark.extra_info[key] = speedup
    emit(
        f"Deep-chain DP: gpt_s --layers {blocks} ({len(tensors)} layers)",
        f"cold    : {cold_seconds * 1e3:.2f} ms\n"
        f"memoized: {memoized_seconds * 1e3:.2f} ms\n"
        f"speedup : {speedup:.1f}x",
    )
    if blocks == 1024:
        assert speedup >= 10.0, (
            f"memoized deep-chain DP must be >= 10x the cold path, got {speedup:.1f}x"
        )


def test_profiled_table_compile_overhead(benchmark):
    """Profiled-provider table compilation vs the inlined analytic path.

    The calibrated provider fills the vectorized tables by dispatching
    per entry through the same byte-level methods the object oracle
    calls, instead of the analytic path's inlined NumPy expressions --
    the price of the bit-exactness contract.  This bench compiles the
    ``vgg_e`` hierarchical table (the largest eval network, 4 levels)
    under ``profiled:slow-interconnect`` and runs the analytic compile
    like-for-like in-process; the ratio lands in ``extra_info`` as
    ``profiled_compile_overhead`` (informational, no acceptance floor --
    the compile is a once-per-configuration cost the TableCache
    amortizes across every point that shares the configuration).
    """
    model = vgg_e()
    calibrated = resolve_cost_model("profiled:slow-interconnect").communication_model()

    result = benchmark(
        HierarchicalCostTable, model, 256, 4, communication_model=calibrated
    )

    analytic_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        HierarchicalCostTable(model, 256, 4)
        analytic_rounds.append(time.perf_counter() - start)

    analytic_seconds = min(analytic_rounds)
    profiled_seconds = benchmark.stats.stats.min
    overhead = profiled_seconds / analytic_seconds
    benchmark.extra_info["layers"] = len(result.model)
    benchmark.extra_info["levels"] = result.num_levels
    benchmark.extra_info["analytic_seconds"] = analytic_seconds
    benchmark.extra_info["profiled_seconds"] = profiled_seconds
    benchmark.extra_info["profiled_compile_overhead"] = overhead
    emit(
        "Profiled table compile: vgg_e, 4 levels, slow-interconnect pack",
        f"analytic: {analytic_seconds * 1e3:.2f} ms\n"
        f"profiled: {profiled_seconds * 1e3:.2f} ms\n"
        f"overhead: {overhead:.2f}x",
    )


def test_deep_table_compile(benchmark):
    """Grouped hierarchical table compile vs the per-layer reference.

    Compiles the ``gpt_s --layers 1024`` table (4098 layers, 4 levels,
    batch 256) and gathers ``level_communication`` for its searched
    assignment -- what a cold ``hypar simulate`` pays before the step
    graph.  The table prices each distinct layer signature once; the
    reference (``tests/properties/cost_table_oracle.py``) is the
    layer-by-layer compile it replaced: every layer's records through
    ``_fill_cost_block`` for the combined arrays, again for the
    forward/backward splits, then the scalar per-layer gather.  Both run
    in-process (best round each side); the ratio lands in ``extra_info``
    as ``deep_compile_speedup`` (floor >= 10x, enforced here and by
    ``scripts/check_bench_regression.py``), and the gathered records are
    asserted identical on every run.
    """
    model = gpt_s(1024)
    partitioner = HierarchicalPartitioner(num_levels=4)
    assignment = partitioner.partition(model, 256).assignment

    def compile_and_gather():
        table = HierarchicalCostTable(model, 256, 4)
        return table, table.level_communication(assignment)

    table, records = benchmark(compile_and_gather)

    reference_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        reference = PerLayerReference(table)
        reference_records = reference.level_communication(assignment)
        reference_rounds.append(time.perf_counter() - start)
    assert records == reference_records

    reference_seconds = min(reference_rounds)
    grouped_seconds = benchmark.stats.stats.min
    speedup = reference_seconds / grouped_seconds
    benchmark.extra_info["layers"] = len(model)
    benchmark.extra_info["levels"] = table.num_levels
    benchmark.extra_info["reference_seconds"] = reference_seconds
    benchmark.extra_info["grouped_seconds"] = grouped_seconds
    benchmark.extra_info["deep_compile_speedup"] = speedup
    emit(
        f"Deep table compile + level_communication: gpt_s --layers 1024 ({len(model)} layers)",
        f"per-layer: {reference_seconds * 1e3:.2f} ms\n"
        f"grouped  : {grouped_seconds * 1e3:.2f} ms\n"
        f"speedup  : {speedup:.1f}x",
    )
    assert speedup >= 10.0, (
        f"grouped deep-table compile must be >= 10x the per-layer reference, "
        f"got {speedup:.1f}x"
    )


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
def test_dag_dp_compiled(benchmark):
    """Compiled DAG cut-vertex DP vs the NumPy oracle on long branches.

    A 34-layer synthetic chain with two skip edges spanning 16 layers each
    gives the cut-vertex DP two branch interiors of 2**15 candidate
    patterns -- exactly the batched enumeration the ``@njit`` block scorer
    accelerates.  The cold NumPy side runs like-for-like in-process, the
    measured self-relative ratio lands in ``extra_info`` as
    ``dag_compiled_speedup`` (floor >= 2x, enforced both here and by
    ``scripts/check_bench_regression.py``), and bit-exact agreement with
    the oracle is asserted on every run.  Skips without numba, so the
    committed baseline (regenerated on a numba-less machine) omits it; the
    floor binds in the numba CI leg.
    """
    tensors = model_tensors(_synthetic_network(34), 32)
    edges = [(i, i + 1) for i in range(33)] + [(0, 16), (17, 33)]
    compiled_table = CostTable.from_tensors(tensors, edges=edges, backend="compiled")
    numpy_table = CostTable.from_tensors(tensors, edges=edges, backend="numpy")
    compiled_table.dp_partition()  # warm the JIT outside the timed rounds

    result = benchmark(compiled_table.dp_partition)

    cold_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        cold = numpy_table.dp_partition()
        cold_rounds.append(time.perf_counter() - start)
    assert cold.communication_bytes == result.communication_bytes
    assert cold.assignment.choices == result.assignment.choices

    cold_seconds = min(cold_rounds)
    compiled_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / compiled_seconds
    benchmark.extra_info["layers"] = len(tensors)
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["compiled_seconds"] = compiled_seconds
    benchmark.extra_info["dag_compiled_speedup"] = speedup
    emit(
        "Compiled DAG cut-vertex DP: synthetic-34 + two 16-layer skips",
        f"numpy   : {cold_seconds * 1e3:.2f} ms\n"
        f"compiled: {compiled_seconds * 1e3:.2f} ms\n"
        f"speedup : {speedup:.1f}x",
    )
    assert speedup >= 2.0, (
        f"compiled DAG DP must be >= 2x the NumPy path, got {speedup:.1f}x"
    )


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
@pytest.mark.parametrize("backend", ["compiled", "compiled-parallel"])
def test_hierarchical_scoring_compiled(benchmark, backend):
    """Compiled hierarchical level scorers vs the NumPy gather loops.

    Scores a 2**16-candidate slab of ``resnet_s`` hierarchical codes --
    the batched inner loop behind the Figure-9/10 restricted sweeps and
    ``exhaustive_hierarchical``.  Records the self-relative ratio as
    ``hier_compiled_speedup`` / ``hier_parallel_speedup`` (floor >= 2x
    each); byte-identical totals against the NumPy table are asserted on
    every run.
    """
    model = resnet_s()
    compiled_table = HierarchicalCostTable(model, 64, 3, backend=backend)
    numpy_table = HierarchicalCostTable(model, 64, 3, backend="numpy")
    codes = np.arange(
        min(1 << 16, compiled_table.num_assignments), dtype=np.int64
    )
    compiled_table.score_codes(codes[:64])  # warm the JIT

    totals = benchmark(compiled_table.score_codes, codes)

    cold_rounds = []
    for _ in range(3):
        start = time.perf_counter()
        baseline = numpy_table.score_codes(codes)
        cold_rounds.append(time.perf_counter() - start)
    assert np.array_equal(totals, baseline)

    cold_seconds = min(cold_rounds)
    compiled_seconds = benchmark.stats.stats.min
    speedup = cold_seconds / compiled_seconds
    key = (
        "hier_parallel_speedup" if backend == "compiled-parallel"
        else "hier_compiled_speedup"
    )
    benchmark.extra_info["candidates"] = int(codes.size)
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["compiled_seconds"] = compiled_seconds
    benchmark.extra_info[key] = speedup
    emit(
        f"Compiled hierarchical scoring ({backend}): resnet_s, {codes.size} codes",
        f"numpy   : {cold_seconds * 1e3:.2f} ms\n"
        f"compiled: {compiled_seconds * 1e3:.2f} ms\n"
        f"speedup : {speedup:.1f}x",
    )
    assert speedup >= 2.0, (
        f"compiled hierarchical scoring must be >= 2x NumPy, got {speedup:.1f}x"
    )
