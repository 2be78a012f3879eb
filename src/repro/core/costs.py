"""Vectorized cost-table evaluation engine for the partition search.

The object-based path (:class:`~repro.core.communication.CommunicationModel`
walking :class:`~repro.core.tensors.LayerTensors` lists) is convenient for
reporting but far too slow for the enumeration workloads: the restricted
sweeps of Figures 9/10 and the brute-force validators score up to ``2**22``
candidate assignments, and rebuilding tensor lists plus a
:class:`~repro.core.communication.LayerCommunication` breakdown per candidate
is pure-Python overhead repeated millions of times.

This module compiles the communication model *once* into NumPy arrays and
then scores whole batches of candidates with array operations.  Tables are
parameterized by a :class:`~repro.core.parallelism.StrategySpace` (the
paper's binary dp/mp axis by default):

* :class:`CostTable` -- one hierarchy level.  ``intra[l, c]`` is the
  intra-layer traffic (bytes) of layer ``l`` under strategy code ``c``
  (the index into the table's strategy space); ``inter[e, c, d]`` is the
  inter-layer traffic (bytes) of layer-DAG edge ``e = (src, dst)``
  (``table.edges``) when its endpoints use codes ``c`` and ``d`` -- for a
  chain, edge ``e`` is the historical boundary ``(e, e + 1)``.  The table
  supports the K-way dynamic program of Algorithm 1
  (:meth:`CostTable.dp_partition`) and batched scoring of arbitrary base-K
  digit-patterns (:meth:`CostTable.score_codes`).  One DP driver serves
  chains and DAGs: it advances over *cut segments* (the stretches between
  layers no edge jumps across; on a chain, every layer transition),
  detects repeated segments once, replays a converged periodic region by
  translation under one exactness certificate, and backtracks once.  Only
  the segment step is per kind: the layer recurrence on chains (NumPy or
  the compiled kernel), batched branch-interior enumeration on DAGs.
* :class:`HierarchicalCostTable` -- every hierarchy level at once.  Under
  :attr:`~repro.core.tensors.ScalingMode.PARALLELISM_AWARE` scaling a
  layer's tensor amounts at level ``h`` depend only on how many of its
  previous ``h`` choices halved the batch fraction and how many halved the
  weight fraction, so the table stores one cost slice per
  ``(level, halving-state)`` and batched scoring reduces to a gather over
  cumulative per-effect counts.  This is also the scale-descent cache
  used by the sweeps and the training simulator: the per-level costs are
  derived once per model -- once per distinct layer cost signature --
  instead of once per candidate.

Bit-exactness
-------------
The vectorized paths are required (and property-tested) to agree *bit for
bit* with the object-based reference path, which remains the oracle:

* table entries are produced by the same :class:`CommunicationModel` calls
  the object path makes, so the stored floats are identical;
* batched totals accumulate per-layer ``intra + inter`` terms sequentially
  (layer 0, then layer 1, ...), reproducing the exact floating-point
  association of ``sum(record.total_bytes for record in breakdown)``;
* the array DP applies the same recurrence with the same tie rule
  (ties prefer the lowest strategy code -- dp first, matching
  :class:`~repro.core.partitioner.TwoWayPartitioner`), and batched argmins
  resolve ties to the lowest digit-pattern, matching the enumeration order
  of the reference brute force.

For the default dp/mp space the base-2 digit encoding *is* the paper's
dp/mp bit encoding (0 = dp, 1 = mp, least-significant digit = layer 0).

Breakdown objects are *lazy*: batch scorers return raw totals and only the
winning candidates are materialized into
:class:`~repro.core.result.PartitionResult` /
:class:`~repro.core.communication.LayerCommunication` records, on first
access of ``result.breakdown``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
from typing import Iterator, Sequence

import numpy as np

from repro.core import kernels
from repro.core.communication import CommunicationModel
from repro.core.parallelism import (
    DEFAULT_SPACE,
    HierarchicalAssignment,
    LayerAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.result import PartitionResult
from repro.core.strategies import BATCH, NONE, WEIGHT, strategy_spec
from repro.core.tensors import (
    LayerTensors,
    ScalingMode,
    TensorScale,
    layer_tensors,
    model_tensors,
)
from repro.nn.model import DNNModel

#: Candidates scored per NumPy batch; bounds peak memory of the gathered
#: (chunk, L) cost matrices to a few MB while keeping the per-chunk Python
#: overhead negligible.
DEFAULT_CHUNK_SIZE = 1 << 16

#: Largest enumerable packed-integer candidate space (int64 encodings).
_MAX_PACKED_SPACE = 1 << 62

#: Largest branch-interior pattern count the DAG dynamic program enumerates
#: per block (endpoints included).  The enumeration is chunked, so this
#: bounds *time*, not memory; real branching networks keep interiors to a
#: handful of layers, and hitting this limit means the model's branch
#: structure has no small cut decomposition.
DEFAULT_MAX_BLOCK_PATTERNS = 1 << 28

#: Chains shorter than this skip the repetition detector: the plain layer
#: loop finishes before the detection would pay for itself, and keeping
#: every historical (paper-zoo-sized) solve on the unmodified code path
#: makes the memoization a strict no-op for them.
_MEMOIZE_MIN_LAYERS = 32

#: Largest block period the repetition detector probes.  Transformer zoo
#: blocks repeat with period 4 (qkv / proj / up / down); the bound only
#: caps the (vectorized) detection work on aperiodic chains.
_MAX_MEMO_PERIOD = 64

#: Relative slack applied to dominance-pruning lower bounds before they
#: may discard a candidate chunk.  A bound assembled from per-term minima
#: uses a different float association than the exact sequential scorer, so
#: it can exceed a candidate's float total by a few ULPs; shrinking the
#: bound by far more than the worst accumulated rounding error (yet far
#: less than any real cost gap) keeps pruning bit-exact: no chunk holding
#: a first-minimum candidate is ever skipped.
_PRUNE_MARGIN = 1e-9

#: DAGs with fewer cut segments than this skip the block-repetition
#: detector, mirroring :data:`_MEMOIZE_MIN_LAYERS` for the cut-vertex
#: program: every paper-zoo branching network stays on the unmodified
#: path, and only deep residual stacks (``gpt_r``) pay for detection.
_MEMOIZE_MIN_BLOCKS = 16

#: Largest block-space period the DAG repetition detector probes.  A
#: residual transformer's cut segments alternate between the skip-free
#: connector and the skip-spanning interior (period 2); the small bound
#: keeps the detection cheap on aperiodic graphs.
_MAX_BLOCK_PERIOD = 8

#: Test hook: cumulative DAG periodic-block-jump statistics for the
#: process.  ``jumps`` counts successful jumps, ``jumped_blocks`` /
#: ``jumped_layers`` the cut segments / layers they replayed by
#: translation instead of enumeration.
DAG_JUMP_STATS = {"jumps": 0, "jumped_blocks": 0, "jumped_layers": 0}


def _resolve_chunk_size(chunk_size: int | None) -> int:
    """Normalize a public ``chunk_size=`` argument (``None`` = default)."""
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return int(chunk_size)


# ----------------------------------------------------------------------
# Module-level pieces of the DP driver -- the chain layer step and the
# exactness certificate -- and the digit-aligned chunk bound shared by the
# pruned enumerations.
# ----------------------------------------------------------------------


def _advance_chain_numpy(
    intra: np.ndarray,
    inter: np.ndarray,
    parents: np.ndarray,
    frontiers: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Advance the Algorithm 1 recurrence over layers ``[start, stop)``.

    Reads the frontier (``com``) of layer ``start - 1`` from ``frontiers``
    and writes one parent row and one frontier row per advanced layer --
    the historical ``dp_partition`` loop body, verbatim, with the frontier
    matrix standing in for the rolling ``com`` vector.
    """
    state = np.arange(intra.shape[1])
    com = frontiers[start - 1]
    for layer in range(start, stop):
        candidates = com[:, None] + inter[layer - 1]  # (from, to)
        # argmin resolves ties to the lowest code (dp), matching the
        # reference earliest-strategy-wins scan.
        choice = np.argmin(candidates, axis=0)
        parents[layer - 1] = choice
        com = candidates[choice, state] + intra[layer]
        frontiers[layer] = com


def _chain_advancer(backend: str):
    """The layer-advancement routine for a resolved backend name.

    Both compiled variants share the serial chain kernel: the recurrence
    is sequential in the layer axis, so there is nothing for the
    ``prange`` leg to parallelize.
    """
    if backend in kernels.COMPILED_BACKENDS and kernels.NUMBA_AVAILABLE:
        return kernels.chain_dp_compiled
    return _advance_chain_numpy


def _exactness_shift(arrays: Sequence[np.ndarray], magnitude: float) -> int | None:
    """Power-of-two shift making every entry an exact scaled integer.

    When all values are dyadic rationals at scale ``2**shift`` and every
    intermediate magnitude stays below ``2**53 / 2**shift``, IEEE double
    addition of these values is *exact* -- the precondition for replaying
    a converged DP period by translation instead of recomputation.
    Returns ``None`` when no such shift exists (jump declined, stepping
    continues).
    """
    for array in arrays:
        if not np.all(np.isfinite(array)):
            return None
    for shift in range(53):
        scale = float(1 << shift)
        if magnitude * scale >= 2.0**53:
            return None
        if all(np.all(array * scale == np.round(array * scale)) for array in arrays):
            return shift
    return None


def _chunk_lower_bound(
    rows: Sequence[np.ndarray],
    inter: np.ndarray,
    local_edges: Sequence[tuple[int, int, int]],
    base: int,
    chunk_limit: int,
):
    """Digit-aligned chunking of a digit block plus a per-chunk lower bound.

    Digit ``d`` of a pattern is the strategy code of row ``d``, which
    costs ``rows[d]`` (a DAG segment's row 0 is its entering frontier),
    and ``local_edges`` lists the block's ``(edge_index, source_digit,
    destination_digit)`` in ascending edge order.  The ``free_digits``
    lowest digits vary inside a chunk of ``chunk_span = base**free_digits
    <= chunk_limit`` patterns; the high digits are fixed per chunk.

    Returns ``(chunk_span, bound)``.  ``bound(chunk)`` prices
    chunk ``chunk``'s fixed digits exactly and every free term by its
    minimum (costs are nonnegative byte counts, so the sum bounds every
    pattern in the chunk from below); ``bound`` is ``None`` when one
    chunk covers every pattern.  The bound associates its adds
    differently from the exact scorers, so callers compare it under
    :data:`_PRUNE_MARGIN`.
    """
    num_digits = len(rows)
    free_digits = 0
    chunk_span = 1
    while free_digits < num_digits and chunk_span * base <= chunk_limit:
        chunk_span *= base
        free_digits += 1
    if free_digits == num_digits:
        return chunk_span, None
    free_floor = 0.0
    for digit in range(free_digits):
        free_floor += float(rows[digit].min())
    fixed_edges = []
    cross_edges = []
    for edge_index, source, destination in local_edges:
        if destination < free_digits:
            free_floor += float(inter[edge_index].min())
        elif source >= free_digits:
            fixed_edges.append((edge_index, source - free_digits, destination - free_digits))
        else:
            cross_edges.append((edge_index, destination - free_digits))

    def bound(chunk: int) -> float:
        fixed = _decode_digits(
            np.array([chunk], dtype=np.int64), num_digits - free_digits, base
        )[0]
        total = free_floor
        for digit in range(free_digits, num_digits):
            total += float(rows[digit][fixed[digit - free_digits]])
        for edge_index, source, destination in fixed_edges:
            total += float(inter[edge_index, fixed[source], fixed[destination]])
        for edge_index, destination in cross_edges:
            total += float(inter[edge_index, :, fixed[destination]].min())
        return total

    return chunk_span, bound


def _sequential_row_sum(per_layer: np.ndarray) -> np.ndarray:
    """Left-to-right sum along axis 1, matching Python's ``sum()`` exactly.

    ``np.sum`` uses pairwise summation whose rounding can differ from the
    sequential accumulation of the object-based reference path; an explicit
    column loop (cheap: one vector add per layer) guarantees bit-exact
    parity.
    """
    totals = per_layer[:, 0].copy()
    for column in range(1, per_layer.shape[1]):
        totals += per_layer[:, column]
    return totals


def _decode_digits(codes: np.ndarray, num_layers: int, base: int) -> np.ndarray:
    """Base-``base`` digit matrix ``(N, L)`` of packed candidate integers.

    Callers must ensure ``base ** num_layers`` fits the int64 packed
    encoding (:data:`_MAX_PACKED_SPACE`); the public packed-integer entry
    points check and direct deeper models to the decoded-matrix scorers.
    """
    if base == 2:
        shifts = np.arange(num_layers, dtype=np.int64)
        return (codes[:, None] >> shifts) & 1
    powers = base ** np.arange(num_layers, dtype=np.int64)
    return (codes[:, None] // powers) % base


def _chain_edges(num_layers: int) -> tuple[tuple[int, int], ...]:
    """The canonical edge list of a linear chain of ``num_layers`` layers."""
    return tuple((index, index + 1) for index in range(num_layers - 1))


def _normalize_edges(
    edges: Sequence[tuple[int, int]] | None, num_layers: int
) -> tuple[tuple[int, int], ...]:
    """Coerce an edge list to int tuples, defaulting ``None`` to the chain."""
    if edges is None:
        return _chain_edges(num_layers)
    return tuple((int(source), int(destination)) for source, destination in edges)


def _fill_cost_block(
    records: Sequence[LayerTensors],
    specs: Sequence,
    members: Sequence[Parallelism],
    communication_model: CommunicationModel,
    intra: np.ndarray | None = None,
    inter: np.ndarray | None = None,
    inter_forward: np.ndarray | None = None,
    inter_backward: np.ndarray | None = None,
    edges: Sequence[tuple[int, int]] | None = None,
) -> None:
    """Fill ``(L, K)`` intra / ``(E, K, K)`` inter cost blocks in place.

    ``edges`` is the canonical edge list the ``inter`` axis is indexed by
    (``None`` = chain, where edge ``e`` is the boundary ``(e, e + 1)``);
    the boundary tensor record of an edge is its *source* layer's.

    This is the cost-model seam of the table compiler: a *calibrated*
    model (profiled cost packs, ``is_calibrated``) owns per-entry scaling
    and latency terms, so every entry is produced by the same byte-level
    methods the object-based oracle evaluates -- tables and breakdowns
    agree bit for bit by construction.  For the plain analytic model the
    registry dispatch is hoisted out of the loops (a 512-layer search
    compiles thousands of entries), and the arithmetic inlines
    ``CommunicationModel.intra_layer_bytes`` / ``inter_layer_bytes`` /
    the directional splits exactly -- same additions and multiplications
    in the same order -- so the stored floats are identical to the object
    path's.  This is the single copy of that inlined arithmetic; every
    table compilation routes through it.
    """
    if edges is None:
        edges = _chain_edges(len(records))
    model = communication_model
    if model.is_calibrated:
        if intra is not None:
            for index, record in enumerate(records):
                for code, member in enumerate(members):
                    intra[index, code] = model.intra_layer_bytes(record, member)
        for edge_index, (source, _destination) in enumerate(edges):
            boundary = records[source]
            for q_code, current in enumerate(members):
                for p_code, previous in enumerate(members):
                    if inter is not None:
                        inter[edge_index, p_code, q_code] = model.inter_layer_bytes(
                            previous, current, boundary
                        )
                    if inter_forward is not None:
                        inter_forward[edge_index, p_code, q_code] = (
                            model.inter_layer_forward_bytes(previous, current, boundary)
                        )
                    if inter_backward is not None:
                        inter_backward[edge_index, p_code, q_code] = (
                            model.inter_layer_backward_bytes(previous, current, boundary)
                        )
        return
    bytes_per_element = model.bytes_per_element
    pair_factor = model.pair_factor
    if intra is not None:
        for index, record in enumerate(records):
            for code, spec in enumerate(specs):
                intra[index, code] = (
                    spec.intra_elements(record) * bytes_per_element * pair_factor
                )
    for edge_index, (source, _destination) in enumerate(edges):
        boundary = records[source]
        for q_code, spec in enumerate(specs):
            forward_elements = spec.inter_forward_elements
            backward_elements = spec.inter_backward_elements
            for p_code, previous in enumerate(members):
                forward = forward_elements(previous, boundary)
                backward = backward_elements(previous, boundary)
                if inter is not None:
                    inter[edge_index, p_code, q_code] = (
                        (forward + backward) * bytes_per_element * pair_factor
                    )
                if inter_forward is not None:
                    inter_forward[edge_index, p_code, q_code] = (
                        forward * bytes_per_element * pair_factor
                    )
                if inter_backward is not None:
                    inter_backward[edge_index, p_code, q_code] = (
                        backward * bytes_per_element * pair_factor
                    )


@dataclasses.dataclass(frozen=True, eq=False)
class CostTable:
    """Compiled per-layer communication costs for one hierarchy level.

    Identity equality (``eq=False``): the ndarray fields make a generated
    value ``__eq__`` raise, and two independently compiled tables are never
    meaningfully "the same" object to a cache anyway.

    Attributes
    ----------
    intra:
        ``(L, K)`` float array; ``intra[l, c]`` is the Table-1 intra-layer
        traffic (bytes) of layer ``l`` under strategy code ``c``.
    inter:
        ``(E, K, K)`` float array; ``inter[e, c, d]`` is the Table-2
        inter-layer traffic (bytes) of edge ``e = (src, dst)`` of the layer
        DAG when ``src`` uses code ``c`` and ``dst`` uses code ``d``.  For
        a chain ``E = L - 1`` and edge ``e`` is the historical boundary
        ``(e, e + 1)``.
    tensors:
        The tensor records the table was compiled from (a sequence, one
        per layer), kept so winning candidates can lazily materialize their
        full breakdown through the object-based reference path.  Tables
        gathered from a :class:`HierarchicalCostTable` build them on first
        access.
    communication_model:
        The model used to compile the table (and to materialize breakdowns).
    strategies:
        The strategy space defining the code axis (dp/mp by default).
    edges:
        The canonical ``(source, destination)`` edge list the ``inter``
        axis is indexed by (ordered by destination, then input position);
        ``None`` normalizes to the chain.
    backend:
        Kernel backend for the search hot paths: ``"numpy"`` (the
        vectorized loops), ``"compiled"`` (numba ``@njit`` kernels for
        the chain DP, the DAG cut-vertex DP and the batched scorers,
        silently falling back to NumPy when numba is absent),
        ``"compiled-parallel"`` (the same kernels with ``prange``
        candidate scoring), or ``None`` to follow the process default
        (:func:`repro.core.kernels.get_default_backend`), resolved at
        each use.  Backends are bit-exact with each other.
    """

    intra: np.ndarray
    inter: np.ndarray
    tensors: Sequence[LayerTensors]
    communication_model: CommunicationModel
    strategies: StrategySpace = DEFAULT_SPACE
    edges: tuple[tuple[int, int], ...] | None = None
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", _normalize_edges(self.edges, len(self.tensors))
        )
        kernels.validate_backend(self.backend)
        kernels.warn_numba_fallback(self.backend)

    @functools.cached_property
    def is_chain(self) -> bool:
        """True when the edge list is the historical linear chain."""
        return self.edges == _chain_edges(self.num_layers)

    @functools.cached_property
    def _kernel_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(edge_index, source, destination)`` arrays for the DAG kernels.

        Grouped by destination with a *stable* sort, so each merge
        layer's incoming edges keep their canonical relative order and
        the kernels' per-destination accumulation is bit-exact with the
        NumPy edge loop.
        """
        order = sorted(range(len(self.edges)), key=lambda e: self.edges[e][1])
        edge_index = np.array(order, dtype=np.int64)
        edge_source = np.array(
            [self.edges[e][0] for e in order], dtype=np.int64
        )
        edge_destination = np.array(
            [self.edges[e][1] for e in order], dtype=np.int64
        )
        return edge_index, edge_source, edge_destination

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    @classmethod
    def from_tensors(
        cls,
        tensors: Sequence[LayerTensors],
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        edges: Sequence[tuple[int, int]] | None = None,
        backend: str | None = None,
    ) -> "CostTable":
        """Compile the table from per-layer tensor amounts.

        ``edges`` is the layer DAG's canonical edge list; omitted it
        defaults to the chain, which keeps every historical call site (and
        its outputs) untouched.
        """
        tensors = tuple(tensors)
        if not tensors:
            raise ValueError("cannot build a cost table for zero layers")
        space = StrategySpace.parse(strategies)
        model = communication_model or CommunicationModel()
        edge_list = _normalize_edges(edges, len(tensors))
        num_strategies = space.size
        intra = np.empty((len(tensors), num_strategies), dtype=np.float64)
        inter = np.zeros(
            (len(edge_list), num_strategies, num_strategies), dtype=np.float64
        )
        _fill_cost_block(
            tensors,
            [strategy_spec(member) for member in space],
            space.members,
            model,
            intra=intra,
            inter=inter,
            edges=edge_list,
        )
        return cls(
            intra=intra,
            inter=inter,
            tensors=tensors,
            communication_model=model,
            strategies=space,
            edges=edge_list,
            backend=backend,
        )

    @classmethod
    def compile(
        cls,
        model: DNNModel,
        batch_size: int,
        scales: Sequence[TensorScale] | None = None,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> "CostTable":
        """Compile the table for ``model`` at ``batch_size`` (and ``scales``)."""
        return cls.from_tensors(
            model_tensors(model, batch_size, scales),
            communication_model,
            strategies,
            edges=model.edges,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.tensors)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_strategies(self) -> int:
        """The base ``K`` of the candidate digit encoding."""
        return self.strategies.size

    @property
    def num_assignments(self) -> int:
        """Size of the full assignment space for this level (``K**L``)."""
        return self.strategies.num_assignments(self.num_layers)

    # ------------------------------------------------------------------
    # Algorithm 1 as a K-way array DP over the table's cut segments.
    # ------------------------------------------------------------------

    def dp_partition(self, *, memoize: bool = True) -> PartitionResult:
        """Optimal per-layer assignment over the table (Algorithm 1, generalized).

        One dynamic program serves chains and DAGs.  It runs over the
        table's *cut vertices* (layers no edge jumps across; on a chain,
        every layer) and keeps ``com[c]`` -- the minimal accumulated cost
        of the prefix through the current cut vertex under code ``c`` --
        advancing one cut segment at a time (:meth:`_run_dp`).  Only the
        segment step differs by kind:

        * on a chain, runs of segments go through the layer recurrence of
          :meth:`~repro.core.partitioner.TwoWayPartitioner.partition_tensors_reference`
          on the table's :attr:`backend` -- same additions in the same
          order, ``(com + inter) + intra``, ties preferring the lowest
          strategy code (dp first) -- so the optimum is bit-exact with the
          object-based oracle;
        * on a DAG, each segment enumerates all ``K**(I + 2)`` code
          patterns of its ``I`` interior layers plus both endpoints in
          batched operations (:meth:`_advance_dag_block`), with the
          ``com + (intra + sum(inter))`` association of
          :meth:`score_codes`.  IEEE addition is monotone, so the per-state
          minima compose exactly and the optimum equals the brute-force
          minimum of :meth:`score_codes`, float for float; ties resolve to
          the lowest pattern digits (dp-first per layer).

        With ``memoize`` on (the default), repeated cut segments --
        transformer blocks on ``gpt_s``/``bert_s`` chains, residual blocks
        on ``gpt_r`` DAGs -- are replayed by translation once the program
        provably reaches its steady state (:meth:`_try_periodic_jump`),
        byte-identical to cold stepping; ``memoize=False`` forces the cold
        step for oracle runs.  The per-layer breakdown of the winner is
        materialized lazily.
        """
        frontiers, argmins = self._dp_state()
        return self._solve(frontiers, argmins, 0, memoize=memoize)[0]

    def cut_vertices(self) -> list[int]:
        """Layers no edge jumps across (every source-to-sink path visits them).

        A layer ``v`` is a cut vertex when no edge ``(a, b)`` satisfies
        ``a < v < b``.  The first and last layers always qualify; on a
        chain every layer does.  Consecutive cut vertices delimit the
        *cut segments* the dynamic program advances over.
        """
        interior = [False] * self.num_layers
        for source, destination in self.edges:
            for vertex in range(source + 1, destination):
                interior[vertex] = True
        return [vertex for vertex in range(self.num_layers) if not interior[vertex]]

    @functools.cached_property
    def _cuts(self) -> Sequence[int]:
        """:meth:`cut_vertices`, as a ``range`` on chains."""
        if self.is_chain:
            return range(self.num_layers)
        return tuple(self.cut_vertices())

    def _dp_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``(frontiers, argmins)`` arrays of the dynamic program.

        ``frontiers[v]`` is ``com`` at cut vertex ``v`` (row 0, layer 0's
        intra term, is filled in); ``argmins[s]`` maps segment ``s``'s
        closing code to its winning low digits -- on a chain the parent
        code (``int8``, the compiled kernel's dtype), on a DAG the pattern
        of the entering cut vertex and the interior layers.
        """
        cuts = self._cuts
        frontiers = np.empty((len(cuts), self.num_strategies), dtype=np.float64)
        frontiers[0] = self.intra[0]  # layer 0 pays only its intra term
        argmins = np.empty(
            (len(cuts) - 1, self.num_strategies),
            dtype=np.int8 if self.is_chain else np.int64,
        )
        return frontiers, argmins

    def _solve(
        self, frontiers: np.ndarray, argmins: np.ndarray, start: int, *, memoize: bool
    ) -> tuple[PartitionResult, int]:
        """Run the program from segment ``start`` and backtrack the optimum.

        ``frontiers[: start + 1]`` and ``argmins[:start]`` must hold a
        valid prefix (:class:`WarmStartDP` replays a cached one).  Returns
        the result and the number of layers filled by jumps.
        """
        jumped_segments, jumped_layers = self._run_dp(
            frontiers, argmins, start, memoize=memoize
        )
        if jumped_segments and not self.is_chain:
            DAG_JUMP_STATS["jumps"] += 1
            DAG_JUMP_STATS["jumped_blocks"] += jumped_segments
            DAG_JUMP_STATS["jumped_layers"] += jumped_layers

        com = frontiers[-1]
        last = int(np.argmin(com))  # tie -> lowest code, the reference rule
        total = float(com[last])
        # Backtrack over plain Python lists: scalar ndarray indexing costs
        # ~4x more per step, and at transformer depth the backtrack would
        # otherwise dominate the memoized solve.  Each segment's argmin
        # packs the codes of its entering cut vertex and interior layers
        # as base-K digits, lowest layer first.
        cuts = self._cuts
        base = self.num_strategies
        argmin_rows = argmins.tolist()
        codes = [0] * self.num_layers
        stop = cuts[-1]
        codes[stop] = last
        for segment in range(len(cuts) - 2, -1, -1):
            first = cuts[segment]
            rest = argmin_rows[segment][codes[stop]]
            if stop - first == 1:
                codes[first] = rest  # a one-layer segment's rest is one code
            else:
                for layer in range(first, stop):
                    rest, codes[layer] = divmod(rest, base)
            stop = first

        members = self.strategies.members
        assignment = LayerAssignment(tuple(members[code] for code in codes))
        return self.lazy_result(assignment, total), jumped_layers

    def _run_dp(
        self, frontiers: np.ndarray, argmins: np.ndarray, start: int, *, memoize: bool
    ) -> tuple[int, int]:
        """Fill ``frontiers[start + 1:]`` and ``argmins[start:]``.

        The single driver behind :meth:`dp_partition` and
        :class:`WarmStartDP`.  With ``memoize`` on and a periodic segment
        region ahead (:meth:`_detect_periodic_segments`), it steps whole
        periods from the first period boundary at or after ``start`` and,
        once two have been stepped, tries to replay the rest of the region
        by translation (:meth:`_try_periodic_jump`); one region per solve.
        Returns ``(jumped segments, jumped layers)``; every filled row is
        bit-exact with cold stepping.
        """
        cuts = self._cuts
        num_segments = len(cuts) - 1
        step = self._segment_step(frontiers, argmins)
        min_segments = _MEMOIZE_MIN_LAYERS if self.is_chain else _MEMOIZE_MIN_BLOCKS
        detected = None
        if memoize and num_segments - start >= min_segments:
            detected = self._detect_periodic_segments()
        if detected is None:
            step(start, num_segments)
            return 0, 0
        period, first, stop = detected
        last_boundary = first + ((stop - first) // period) * period
        blocks_behind = -(-(max(start, first) - first) // period)  # ceil division
        cursor = first + blocks_behind * period
        if cursor + 2 * period > last_boundary:
            step(start, num_segments)
            return 0, 0
        step(start, cursor)
        stepped_periods = 0
        jumped = 0
        while cursor + period <= last_boundary:
            step(cursor, cursor + period)
            stepped_periods += 1
            cursor += period
            remaining = (last_boundary - cursor) // period
            if (
                stepped_periods >= 2
                and remaining >= 1
                and self._try_periodic_jump(frontiers, argmins, cursor, period, remaining)
            ):
                jumped = remaining * period
                cursor += jumped
                break
        step(cursor, num_segments)
        return jumped, cuts[cursor] - cuts[cursor - jumped]

    def _segment_step(self, frontiers: np.ndarray, argmins: np.ndarray):
        """``step(first, stop)``: advance segments ``[first, stop)`` in place.

        Chains step whole runs through the layer recurrence
        (:func:`_chain_advancer`: the NumPy loop or the compiled kernel);
        DAGs enumerate one segment at a time (:meth:`_advance_dag_block`).
        The two associate their adds differently, so a chain never goes
        through the (far costlier) segment enumeration.
        """
        if self.is_chain:
            advance = _chain_advancer(kernels.resolve_backend(self.backend))
            intra, inter = self.intra, self.inter

            def step(first: int, stop: int) -> None:
                # Segment ``s`` is the transition into layer ``s + 1``.
                advance(intra, inter, argmins, frontiers, first + 1, stop + 1)

            return step
        cuts = self._cuts

        def step(first: int, stop: int) -> None:
            for segment in range(first, stop):
                frontiers[segment + 1], argmins[segment] = self._advance_dag_block(
                    frontiers[segment], cuts[segment], cuts[segment + 1]
                )

        return step

    def _block_local_edges(
        self, block_start: int, block_end: int
    ) -> list[tuple[int, int, int]]:
        """``(edge_index, local_source, local_destination)`` of one cut segment.

        Local coordinates are relative to ``block_start``; an edge belongs
        to the block that contains its destination (the entering cut
        vertex's own incoming edges were settled by the previous block).
        """
        edges = self.edges
        local = []
        for edge_index in self._edges_into(block_start, block_end):
            source, destination = edges[edge_index]
            local.append((edge_index, source - block_start, destination - block_start))
        return local

    @functools.cached_property
    def _edges_by_destination(self) -> dict[int, list[int]]:
        """Edge indices bucketed by destination layer, ascending per bucket."""
        buckets: dict[int, list[int]] = {}
        for edge_index, (_, destination) in enumerate(self.edges):
            buckets.setdefault(destination, []).append(edge_index)
        return buckets

    def _edges_into(self, start: int, end: int) -> list[int]:
        """Ascending indices of the edges whose destination is in ``(start, end]``."""
        buckets = self._edges_by_destination
        return sorted(
            edge_index
            for destination in range(start + 1, end + 1)
            for edge_index in buckets.get(destination, ())
        )

    def _detect_periodic_segments(self) -> tuple[int, int, int] | None:
        """Smallest ``(period, first, stop)`` with segments ``first:stop`` periodic.

        Segment ``s`` matches segment ``s + period`` when their signatures
        are equal: the same local shape (layer span and local edge
        endpoints) and numerically equal cost entries -- the intra rows
        past the entering cut vertex and, pairing the local edge lists
        positionally, each edge's inter table.  Equal signatures make the
        segment maps identical functions of ``com``, the precondition for
        the steady-state jump.  On a chain every segment has the same
        shape, so the signature of transition ``j`` is the row
        ``(inter[j], intra[j + 1])`` and the whole comparison stays
        vectorized; on a DAG each segment's signature is interned to an
        integer id.  Periods are probed in ascending order with one
        shifted comparison each, and the longest run of shift-equal
        segments wins (a stem before and a head after the repeated blocks
        are the norm, so the region rarely reaches either end).  At least
        four full periods are required so the stabilization check (step
        two periods, jump the rest) has room to pay off.  Returns ``None``
        when no periodic region exists.
        """
        cuts = self._cuts
        num_segments = len(cuts) - 1
        if self.is_chain:
            signatures = np.concatenate(
                (self.inter.reshape(num_segments, -1), self.intra[1:]), axis=1
            )
            max_period = _MAX_MEMO_PERIOD
        else:
            interned: dict[tuple, int] = {}
            ids = []
            for segment in range(num_segments):
                block_start, block_end = cuts[segment], cuts[segment + 1]
                local_edges = self._block_local_edges(block_start, block_end)
                # ``+ 0.0`` folds -0.0 into 0.0, so byte equality is ``==``.
                key = (
                    block_end - block_start,
                    tuple((source, destination) for _, source, destination in local_edges),
                    (self.intra[block_start + 1 : block_end + 1] + 0.0).tobytes(),
                    (self.inter[[edge for edge, _, _ in local_edges]] + 0.0).tobytes(),
                )
                ids.append(interned.setdefault(key, len(interned)))
            signatures = np.array(ids, dtype=np.int64)[:, None]
            max_period = _MAX_BLOCK_PERIOD
        for period in range(1, min(max_period, num_segments // 4) + 1):
            # equal[s]: segment s matches segment s + period.
            equal = np.all(signatures[period:] == signatures[:-period], axis=1)
            # Longest run of consecutive shift-equal segments.
            padded = np.concatenate(([False], equal, [False]))
            changes = np.flatnonzero(padded[1:] != padded[:-1])
            if changes.size == 0:
                continue
            run_starts = changes[::2]
            run_lengths = changes[1::2] - run_starts
            longest = int(np.argmax(run_lengths))
            first = int(run_starts[longest])
            length = int(run_lengths[longest])
            # ``equal[s]`` ties segment ``s`` to ``s + period``, so the
            # periodic region covers ``length + period`` segments.
            if (length + period) // period >= 4:
                return period, first, first + length + period
        return None

    def _try_periodic_jump(
        self,
        frontiers: np.ndarray,
        argmins: np.ndarray,
        cursor: int,
        period: int,
        count: int,
    ) -> bool:
        """Replay ``count`` converged periods from segment ``cursor`` on.

        ``cursor`` is the next segment to advance, with at least two full
        periods stepped immediately before it.  The jump fires only when
        the program has provably entered its steady state:

        * ``com`` advanced by a *uniform* increment ``step`` over the last
          period, and the last two periods produced identical argmin rows
          (max-plus theory: the power iteration of a periodic transition
          map converges to uniform growth);
        * an exactness certificate holds (:func:`_exactness_shift`) for
          every participating value -- the boundary ``com``, ``step``, and
          one period's intra rows and inter tables -- so the float adds the
          skipped stepping *would* perform are exact and equal
          ``previous period + step`` bit for bit, including every argmin
          tie, which is decided by exact comparisons of translated values.

        On success the jumped frontier rows are broadcast translations of
        the last stepped period and the argmin rows are tiled copies; the
        result is byte-identical to cold stepping.  Returns ``False``
        (the caller keeps stepping) when any check fails.
        """
        boundary = frontiers[cursor]
        delta = boundary - frontiers[cursor - period]
        if not np.all(delta == delta[0]):
            return False
        if not np.array_equal(
            argmins[cursor - period : cursor],
            argmins[cursor - 2 * period : cursor - period],
        ):
            return False
        step = float(delta[0])
        cuts = self._cuts
        period_start, period_end = cuts[cursor - period], cuts[cursor]
        intra_period = self.intra[period_start + 1 : period_end + 1]
        if self.is_chain:
            inter_period = self.inter[period_start:period_end]
        else:
            inter_period = self.inter[self._edges_into(period_start, period_end)]
        block_max = max(
            float(np.abs(intra_period).max()),
            float(np.abs(inter_period).max()) if inter_period.size else 0.0,
            1.0,
        )
        period_terms = (period_end - period_start) + inter_period.shape[0]
        magnitude = float(np.abs(boundary).max()) + (count + 2) * (
            abs(step) + block_max * (period_terms + 2)
        )
        shift = _exactness_shift(
            [boundary, np.array([step]), intra_period, inter_period], magnitude
        )
        if shift is None:
            return False
        base_frontiers = frontiers[cursor - period + 1 : cursor + 1]
        offsets = np.arange(1, count + 1, dtype=np.float64) * step
        frontiers[cursor + 1 : cursor + 1 + count * period] = (
            base_frontiers[None, :, :] + offsets[:, None, None]
        ).reshape(count * period, frontiers.shape[1])
        argmins[cursor : cursor + count * period] = np.tile(
            argmins[cursor - period : cursor], (count, 1)
        )
        return True

    def _advance_dag_block(
        self, com: np.ndarray, block_start: int, block_end: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance the cut-vertex DP across one block ``[block_start, block_end]``.

        ``com`` is the accumulated prefix cost through the entering cut
        vertex; returns ``(best, best_rest)`` -- the new frontier indexed
        by the closing cut vertex's code, and each frontier entry's
        winning low-digit pattern.  On a compiled backend the per-chunk
        candidate totals come from the numba block scorer
        (:func:`repro.core.kernels.dag_block_totals_compiled`, bit-exact
        with the NumPy body); chunking, dominance pruning and the
        strict-``<`` end-code scan stay in shared NumPy code, so every
        backend walks the identical sequence of comparisons.
        """
        num_strategies = self.num_strategies
        interior_count = block_end - block_start - 1
        num_patterns = num_strategies ** (interior_count + 2)
        if num_patterns > DEFAULT_MAX_BLOCK_PATTERNS:
            raise ValueError(
                f"branch interior between layers {block_start} and "
                f"{block_end} spans {interior_count + 2} layers; "
                f"{num_strategies}**{interior_count + 2} patterns exceed "
                f"the enumeration limit of {DEFAULT_MAX_BLOCK_PATTERNS}"
            )
        block_layers = interior_count + 2
        block_edges = self._block_local_edges(block_start, block_end)
        use_kernel = kernels.compiled_active(self.backend)
        if use_kernel:
            # Group the block's edges by local destination (stably) for
            # the kernel's single-pass walk; arrays are materialized once
            # per block, not per chunk.
            order = sorted(range(len(block_edges)), key=lambda e: block_edges[e][2])
            kernel_edge_index = np.array(
                [block_edges[e][0] for e in order], dtype=np.int64
            )
            kernel_edge_source = np.array(
                [block_edges[e][1] for e in order], dtype=np.int64
            )
            kernel_edge_destination = np.array(
                [block_edges[e][2] for e in order], dtype=np.int64
            )
            kernel_intra = np.ascontiguousarray(self.intra)
            kernel_inter = np.ascontiguousarray(self.inter)
            kernel_com = np.ascontiguousarray(com)
            parallel = kernels.parallel_active(self.backend)
        # The block-end code is the most significant digit; patterns
        # split as ``rest + group_size * end_code``.
        group_size = num_patterns // num_strategies
        best = np.full(num_strategies, np.inf)
        best_rest = np.zeros(num_strategies, dtype=np.int64)
        # Digit-aligned chunking keeps every chunk's high digits constant,
        # enabling dominance pruning.  Chunk boundaries never affect the
        # result: the strict-< running minima scan codes in ascending
        # order, so any partition of that order yields the identical
        # winner.
        chunk_span, bound = _chunk_lower_bound(
            [com, *self.intra[block_start + 1 : block_end + 1]],
            self.inter,
            block_edges,
            num_strategies,
            DEFAULT_CHUNK_SIZE,
        )
        for start in range(0, num_patterns, chunk_span):
            # Strictly-worse chunks cannot improve (or first-tie) any end
            # code's running minimum; the margin absorbs the bound's
            # different float association, keeping the scan's output
            # byte-identical to the unpruned enumeration.
            if bound is not None and bound(start // chunk_span) * (
                1.0 - _PRUNE_MARGIN
            ) > float(best.max()):
                continue
            codes = np.arange(
                start, min(start + chunk_span, num_patterns), dtype=np.int64
            )
            if use_kernel:
                totals = np.empty(codes.shape[0], dtype=np.float64)
                kernels.dag_block_totals_compiled(
                    kernel_com,
                    kernel_intra,
                    kernel_inter,
                    kernel_edge_index,
                    kernel_edge_source,
                    kernel_edge_destination,
                    block_start,
                    block_layers,
                    num_strategies,
                    start,
                    totals,
                    parallel=parallel,
                )
            else:
                decoded = _decode_digits(codes, block_layers, num_strategies)
                # Column 0 carries the accumulated prefix cost (the cut
                # vertex's own term is already inside ``com``); later
                # columns carry ``intra + (sequential sum of incoming-edge
                # inters)`` exactly like the batched scorer.
                per_layer = np.empty((codes.shape[0], block_layers), dtype=np.float64)
                per_layer[:, 0] = com[decoded[:, 0]]
                for local in range(1, block_layers):
                    per_layer[:, local] = self.intra[block_start + local][
                        decoded[:, local]
                    ]
                inter_acc = np.zeros_like(per_layer)
                for edge_index, local_source, local_destination in block_edges:
                    inter_acc[:, local_destination] += self.inter[
                        edge_index,
                        decoded[:, local_source],
                        decoded[:, local_destination],
                    ]
                per_layer[:, 1:] += inter_acc[:, 1:]
                totals = _sequential_row_sum(per_layer)
            end_codes = codes // group_size
            # Strict ``<`` against the running minima keeps the first
            # (lowest-pattern) winner across ascending chunks, matching
            # the unchunked group-argmin tie rule.
            for end_code in np.unique(end_codes):
                mask = end_codes == end_code
                subset = totals[mask]
                index = int(np.argmin(subset))
                if subset[index] < best[end_code]:
                    best[end_code] = subset[index]
                    best_rest[end_code] = codes[mask][index] % group_size
        return best, best_rest

    # ------------------------------------------------------------------
    # Batched scoring of candidate digit-patterns.
    # ------------------------------------------------------------------

    def score_codes(
        self, codes: np.ndarray | Sequence[int], chunk_size: int | None = None
    ) -> np.ndarray:
        """Total communication bytes for a batch of packed digit-patterns.

        ``codes`` encodes one candidate per element with the
        :meth:`~repro.core.parallelism.LayerAssignment.from_codes`
        convention (least-significant digit = layer 0, digit value =
        strategy code).  Returns a float array of the same length whose
        entries are bit-exact with ``CommunicationModel.total_bytes`` on
        the decoded assignments.

        ``chunk_size`` bounds the peak memory of the gathered ``(chunk,
        L)`` cost matrices (``None`` = :data:`DEFAULT_CHUNK_SIZE`); each
        candidate is scored independently, so every chunk size returns
        byte-identical totals.
        """
        if self.num_assignments > _MAX_PACKED_SPACE:
            # base ** layer powers would overflow int64 and decode garbage
            # digits; deep models must score decoded assignments instead.
            raise ValueError(
                f"a {self.num_strategies}**{self.num_layers} space overflows "
                "the 64-bit packed encoding; score assignments via "
                "total_bytes() instead"
            )
        step = _resolve_chunk_size(chunk_size)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"codes must be one-dimensional, got shape {codes.shape}")
        totals = np.empty(codes.shape[0], dtype=np.float64)
        for start in range(0, codes.shape[0], step):
            chunk = codes[start : start + step]
            totals[start : start + chunk.shape[0]] = self._score_chunk(chunk)
        return totals

    def _score_chunk(self, codes: np.ndarray) -> np.ndarray:
        return self._score_decoded(
            _decode_digits(codes, self.num_layers, self.num_strategies)
        )

    def _score_decoded(self, decoded: np.ndarray) -> np.ndarray:
        """Score candidates given an ``(N, L)`` strategy-code matrix.

        Depth-safe core scorer: unlike the packed-integer entry points it
        has no 64-bit encoding limit, so single assignments of arbitrarily
        deep models route through it.  On the compiled backends both chain
        and DAG tables dispatch to the numba scorer kernels (bit-exact;
        see :mod:`repro.core.kernels`), with ``"compiled-parallel"``
        selecting the ``prange`` variants.
        """
        num_layers = self.num_layers
        if kernels.compiled_active(self.backend):
            totals = np.empty(decoded.shape[0], dtype=np.float64)
            parallel = kernels.parallel_active(self.backend)
            decoded_codes = np.ascontiguousarray(decoded, dtype=np.int64)
            if self.is_chain:
                kernels.score_decoded_chain_compiled(
                    np.ascontiguousarray(self.intra),
                    np.ascontiguousarray(self.inter),
                    decoded_codes,
                    totals,
                    parallel=parallel,
                )
            else:
                edge_index, edge_source, edge_destination = self._kernel_edges
                kernels.score_decoded_dag_compiled(
                    np.ascontiguousarray(self.intra),
                    np.ascontiguousarray(self.inter),
                    edge_index,
                    edge_source,
                    edge_destination,
                    decoded_codes,
                    totals,
                    parallel=parallel,
                )
            return totals
        per_layer = self.intra[np.arange(num_layers), decoded]  # (N, L)
        if self.is_chain:
            if num_layers > 1:
                boundary = np.arange(num_layers - 1)
                # One add per layer term keeps the ``intra + inter``
                # association of LayerCommunication.total_bytes.
                per_layer[:, 1:] += self.inter[boundary, decoded[:, :-1], decoded[:, 1:]]
        else:
            # A merge layer has several incoming edges, so its inter terms
            # are accumulated (in canonical edge order) into a separate
            # buffer first and added to the intra term once -- the
            # ``intra + (e1 + e2 + ...)`` association of the object path.
            inter_acc = np.zeros_like(per_layer)
            for edge_index, (source, destination) in enumerate(self.edges):
                inter_acc[:, destination] += self.inter[
                    edge_index, decoded[:, source], decoded[:, destination]
                ]
            per_layer += inter_acc
        return _sequential_row_sum(per_layer)

    def iter_all_codes(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[np.ndarray]:
        """Chunked enumeration of the full ``K**L`` digit-pattern space."""
        if self.num_assignments > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.num_layers} "
                "space with 64-bit packed encodings"
            )
        for start in range(0, self.num_assignments, chunk_size):
            stop = min(start + chunk_size, self.num_assignments)
            yield np.arange(start, stop, dtype=np.int64)

    def argmin_assignment(
        self,
        *,
        chunk_size: int | None = None,
        prune: bool = False,
        upper_bound: float | None = None,
    ) -> tuple[int, float]:
        """Brute-force optimum over all ``K**L`` assignments.

        Returns ``(codes, total_bytes)`` of the first minimum in
        enumeration order (lowest digit-pattern wins ties), matching the
        reference strict-``<`` scan of the object-based brute force.

        With ``prune`` on, the scan becomes a branch-and-bound: chunks are
        aligned to digit boundaries, a per-chunk lower bound (exact fixed
        high-digit cost plus per-term minima over the free digits; every
        cost is a nonnegative byte count) is compared against the running
        incumbent -- seeded from ``upper_bound`` when given, e.g. by a
        preceding :meth:`dp_partition` -- and strictly-dominated chunks
        are skipped without scoring.  The margined strict comparison
        (:data:`_PRUNE_MARGIN`) guarantees no chunk containing a first
        minimum is ever discarded, so the returned pair is byte-identical
        to the unpruned scan.  ``chunk_size`` bounds peak memory either
        way.
        """
        step = _resolve_chunk_size(chunk_size)
        if prune:
            return self._argmin_pruned(step, upper_bound)
        best_codes = -1
        best_total = np.inf
        for chunk in self.iter_all_codes(step):
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    def _argmin_pruned(
        self, chunk_size: int, upper_bound: float | None
    ) -> tuple[int, float]:
        """Branch-and-bound enumeration behind :meth:`argmin_assignment`."""
        if self.num_assignments > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.num_layers} "
                "space with 64-bit packed encodings"
            )
        # Digit-aligned chunks: the low digits enumerate inside a chunk,
        # the high digits are fixed per chunk and priced exactly in the
        # bound.
        edges = [
            (edge_index, source, destination)
            for edge_index, (source, destination) in enumerate(self.edges)
        ]
        span, bound = _chunk_lower_bound(
            self.intra, self.inter, edges, self.num_strategies, chunk_size
        )
        if bound is None:
            # One chunk covers the space; nothing to prune against.
            return self.argmin_assignment(chunk_size=chunk_size)
        incumbent = np.inf if upper_bound is None else float(upper_bound)
        best_codes = -1
        best_total = np.inf
        for start in range(0, self.num_assignments, span):
            # Strict, margined dominance: skipped chunks hold only totals
            # strictly above the incumbent, so neither the minimum value
            # nor the first-minimum tie winner can live there.
            if bound(start // span) * (1.0 - _PRUNE_MARGIN) > min(incumbent, best_total):
                continue
            chunk = np.arange(
                start, min(start + span, self.num_assignments), dtype=np.int64
            )
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    # ------------------------------------------------------------------
    # Lazy materialization of winners.
    # ------------------------------------------------------------------

    def total_bytes(self, assignment: LayerAssignment) -> float:
        """Total traffic of one assignment (fast path, no breakdown objects).

        Decodes the assignment directly instead of round-tripping through a
        packed integer, so models with 64+ weighted layers work too.
        """
        self._check_assignment(assignment)
        code_of = self.strategies.code_of
        decoded = np.array([[code_of(choice) for choice in assignment]], dtype=np.int64)
        return float(self._score_decoded(decoded)[0])

    def lazy_result(
        self, assignment: LayerAssignment, total_bytes: float
    ) -> PartitionResult:
        """A :class:`PartitionResult` whose breakdown materializes on access."""
        tensors = self.tensors
        model = self.communication_model
        edges = self.edges
        return PartitionResult(
            assignment=assignment,
            communication_bytes=total_bytes,
            breakdown_factory=lambda: tuple(
                model.layer_breakdown(tensors, assignment, edges)
            ),
        )

    def result_for_codes(self, codes: int) -> PartitionResult:
        """Materialize the :class:`PartitionResult` of one digit-pattern."""
        assignment = LayerAssignment.from_codes(
            codes, self.num_layers, self.strategies
        )
        total = float(self.score_codes(np.array([codes], dtype=np.int64))[0])
        return self.lazy_result(assignment, total)

    def _check_assignment(self, assignment: LayerAssignment) -> None:
        if assignment.num_layers != self.num_layers:
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"table has {self.num_layers}"
            )


class WarmStartDP:
    """Incremental :meth:`CostTable.dp_partition` across consecutive solves.

    Elastic re-planning under node churn keeps solving near-identical
    tables: when the array shrinks or regrows, the level tables of the
    surviving hierarchy share a leading run of layers (often all of them)
    with the previous solve.  This solver caches the chain DP's per-layer
    frontier -- the ``com`` vector after each layer -- together with the
    parent pointers and the previous table's cost columns.  A new table is
    compared column by column against the cache and the program resumes
    after the longest unchanged prefix instead of from layer 0.

    Bit-exactness invariant: the resumed program is the one driver behind
    :meth:`CostTable.dp_partition` and performs the *same floating-point
    additions in the same order* with the same lowest-code-wins
    ``argmin`` tie rule as the cold solve, so the result is identical
    float for float (property-pinned over the whole model zoo by
    ``tests/resilience/test_warmstart.py``).  Layer ``l``'s frontier
    depends only on ``intra[0..l]`` and ``inter[0..l-1]``, which is what
    makes prefix reuse sound.  Non-chain (DAG) tables take a cold
    :meth:`CostTable.dp_partition` and leave the cached chain state
    untouched.
    """

    def __init__(self) -> None:
        self._intra: "np.ndarray | None" = None
        self._inter: "np.ndarray | None" = None
        self._frontiers: "np.ndarray | None" = None
        self._parents: "np.ndarray | None" = None
        self._result: "PartitionResult | None" = None
        #: Solve statistics (deterministic given the solve sequence).
        self.full_hits = 0
        self.reused_layers = 0
        self.solved_layers = 0
        self.cold_solves = 0
        #: Layers filled by block-repetition jumps instead of stepping
        #: (a subset of ``solved_layers``; purely informational, so the
        #: :meth:`stats` dict -- pinned by replan goldens -- is unchanged).
        self.memoized_layers = 0

    def _matching_prefix(self, table: CostTable) -> int:
        """Longest leading layer run whose DP state the cache can replay."""
        cached_intra, cached_inter = self._intra, self._inter
        if cached_intra is None:
            return 0
        if cached_intra.shape[1] != table.num_strategies:
            return 0
        limit = min(table.num_layers, cached_intra.shape[0])
        if table.intra is cached_intra and table.inter is cached_inter:
            return limit  # identical arrays: skip the column comparison
        prefix = 0
        while prefix < limit:
            if not np.array_equal(table.intra[prefix], cached_intra[prefix]):
                break
            if prefix > 0 and not np.array_equal(
                table.inter[prefix - 1], cached_inter[prefix - 1]
            ):
                break
            prefix += 1
        return prefix

    def solve(self, table: CostTable, *, memoize: bool = True) -> PartitionResult:
        """The ``table.dp_partition(memoize=memoize)`` optimum, warm-started
        when possible.

        The resumed program runs through the table's DP driver, so it
        inherits the table's backend and the block-repetition memoization
        (``memoize=False`` forces cold stepping for oracle comparisons);
        both are bit-exact with the historical layer loop.
        """
        if not table.is_chain:
            self.cold_solves += 1
            return table.dp_partition(memoize=memoize)
        num_layers = table.num_layers
        prefix = self._matching_prefix(table)
        if (
            prefix == num_layers
            and self._result is not None
            and self._frontiers is not None
            and self._frontiers.shape[0] == num_layers
        ):
            self.full_hits += 1
            return self._result
        self.reused_layers += prefix
        self.solved_layers += num_layers - prefix

        frontiers, parents = table._dp_state()
        if prefix > 0:
            frontiers[:prefix] = self._frontiers[:prefix]
            parents[: prefix - 1] = self._parents[: prefix - 1]
        # Segment ``s`` of a chain advances into layer ``s + 1``.
        result, jumped = table._solve(
            frontiers, parents, max(prefix - 1, 0), memoize=memoize
        )
        self.memoized_layers += jumped

        self._intra = table.intra
        self._inter = table.inter
        self._frontiers = frontiers
        self._parents = parents
        self._result = result
        return result

    def stats(self) -> dict:
        """Deterministic reuse counters (for reports and tests)."""
        return {
            "full_hits": self.full_hits,
            "reused_layers": self.reused_layers,
            "solved_layers": self.solved_layers,
            "cold_solves": self.cold_solves,
        }


class _LevelRecords(collections.abc.Sequence):
    """The tensor records of one gathered level, built on first access.

    A :meth:`HierarchicalCostTable.level_cost_table` table needs its
    records only when a winner's breakdown is materialized, so searches
    and simulations never build them.  Records are memoized on the
    hierarchical table, so every view of one ``(level, state, layer)``
    returns the same object.  The view keeps its own copy of the states,
    so a caller reusing its state array cannot change later records.
    """

    __slots__ = ("_table", "_level", "_states")

    def __init__(
        self, table: "HierarchicalCostTable", level: int, states: Sequence[int]
    ) -> None:
        self._table = table
        self._level = level
        self._states = np.array(states, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        layer = range(len(self))[index]
        return self._table._record(self._level, int(self._states[layer]), layer)


class HierarchicalCostTable:
    """Per-level cost tables indexed by each layer's scale-descent state.

    Under :attr:`ScalingMode.PARALLELISM_AWARE` a layer's tensor amounts at
    hierarchy level ``h`` are fully determined by how many of its choices
    at levels ``0 .. h-1`` halved the batch fraction (``b``, dp choices)
    and how many halved the weight fraction (``w``, mp choices) -- the
    scale is ``(0.5**b, 0.5**w)``.  Stage-local strategies (pp) halve
    neither, so

    * for spaces without a stage-local member ``b + w = h`` and level ``h``
      has ``h + 1`` states (indexed by ``w``, exactly the historical
      mp-count states);
    * for spaces with one, every pair ``b + w <= h`` is reachable and
      level ``h`` has ``(h + 1)(h + 2) / 2`` states.

    ``UNIFORM`` and ``NONE`` scaling are choice-independent and collapse
    to a single state per level.

    The table therefore caches *every* scale-descent outcome a sweep can
    reach: batched candidate scoring, `HierarchicalPartitioner` evaluation
    and the training simulator's per-level tensor derivation all gather from
    the same compiled arrays instead of rebuilding ``LayerTensors`` lists.

    Deep models repeat a few layer shapes many times, so the compile prices
    each distinct cost signature once -- ``(is_conv, input elements,
    output elements, weight count, MACs per sample)`` plus the
    communication model's
    :meth:`~repro.core.communication.CommunicationModel.layer_cost_key` --
    and scatters the rows to the per-layer and per-edge arrays with one
    gather.  The floats are the ones a per-layer
    compile stores: equal signatures give equal tensor amounts, and the
    strategy element functions read nothing else.
    """

    def __init__(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> None:
        if num_levels <= 0:
            raise ValueError(f"num_levels must be positive, got {num_levels}")
        self.model = model
        self.batch_size = batch_size
        self.num_levels = num_levels
        self.num_layers = len(model)
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.communication_model = communication_model or CommunicationModel()
        self.strategies = StrategySpace.parse(strategies)
        #: Kernel backend handed to every gathered per-level
        #: :class:`CostTable` (``None`` = follow the process default).
        self.backend = kernels.validate_backend(backend)
        kernels.warn_numba_fallback(backend)
        #: Canonical edge list of the model's layer DAG; the per-level
        #: ``inter`` arrays are indexed by it (chains keep the historical
        #: boundary indexing, edge ``e`` == boundary ``(e, e + 1)``).
        self.edges: tuple[tuple[int, int], ...] = model.edges
        self._is_chain = model.is_chain
        self._edge_source = np.array([s for s, _ in self.edges], dtype=np.int64)
        self._edge_destination = np.array([d for _, d in self.edges], dtype=np.int64)
        # Destination-grouped (stable) edge arrays for the compiled level
        # scorers, mirroring CostTable._kernel_edges.
        kernel_order = sorted(range(len(self.edges)), key=lambda e: self.edges[e][1])
        self._kernel_edge_index = np.array(kernel_order, dtype=np.int64)
        self._kernel_edge_source = np.array(
            [self.edges[e][0] for e in kernel_order], dtype=np.int64
        )
        self._kernel_edge_destination = np.array(
            [self.edges[e][1] for e in kernel_order], dtype=np.int64
        )
        #: Per destination layer: the ``[start, stop)`` run of its incoming
        #: edges -- canonical edges are ordered by destination, then input.
        bounds = np.searchsorted(
            self._edge_destination, np.arange(self.num_layers + 1)
        ).tolist()
        self._incoming_spans = list(zip(bounds[:-1], bounds[1:]))
        comm = self.communication_model
        space = self.strategies

        #: Per strategy code: 1 when one descent under that choice halves
        #: the batch / weight fraction (dp / mp); stage-local codes are 0
        #: in both.
        self._batch_effect = np.array(
            [1 if strategy_spec(member).halves == BATCH else 0 for member in space],
            dtype=np.int64,
        )
        self._weight_effect = np.array(
            [1 if strategy_spec(member).halves == WEIGHT else 0 for member in space],
            dtype=np.int64,
        )
        # Strategies that halve neither fraction (stage-local pp) break the
        # ``b + w = level`` invariant, widening the state space.
        self._has_stage_local = any(
            strategy_spec(member).halves == NONE for member in space
        )
        # For the default (dp, mp) space the weight effect of code ``c`` is
        # ``c`` itself, so the batched state tracking can skip a gather.
        self._weight_effect_is_identity = bool(
            np.array_equal(self._weight_effect, np.arange(space.size, dtype=np.int64))
        )

        # Layers with equal cost signatures get equal table rows, so each
        # distinct signature is priced once and scattered to its layers.
        # The signature is everything ``layer_tensors`` reads besides the
        # name and index, which no strategy element function looks at, plus
        # whatever the communication model prices by name (a calibrated
        # model's per-layer scale).
        layers = list(model)
        self._layers = layers
        group_of: dict[tuple, int] = {}
        representatives = []
        layer_group = np.empty(self.num_layers, dtype=np.int64)
        for index, layer in enumerate(layers):
            signature = (
                layer.is_conv,
                layer.input_shape.elements,
                layer.output_shape.elements,
                layer.weight_count,
                layer.macs_per_sample,
                comm.layer_cost_key(layer.name),
            )
            group = group_of.setdefault(signature, len(group_of))
            if group == len(representatives):
                representatives.append(layer)
            layer_group[index] = group
        #: Per layer / per edge: the cost group whose rows it takes (an
        #: edge's boundary tensors are its *source* layer's).
        self._layer_group = layer_group
        self._edge_group = layer_group[self._edge_source]
        num_groups = len(representatives)
        group_edges = tuple((group, group) for group in range(num_groups))

        # Per level h: the reachable (batch-halvings, weight-halvings) state
        # list, an index LUT for vectorized gathers, the state scales,
        # intra[h] (L, S, K) and inter[h] (E, S, K, K) for the scorers, and
        # the forward/backward splits of inter[h] per group (G, S, K, K)
        # for :meth:`level_communication`.  The splits cannot be derived
        # from the combined array (``_to_bytes(fwd + bwd)`` and
        # ``_to_bytes(fwd) + _to_bytes(bwd)`` may round differently), so
        # one fill pass writes all four.  Per-layer tensor records are built
        # only when a breakdown asks for them (:meth:`_record`).
        self._states: list[list[tuple[int, int]]] = []
        self._state_lut: list[np.ndarray] = []
        self._scales: list[list[TensorScale]] = []
        self._intra: list[np.ndarray] = []
        self._inter: list[np.ndarray] = []
        self._inter_forward: list[np.ndarray] = []
        self._inter_backward: list[np.ndarray] = []
        self._records: dict[tuple[int, int, int], LayerTensors] = {}

        num_strategies = space.size
        specs = [strategy_spec(member) for member in space]
        members = space.members
        for level in range(num_levels):
            level_states = self._level_states(level)
            self._states.append(level_states)
            lut = np.zeros((level + 1, level + 1), dtype=np.int64)
            for index, (b, w) in enumerate(level_states):
                lut[b, w] = index
            self._state_lut.append(lut)
            scales = [self._state_scale(level, b, w) for b, w in level_states]
            self._scales.append(scales)
            num_states = len(level_states)
            intra = np.empty((num_groups, num_states, num_strategies), dtype=np.float64)
            inter_shape = (num_groups, num_states, num_strategies, num_strategies)
            inter = np.empty(inter_shape, dtype=np.float64)
            inter_forward = np.empty(inter_shape, dtype=np.float64)
            inter_backward = np.empty(inter_shape, dtype=np.float64)
            for state, scale in enumerate(scales):
                _fill_cost_block(
                    [layer_tensors(layer, batch_size, scale) for layer in representatives],
                    specs,
                    members,
                    comm,
                    intra=intra[:, state, :],
                    inter=inter[:, state, :, :],
                    inter_forward=inter_forward[:, state, :, :],
                    inter_backward=inter_backward[:, state, :, :],
                    edges=group_edges,
                )
            self._intra.append(intra[layer_group])
            self._inter.append(inter[self._edge_group])
            self._inter_forward.append(inter_forward)
            self._inter_backward.append(inter_backward)

    # ------------------------------------------------------------------
    # Scale-descent states.
    # ------------------------------------------------------------------

    def _level_states(self, level: int) -> list[tuple[int, int]]:
        """Reachable ``(batch_halvings, weight_halvings)`` pairs at ``level``.

        Without a stage-local strategy every choice halves something, so
        ``b + w = level`` and the list is ordered by ``w`` -- index ``w``
        is the historical "mp count" state, keeping dp/mp tables laid out
        exactly as before.  With a stage-local strategy all pairs with
        ``b + w <= level`` are reachable.
        """
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return [(0, 0)]
        if not self._has_stage_local:
            return [(level - w, w) for w in range(level + 1)]
        return [
            (b, w)
            for b in range(level + 1)
            for w in range(level + 1 - b)
        ]

    def num_states(self, level: int) -> int:
        """Number of distinct per-layer scale states at ``level``."""
        return len(self._states[level])

    def state_index(self, level: int, batch_halvings: int, weight_halvings: int) -> int:
        """The state index of one ``(b, w)`` halving count pair at ``level``."""
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return 0
        return int(self._state_lut[level][batch_halvings, weight_halvings])

    def _state_scale(self, level: int, batch_halvings: int, weight_halvings: int) -> TensorScale:
        """The :class:`TensorScale` of one halving state at ``level``.

        Halvings are powers of two, so ``0.5 ** k`` is bit-exact with the
        reference path's sequential ``descend`` multiplications.
        """
        if self.scaling_mode is ScalingMode.PARALLELISM_AWARE:
            return TensorScale(
                batch_fraction=0.5 ** batch_halvings,
                weight_fraction=0.5 ** weight_halvings,
            )
        if self.scaling_mode is ScalingMode.UNIFORM:
            return TensorScale(batch_fraction=0.5 ** level, weight_fraction=1.0)
        return TensorScale()

    def _level_codes(self, assignment: HierarchicalAssignment) -> np.ndarray:
        """``(H, L)`` strategy codes of ``assignment``."""
        code_of = self.strategies.code_of
        return np.array(
            [list(map(code_of, assignment[level])) for level in range(self.num_levels)],
            dtype=np.int64,
        )

    def _states_of_codes(self, codes: np.ndarray) -> np.ndarray:
        """``(H, L)`` state indices implied by ``(H, L)`` strategy codes."""
        states = np.zeros(codes.shape, dtype=np.int64)
        if self.scaling_mode is not ScalingMode.PARALLELISM_AWARE:
            return states
        batch_counts = np.zeros(self.num_layers, dtype=np.int64)
        weight_counts = np.zeros(self.num_layers, dtype=np.int64)
        for level in range(self.num_levels):
            states[level] = self._state_lut[level][batch_counts, weight_counts]
            batch_counts += self._batch_effect[codes[level]]
            weight_counts += self._weight_effect[codes[level]]
        return states

    def state_indices(self, assignment: HierarchicalAssignment) -> np.ndarray:
        """Per-(level, layer) state indices implied by ``assignment``."""
        self._check_assignment(assignment)
        return self._states_of_codes(self._level_codes(assignment))

    def _record(self, level: int, state: int, layer: int) -> LayerTensors:
        """Layer ``layer``'s tensor record at ``(level, state)``, built once."""
        key = (level, state, layer)
        record = self._records.get(key)
        if record is None:
            record = self._records.setdefault(
                key,
                layer_tensors(
                    self._layers[layer], self.batch_size, self._scales[level][state]
                ),
            )
        return record

    def tensors_for_level(
        self, level: int, states: Sequence[int]
    ) -> tuple[LayerTensors, ...]:
        """The per-layer tensor records of one level under given state indices."""
        return tuple(_LevelRecords(self, level, states))

    def level_cost_table(self, level: int, states: Sequence[int]) -> CostTable:
        """The single-level :class:`CostTable` of one scale-descent outcome.

        ``states[l]`` is layer ``l``'s state index at ``level`` (see
        :meth:`state_index`; always 0 outside parallelism-aware scaling).
        Pure gather -- no tensor or communication re-derivation -- so
        per-level searches and evaluations inside a sweep are O(L) array
        slicing.  The table's tensor records are built on first access
        (a materialized breakdown) and memoized here.
        """
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range for {self.num_levels} levels")
        state_array = np.asarray(states, dtype=np.int64)
        if state_array.shape != (self.num_layers,):
            raise ValueError(
                f"expected {self.num_layers} states, got {state_array.shape}"
            )
        layer_range = np.arange(self.num_layers)
        intra = self._intra[level][layer_range, state_array, :]
        # An edge's boundary tensors are its *source* layer's, so the edge
        # axis gathers the source's scale state (``[:-1]`` historically).
        inter = self._inter[level][
            np.arange(len(self.edges)), state_array[self._edge_source], :, :
        ]
        return CostTable(
            intra=intra,
            inter=inter,
            tensors=_LevelRecords(self, level, state_array),
            communication_model=self.communication_model,
            strategies=self.strategies,
            edges=self.edges,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    # Batched candidate scoring.
    # ------------------------------------------------------------------

    @property
    def num_strategies(self) -> int:
        return self.strategies.size

    @property
    def total_digits(self) -> int:
        """Digits needed to encode one full hierarchical assignment."""
        return self.num_levels * self.num_layers

    @property
    def num_assignments(self) -> int:
        """Size of the full hierarchical space (``K**(H*L)``)."""
        return self.strategies.size ** self.total_digits

    def score_codes(
        self, codes: np.ndarray | Sequence[int], chunk_size: int | None = None
    ) -> np.ndarray:
        """Total communication bytes of a batch of hierarchical digit-patterns.

        Encoding: the deepest-varying ``num_layers`` digits (least
        significant) are the *last* level's assignment and each level's
        digits follow the ``LayerAssignment.from_codes`` convention --
        exactly the order ``itertools.product(all_layer_assignments(L),
        repeat=H)`` visits the space, so first-minimum ties match the
        reference enumeration.  Totals are bit-exact with
        ``HierarchicalPartitioner.evaluate(...).total_communication_bytes``.
        ``chunk_size`` bounds peak memory (``None`` =
        :data:`DEFAULT_CHUNK_SIZE`) without affecting a single byte of
        the output.
        """
        if self.num_assignments > _MAX_PACKED_SPACE:
            # The packed int64 encoding cannot address the space; deep
            # models route per-level code matrices through
            # :meth:`score_level_codes` instead.
            raise ValueError(
                f"a {self.num_strategies}**{self.total_digits} space overflows "
                "the 64-bit packed encoding; use score_level_codes with "
                "per-level code matrices instead"
            )
        step = _resolve_chunk_size(chunk_size)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ValueError(f"codes must be one-dimensional, got shape {codes.shape}")
        totals = np.empty(codes.shape[0], dtype=np.float64)
        for start in range(0, codes.shape[0], step):
            chunk = codes[start : start + step]
            totals[start : start + chunk.shape[0]] = self._score_chunk(chunk)
        return totals

    def decode_level_codes(self, codes: np.ndarray) -> list[np.ndarray]:
        """Per-level strategy-code matrices ``(N, L)`` for a batch of candidates."""
        num_layers = self.num_layers
        base = self.num_strategies
        decoded = []
        if base == 2:
            shifts = np.arange(num_layers, dtype=np.int64)
            mask = (1 << num_layers) - 1
            for level in range(self.num_levels):
                level_codes = (codes >> (num_layers * (self.num_levels - 1 - level))) & mask
                decoded.append((level_codes[:, None] >> shifts) & 1)
            return decoded
        level_space = base ** num_layers
        for level in range(self.num_levels):
            level_codes = (
                codes // (level_space ** (self.num_levels - 1 - level))
            ) % level_space
            decoded.append(_decode_digits(level_codes, num_layers, base))
        return decoded

    def _score_chunk(self, codes: np.ndarray) -> np.ndarray:
        return self.score_level_codes(self.decode_level_codes(codes))

    def score_level_codes(self, decoded: Sequence[np.ndarray]) -> np.ndarray:
        """Score candidates given per-level ``(N, L)`` strategy-code matrices.

        This is the core batched scorer; it also serves candidate spaces
        whose *full* encoding would overflow 64 bits (deep models at many
        levels) as long as the batch itself is enumerable, e.g. the
        restricted sweeps of Figures 9/10.  On the compiled backends each
        level's gather-and-accumulate runs in a numba kernel
        (:func:`repro.core.kernels.hier_level_score_compiled`, bit-exact
        with the NumPy body; ``"compiled-parallel"`` scores candidates
        under ``prange``), while the cross-level scale-state tracking
        stays in shared NumPy code.
        """
        if len(decoded) != self.num_levels:
            raise ValueError(
                f"expected {self.num_levels} level code matrices, got {len(decoded)}"
            )
        num_layers = self.num_layers
        num_candidates = decoded[0].shape[0]
        layer_range = np.arange(num_layers)
        boundary_range = np.arange(max(num_layers - 1, 0))
        totals = np.zeros(num_candidates, dtype=np.float64)
        use_kernel = kernels.compiled_active(self.backend)
        parallel = kernels.parallel_active(self.backend)
        track_states = self.scaling_mode is ScalingMode.PARALLELISM_AWARE
        weight_counts = np.zeros((num_candidates, num_layers), dtype=np.int64)
        batch_counts = (
            np.zeros((num_candidates, num_layers), dtype=np.int64)
            if self._has_stage_local
            else None
        )
        for level in range(self.num_levels):
            level_codes = decoded[level]
            if not track_states:
                states = np.zeros((num_candidates, num_layers), dtype=np.int64)
            elif batch_counts is None:
                # Without stage-local strategies the state index is the
                # weight-halving (mp) count, as in the historical layout.
                states = weight_counts
            else:
                states = self._state_lut[level][batch_counts, weight_counts]
            if use_kernel:
                # The kernel folds gather, edge accumulation, sequential
                # row sum and the ``* (1 << level)`` pair scaling into one
                # pass, accumulating straight into ``totals``.
                kernels.hier_level_score_compiled(
                    self._intra[level],
                    self._inter[level],
                    np.ascontiguousarray(states, dtype=np.int64),
                    np.ascontiguousarray(level_codes, dtype=np.int64),
                    float(1 << level),
                    totals,
                    is_chain=self._is_chain,
                    edge_index=self._kernel_edge_index,
                    edge_source=self._kernel_edge_source,
                    edge_destination=self._kernel_edge_destination,
                    parallel=parallel,
                )
            else:
                per_layer = self._intra[level][layer_range, states, level_codes]
                if self._is_chain:
                    if num_layers > 1:
                        per_layer[:, 1:] += self._inter[level][
                            boundary_range,
                            states[:, :-1],
                            level_codes[:, :-1],
                            level_codes[:, 1:],
                        ]
                else:
                    # Merge layers accumulate their incoming-edge terms (in
                    # canonical edge order) before the single add onto the intra
                    # term, matching the object path's association.
                    inter_acc = np.zeros_like(per_layer)
                    for edge_index, (source, destination) in enumerate(self.edges):
                        inter_acc[:, destination] += self._inter[level][
                            edge_index,
                            states[:, source],
                            level_codes[:, source],
                            level_codes[:, destination],
                        ]
                    # ``per_layer`` is a fresh advanced-indexing copy, so the
                    # in-place add is safe (and allocation-free, like the
                    # single-level scorer's).
                    per_layer += inter_acc
                level_totals = _sequential_row_sum(per_layer)
                # ``level.total_bytes`` multiplies by the (power-of-two) pair
                # count before the exact sequential accumulation over levels.
                totals += level_totals * float(1 << level)
            if track_states:
                weight_counts = weight_counts + (
                    level_codes
                    if self._weight_effect_is_identity
                    else self._weight_effect[level_codes]
                )
                if batch_counts is not None:
                    batch_counts = batch_counts + self._batch_effect[level_codes]
        return totals

    def argmin_assignment(self, *, chunk_size: int | None = None) -> tuple[int, float]:
        """First minimum over the full ``K**(H*L)`` space, in product order."""
        space = self.num_assignments
        if space > _MAX_PACKED_SPACE:
            raise ValueError(
                f"cannot enumerate a {self.num_strategies}**{self.total_digits} "
                "space with 64-bit packed encodings"
            )
        step = _resolve_chunk_size(chunk_size)
        best_codes = -1
        best_total = np.inf
        for start in range(0, space, step):
            chunk = np.arange(start, min(start + step, space), dtype=np.int64)
            totals = self._score_chunk(chunk)
            index = int(np.argmin(totals))
            if totals[index] < best_total:
                best_total = float(totals[index])
                best_codes = int(chunk[index])
        return best_codes, best_total

    # ------------------------------------------------------------------
    # Assignment helpers.
    # ------------------------------------------------------------------

    def assignment_to_codes(self, assignment: HierarchicalAssignment) -> int:
        """Encode an assignment with the :meth:`score_codes` digit layout."""
        self._check_assignment(assignment)
        level_space = self.num_strategies ** self.num_layers
        codes = 0
        for level in range(self.num_levels):
            codes = codes * level_space + assignment[level].to_codes(self.strategies)
        return codes

    def codes_to_assignment(self, codes: int) -> HierarchicalAssignment:
        """Inverse of :meth:`assignment_to_codes`."""
        level_space = self.num_strategies ** self.num_layers
        levels: list[LayerAssignment] = []
        for _ in range(self.num_levels):
            codes, level_codes = divmod(codes, level_space)
            levels.append(
                LayerAssignment.from_codes(level_codes, self.num_layers, self.strategies)
            )
        levels.reverse()
        return HierarchicalAssignment(tuple(levels))

    def total_bytes(self, assignment: HierarchicalAssignment) -> float:
        """Total traffic of one hierarchical assignment (fast path)."""
        self._check_assignment(assignment)
        code_of = self.strategies.code_of
        decoded = [
            np.array([[code_of(choice) for choice in assignment[level]]], dtype=np.int64)
            for level in range(self.num_levels)
        ]
        return float(self.score_level_codes(decoded)[0])

    def level_communication(
        self, assignment: HierarchicalAssignment
    ) -> list[list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]]:
        """Per-level, per-layer ``(choice, intra, incoming)`` bytes.

        ``incoming`` lists the layer's incoming-edge re-layouts as
        ``(source_layer, inter_fwd, inter_bwd)`` tuples in canonical edge
        (input) order -- one entry per incoming DAG edge, so merge layers
        carry one record per branch.  This is the gather the training
        simulator consumes; the floats are identical to the ones the
        object path derives from fresh ``model_tensors`` lists at every
        level.
        """
        self._check_assignment(assignment)
        codes = self._level_codes(assignment)
        states = self._states_of_codes(codes)
        layer_range = np.arange(self.num_layers)
        sources = self._edge_source
        destinations = self._edge_destination
        source_list = sources.tolist()
        spans = self._incoming_spans
        records: list[
            list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]
        ] = []
        for level in range(self.num_levels):
            level_codes = codes[level]
            level_states = states[level]
            intra = self._intra[level][layer_range, level_states, level_codes].tolist()
            boundary = (
                self._edge_group,
                level_states[sources],
                level_codes[sources],
                level_codes[destinations],
            )
            edge_records = list(
                zip(
                    source_list,
                    self._inter_forward[level][boundary].tolist(),
                    self._inter_backward[level][boundary].tolist(),
                )
            )
            incoming = [tuple(edge_records[start:stop]) for start, stop in spans]
            records.append(list(zip(assignment[level], intra, incoming)))
        return records

    @property
    def cache_key(self) -> tuple:
        """The :func:`table_cache_key` this compilation answers to."""
        return table_cache_key(
            self.model,
            self.batch_size,
            self.num_levels,
            self.scaling_mode,
            self.communication_model,
            self.strategies,
            self.backend,
        )

    def check_compatible(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode,
        communication_model: CommunicationModel,
        strategies: StrategySpace | None = None,
    ) -> None:
        """Raise when this table was compiled for a different configuration.

        Shared by every consumer that accepts an externally supplied table
        (the hierarchical partitioner, the training simulator) so the
        compatibility rules cannot drift between them.  ``strategies`` may
        be omitted by consumers that only *evaluate* assignments (the
        evaluation is strategy-space-agnostic as long as the assignment's
        choices are members of the table's space).
        """
        if (
            (self.model is not model and self.model != model)
            or self.batch_size != batch_size
            or self.num_levels != num_levels
            or self.scaling_mode is not scaling_mode
            or not self.communication_model.same_costs(communication_model)
            or (strategies is not None and self.strategies != strategies)
        ):
            # Structural equality (not identity) qualifies a model: the
            # shared sweep cache hands one compiled table to every caller
            # holding an equal model, including unpickled copies in worker
            # processes.
            raise ValueError(
                "cost table was compiled for a different "
                "(model, batch, levels, scaling, communication-model, "
                "strategy-space) configuration"
            )

    def _check_assignment(self, assignment: HierarchicalAssignment) -> None:
        if assignment.num_levels != self.num_levels:
            raise ValueError(
                f"assignment has {assignment.num_levels} levels, "
                f"table expects {self.num_levels}"
            )
        if assignment.num_layers != self.num_layers:
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"table has {self.num_layers}"
            )


def compile_cost_table(
    model: DNNModel,
    batch_size: int,
    scales: Sequence[TensorScale] | None = None,
    communication_model: CommunicationModel | None = None,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    backend: str | None = None,
) -> CostTable:
    """Module-level convenience alias for :meth:`CostTable.compile`."""
    return CostTable.compile(
        model, batch_size, scales, communication_model, strategies, backend
    )


# ----------------------------------------------------------------------
# Shared compiled-table cache.
# ----------------------------------------------------------------------


def table_cache_key(
    model: DNNModel,
    batch_size: int,
    num_levels: int,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    communication_model: CommunicationModel | None = None,
    strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
    backend: str | None = None,
) -> tuple:
    """Hashable identity of a :class:`HierarchicalCostTable` compilation.

    Two compilations with equal keys produce float-identical tables: the
    arrays are pure functions of the model's resolved layers, the batch
    size, the hierarchy depth, the scaling mode, the communication-model
    parameters and the strategy space.  ``DNNModel`` is a frozen dataclass,
    so equal models -- including copies unpickled in sweep worker
    processes -- hash and compare equal and hit the same cache entry.

    ``backend`` is resolved (``None`` -> the process default *at key
    time*) before entering the key: the stored floats are
    backend-independent, but the gathered per-level tables inherit the
    backend, so a cache hit must hand back tables that dispatch the way
    the caller asked.
    """
    communication_model = communication_model or CommunicationModel()
    return (
        model,
        int(batch_size),
        int(num_levels),
        ScalingMode.parse(scaling_mode),
        StrategySpace.parse(strategies),
        communication_model.cache_key,
        kernels.resolve_backend(backend),
    )


class TableCache:
    """Cache of compiled :class:`HierarchicalCostTable` objects.

    Keyed by :func:`table_cache_key`, i.e. by the *configuration* rather
    than by object identity, so every study of a sweep that touches the
    same ``(model, strategy space, scaling mode, batch, num_levels)``
    point compiles the table once and gathers from it thereafter --
    including across the serial and process-parallel runners (each worker
    process holds one instance and warms it as its share of the grid
    streams through).  Hit/miss counters make the sharing observable.
    """

    def __init__(self, limit: int = 64) -> None:
        if limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        self._limit = limit
        self._tables: dict[tuple, HierarchicalCostTable] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tables)

    def get_or_compile(
        self,
        model: DNNModel,
        batch_size: int,
        num_levels: int,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        communication_model: CommunicationModel | None = None,
        strategies: StrategySpace | Sequence[Parallelism] | str | None = None,
        backend: str | None = None,
    ) -> HierarchicalCostTable:
        """The compiled table for the configuration, compiling on first use."""
        resolved_backend = kernels.resolve_backend(backend)
        key = table_cache_key(
            model,
            batch_size,
            num_levels,
            scaling_mode,
            communication_model,
            strategies,
            resolved_backend,
        )
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            return table
        self.misses += 1
        if len(self._tables) >= self._limit:
            # Simple full flush, like the simulator's historical id-keyed
            # cache: sweeps revisit configurations in grid order, so an
            # LRU would only help adversarial access patterns.
            self.evictions += len(self._tables)
            self._tables.clear()
        table = HierarchicalCostTable(
            model,
            batch_size,
            num_levels,
            scaling_mode=scaling_mode,
            communication_model=communication_model,
            strategies=strategies,
            backend=resolved_backend,
        )
        self._tables[key] = table
        return table

    def clear(self) -> None:
        self._tables.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counters for tests, sweep reports and the service ``/healthz``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._tables),
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
