"""Optional compiled (numba) kernels behind the search hot paths.

The vectorized NumPy engine in :mod:`repro.core.costs` is fast enough for
the paper's ten networks, but the deep and branching zoo members spend
their time in a handful of inner loops: the layer-wise recurrence of
Algorithm 1 (:meth:`CostTable.dp_partition`), the batched candidate
scorers (:meth:`CostTable._score_decoded`,
:meth:`HierarchicalCostTable.score_level_codes`) and the branch-interior
enumeration of a DAG's cut segments
(:meth:`CostTable._advance_dag_block`).  This module provides
``@njit``-compiled versions of exactly those loops plus the tiny backend
registry that selects between them.

Design rules
------------
* **Graceful fallback.**  numba is an *optional* dependency: when it is
  absent, :data:`NUMBA_AVAILABLE` is ``False`` and every caller silently
  runs the NumPy path.  Requesting ``backend="compiled"`` without numba is
  not an error -- results are identical either way, only the speed
  differs -- so configuration files and service requests stay portable
  across environments.  The first table compiled against an unavailable
  compiled backend emits one :class:`RuntimeWarning` per process
  (:func:`warn_numba_fallback`) so the fallback is visible without
  flooding sweep logs.
* **Bit-exactness.**  Each kernel performs the *same floating-point
  additions in the same order* as its NumPy counterpart, with the same
  strict-``<`` lowest-index argmin tie rule, so compiled results are
  byte-identical to the NumPy path (property-pinned by
  ``tests/properties/test_property_fastpaths.py`` and
  ``tests/properties/test_property_compiled_dag.py``).  The DAG walkers
  consume edge arrays grouped by destination (stably, preserving the
  canonical per-destination order), which keeps every merge layer's
  ``intra + (e1 + e2 + ...)`` association identical to the NumPy
  accumulation.
* **Scalar loops only.**  The kernels take preallocated output arrays and
  touch nothing but their arguments; all orchestration (chunking,
  memoization, pruning, result materialization) stays in
  :mod:`repro.core.costs`.
* **Parallel leg.**  ``backend="compiled-parallel"`` swaps the batched
  *scoring* kernels for ``prange`` variants (one candidate per iteration,
  no cross-candidate reductions, so results are byte-identical at any
  thread count); the inherently sequential chain-DP recurrence keeps the
  serial kernel.  Pin ``NUMBA_NUM_THREADS`` for reproducible thread
  counts in CI.

The module-level *default* backend is what tables compiled without an
explicit ``backend=`` argument use.  ``hypar --backend compiled`` flips
the default for the process; the sweep engine re-applies it in every
worker through its pool initializer (:mod:`repro.sweep.engine`), so the
backend survives ``spawn``-started workers, not just ``fork``-inherited
ones.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:  # pragma: no cover - exercised only in the numba CI leg
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # numba is optional; the NumPy paths are the fallback
    njit = None
    prange = range
    NUMBA_AVAILABLE = False

#: The recognized ``CostTable`` backends.
VALID_BACKENDS = ("numpy", "compiled", "compiled-parallel")

#: The backends that dispatch to numba kernels (when numba is present).
COMPILED_BACKENDS = ("compiled", "compiled-parallel")

#: Persist compiled machine code when the environment names a cache
#: directory (the CI legs cache it between runs); default to in-memory
#: compilation so local runs never write next to the sources.
_JIT_CACHE = bool(os.environ.get("NUMBA_CACHE_DIR"))

_default_backend = "numpy"

#: Set once the one-per-process numba-fallback warning has been emitted.
_fallback_warned = False

#: Cumulative per-kernel dispatch counts, keyed by kernel family.  Tests
#: assert against these to prove a compiled run actually *executed* the
#: numba kernels instead of silently riding the NumPy path.
_dispatch_counts = {
    "chain_dp": 0,
    "chain_score": 0,
    "dag_block": 0,
    "dag_score": 0,
    "hier_level": 0,
}


def validate_backend(backend: str | None) -> str | None:
    """Pass ``backend`` through, raising on unrecognized names.

    ``None`` (meaning "use the process default, resolved at use time") is
    always valid.  The error names the currently active process default
    alongside the accepted spellings, so a typo'd request shows what the
    table would have used.
    """
    if backend is not None and backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (active default: "
            f"{_default_backend!r}); expected one of {', '.join(VALID_BACKENDS)}"
        )
    return backend


def get_default_backend() -> str:
    """The backend used by tables compiled without an explicit choice."""
    return _default_backend


def set_default_backend(backend: str) -> str:
    """Set the process-wide default backend; returns the previous default."""
    global _default_backend
    if validate_backend(backend) is None:
        raise ValueError("the default backend cannot be None")
    previous = _default_backend
    _default_backend = backend
    return previous


def resolve_backend(backend: str | None) -> str:
    """Resolve a table's ``backend`` field to a concrete backend name."""
    validate_backend(backend)
    return backend if backend is not None else _default_backend


def compiled_active(backend: str | None) -> bool:
    """Whether the resolved backend actually dispatches to numba kernels.

    ``False`` either because the backend is ``"numpy"`` or because numba
    is absent (the graceful-fallback rule).  True for both compiled
    variants; :func:`parallel_active` distinguishes the ``prange`` leg.
    """
    return resolve_backend(backend) in COMPILED_BACKENDS and NUMBA_AVAILABLE


def parallel_active(backend: str | None) -> bool:
    """Whether the resolved backend selects the ``prange`` scoring kernels."""
    return resolve_backend(backend) == "compiled-parallel" and NUMBA_AVAILABLE


def warn_numba_fallback(backend: str | None) -> None:
    """Warn -- once per process -- that a compiled backend fell back to NumPy.

    Called at table-compile time.  A no-op when numba is importable, when
    the resolved backend is ``"numpy"``, or when the warning already
    fired: a sweep compiles thousands of tables and one notice is enough
    (results are bit-identical either way, only the speed differs).
    """
    global _fallback_warned
    if NUMBA_AVAILABLE or _fallback_warned:
        return
    if resolve_backend(backend) not in COMPILED_BACKENDS:
        return
    _fallback_warned = True
    warnings.warn(
        f"backend {resolve_backend(backend)!r} requested but numba is not "
        "installed; running the bit-identical NumPy path (install numba to "
        "enable the compiled kernels)",
        RuntimeWarning,
        stacklevel=3,
    )


def dispatch_counts() -> dict[str, int]:
    """A snapshot of the per-kernel-family dispatch counters."""
    return dict(_dispatch_counts)


def reset_dispatch_counts() -> None:
    """Zero the dispatch counters (test isolation helper)."""
    for key in _dispatch_counts:
        _dispatch_counts[key] = 0


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only in the numba CI leg

    @njit(cache=_JIT_CACHE)
    def _chain_dp_jit(intra, inter, parents, frontiers, start, stop):
        """Advance the Algorithm 1 recurrence over layers ``[start, stop)``.

        Reads the frontier of layer ``start - 1`` from ``frontiers`` and
        writes one parent row and one frontier row per layer.  The adds
        (``com[s] + inter`` first, ``+ intra`` second) and the
        strict-``<`` first-minimum scan replicate the NumPy loop exactly.
        """
        num_strategies = intra.shape[1]
        for layer in range(start, stop):
            for target in range(num_strategies):
                best = frontiers[layer - 1, 0] + inter[layer - 1, 0, target]
                best_source = 0
                for source in range(1, num_strategies):
                    candidate = (
                        frontiers[layer - 1, source] + inter[layer - 1, source, target]
                    )
                    if candidate < best:
                        best = candidate
                        best_source = source
                parents[layer - 1, target] = best_source
                frontiers[layer, target] = best + intra[layer, target]

    @njit(cache=_JIT_CACHE)
    def _score_decoded_chain_jit(intra, inter, decoded, totals):
        """Chain totals of an ``(N, L)`` strategy-code matrix.

        Accumulates ``intra + inter`` per layer left to right -- the exact
        association of the NumPy scorer (and of the object-path
        ``sum(record.total_bytes ...)``).
        """
        num_candidates, num_layers = decoded.shape
        for row in range(num_candidates):
            code = decoded[row, 0]
            total = intra[0, code]
            for layer in range(1, num_layers):
                previous = decoded[row, layer - 1]
                code = decoded[row, layer]
                total += intra[layer, code] + inter[layer - 1, previous, code]
            totals[row] = total

    @njit(parallel=True, cache=_JIT_CACHE)
    def _score_decoded_chain_par_jit(intra, inter, decoded, totals):
        """``prange`` variant of the chain scorer (independent candidates)."""
        num_candidates, num_layers = decoded.shape
        for row in prange(num_candidates):
            code = decoded[row, 0]
            total = intra[0, code]
            for layer in range(1, num_layers):
                previous = decoded[row, layer - 1]
                code = decoded[row, layer]
                total += intra[layer, code] + inter[layer - 1, previous, code]
            totals[row] = total

    @njit(cache=_JIT_CACHE)
    def _score_decoded_dag_jit(
        intra, inter, edge_index, edge_source, edge_destination, decoded, totals
    ):
        """DAG totals of an ``(N, L)`` strategy-code matrix.

        Edge arrays are grouped by destination (stably), so walking them
        once per candidate accumulates each merge layer's incoming terms
        in canonical edge order into ``acc`` and adds the sum onto the
        intra term exactly once -- the ``intra + (e1 + e2 + ...)``
        association of the NumPy scorer.
        """
        num_candidates, num_layers = decoded.shape
        num_edges = edge_index.shape[0]
        for row in range(num_candidates):
            edge = 0
            total = 0.0
            for layer in range(num_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == layer:
                    acc += inter[
                        edge_index[edge],
                        decoded[row, edge_source[edge]],
                        decoded[row, layer],
                    ]
                    edge += 1
                value = intra[layer, decoded[row, layer]] + acc
                if layer == 0:
                    total = value
                else:
                    total += value
            totals[row] = total

    @njit(parallel=True, cache=_JIT_CACHE)
    def _score_decoded_dag_par_jit(
        intra, inter, edge_index, edge_source, edge_destination, decoded, totals
    ):
        """``prange`` variant of the DAG scorer (independent candidates)."""
        num_candidates, num_layers = decoded.shape
        num_edges = edge_index.shape[0]
        for row in prange(num_candidates):
            edge = 0
            total = 0.0
            for layer in range(num_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == layer:
                    acc += inter[
                        edge_index[edge],
                        decoded[row, edge_source[edge]],
                        decoded[row, layer],
                    ]
                    edge += 1
                value = intra[layer, decoded[row, layer]] + acc
                if layer == 0:
                    total = value
                else:
                    total += value
            totals[row] = total

    @njit(cache=_JIT_CACHE)
    def _dag_block_totals_jit(
        com,
        intra,
        inter,
        edge_index,
        edge_source,
        edge_destination,
        block_start,
        block_layers,
        base,
        first_code,
        totals,
    ):
        """Block totals for patterns ``[first_code, first_code + len(totals))``.

        One cut-segment of the DAG dynamic program: digit ``0`` is the
        entering cut vertex (whose accumulated prefix cost ``com``
        replaces the intra term), later digits are the interior layers and
        the closing cut vertex.  Decoding, gathering and the left-to-right
        accumulation replicate the NumPy chunk body of
        ``CostTable._advance_dag_block`` float for float; the edge arrays
        carry *local* source/destination indices grouped by destination.
        """
        num_edges = edge_index.shape[0]
        digits = np.empty(block_layers, np.int64)
        for i in range(totals.shape[0]):
            rest = first_code + i
            for local in range(block_layers):
                digits[local] = rest % base
                rest //= base
            total = com[digits[0]]
            edge = 0
            for local in range(1, block_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == local:
                    acc += inter[
                        edge_index[edge], digits[edge_source[edge]], digits[local]
                    ]
                    edge += 1
                total += intra[block_start + local, digits[local]] + acc
            totals[i] = total

    @njit(parallel=True, cache=_JIT_CACHE)
    def _dag_block_totals_par_jit(
        com,
        intra,
        inter,
        edge_index,
        edge_source,
        edge_destination,
        block_start,
        block_layers,
        base,
        first_code,
        totals,
    ):
        """``prange`` variant of the block scorer (thread-private digits)."""
        num_edges = edge_index.shape[0]
        for i in prange(totals.shape[0]):
            digits = np.empty(block_layers, np.int64)
            rest = first_code + i
            for local in range(block_layers):
                digits[local] = rest % base
                rest //= base
            total = com[digits[0]]
            edge = 0
            for local in range(1, block_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == local:
                    acc += inter[
                        edge_index[edge], digits[edge_source[edge]], digits[local]
                    ]
                    edge += 1
                total += intra[block_start + local, digits[local]] + acc
            totals[i] = total

    @njit(cache=_JIT_CACHE)
    def _hier_level_chain_jit(intra, inter, states, codes, scale, totals):
        """One hierarchy level of the chain scorer, accumulated into ``totals``.

        ``intra`` is ``(L, S, K)``, ``inter`` is ``(L - 1, S, K, K)``;
        ``states``/``codes`` are ``(N, L)``.  Per candidate: gather + one
        ``intra + inter`` add per boundary, summed left to right, then
        ``totals[n] += total * scale`` -- exactly the NumPy level body of
        ``HierarchicalCostTable.score_level_codes``.
        """
        num_candidates, num_layers = codes.shape
        for row in range(num_candidates):
            total = intra[0, states[row, 0], codes[row, 0]]
            for layer in range(1, num_layers):
                total += (
                    intra[layer, states[row, layer], codes[row, layer]]
                    + inter[
                        layer - 1,
                        states[row, layer - 1],
                        codes[row, layer - 1],
                        codes[row, layer],
                    ]
                )
            totals[row] += total * scale

    @njit(parallel=True, cache=_JIT_CACHE)
    def _hier_level_chain_par_jit(intra, inter, states, codes, scale, totals):
        """``prange`` variant of the hierarchical chain level scorer."""
        num_candidates, num_layers = codes.shape
        for row in prange(num_candidates):
            total = intra[0, states[row, 0], codes[row, 0]]
            for layer in range(1, num_layers):
                total += (
                    intra[layer, states[row, layer], codes[row, layer]]
                    + inter[
                        layer - 1,
                        states[row, layer - 1],
                        codes[row, layer - 1],
                        codes[row, layer],
                    ]
                )
            totals[row] += total * scale

    @njit(cache=_JIT_CACHE)
    def _hier_level_dag_jit(
        intra, inter, edge_index, edge_source, edge_destination, states, codes, scale, totals
    ):
        """One hierarchy level of the DAG scorer, accumulated into ``totals``.

        The inter gather indexes the *source* layer's scale state (an
        edge's boundary tensors are its source's), and merge layers
        accumulate their incoming terms in canonical edge order before the
        single add onto the intra term -- both exactly as in the NumPy
        level body.
        """
        num_candidates, num_layers = codes.shape
        num_edges = edge_index.shape[0]
        for row in range(num_candidates):
            edge = 0
            total = 0.0
            for layer in range(num_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == layer:
                    source = edge_source[edge]
                    acc += inter[
                        edge_index[edge],
                        states[row, source],
                        codes[row, source],
                        codes[row, layer],
                    ]
                    edge += 1
                value = intra[layer, states[row, layer], codes[row, layer]] + acc
                if layer == 0:
                    total = value
                else:
                    total += value
            totals[row] += total * scale

    @njit(parallel=True, cache=_JIT_CACHE)
    def _hier_level_dag_par_jit(
        intra, inter, edge_index, edge_source, edge_destination, states, codes, scale, totals
    ):
        """``prange`` variant of the hierarchical DAG level scorer."""
        num_candidates, num_layers = codes.shape
        num_edges = edge_index.shape[0]
        for row in prange(num_candidates):
            edge = 0
            total = 0.0
            for layer in range(num_layers):
                acc = 0.0
                while edge < num_edges and edge_destination[edge] == layer:
                    source = edge_source[edge]
                    acc += inter[
                        edge_index[edge],
                        states[row, source],
                        codes[row, source],
                        codes[row, layer],
                    ]
                    edge += 1
                value = intra[layer, states[row, layer], codes[row, layer]] + acc
                if layer == 0:
                    total = value
                else:
                    total += value
            totals[row] += total * scale

else:
    _chain_dp_jit = None
    _score_decoded_chain_jit = None
    _score_decoded_chain_par_jit = None
    _score_decoded_dag_jit = None
    _score_decoded_dag_par_jit = None
    _dag_block_totals_jit = None
    _dag_block_totals_par_jit = None
    _hier_level_chain_jit = None
    _hier_level_chain_par_jit = None
    _hier_level_dag_jit = None
    _hier_level_dag_par_jit = None


def chain_dp_compiled(intra, inter, parents, frontiers, start, stop) -> None:
    """Dispatch the compiled chain-DP kernel (numba must be available).

    The recurrence is sequential in the layer axis, so both compiled
    backends share the serial kernel.
    """
    _dispatch_counts["chain_dp"] += 1
    _chain_dp_jit(intra, inter, parents, frontiers, start, stop)


def score_decoded_chain_compiled(
    intra, inter, decoded, totals, parallel: bool = False
) -> None:
    """Dispatch the compiled chain scorer kernel (numba must be available)."""
    _dispatch_counts["chain_score"] += 1
    kernel = _score_decoded_chain_par_jit if parallel else _score_decoded_chain_jit
    kernel(intra, inter, decoded, totals)


def score_decoded_dag_compiled(
    intra,
    inter,
    edge_index,
    edge_source,
    edge_destination,
    decoded,
    totals,
    parallel: bool = False,
) -> None:
    """Dispatch the compiled DAG scorer kernel (numba must be available).

    Edge arrays must be grouped by destination (stably); callers use
    ``CostTable._edge_arrays``.
    """
    _dispatch_counts["dag_score"] += 1
    kernel = _score_decoded_dag_par_jit if parallel else _score_decoded_dag_jit
    kernel(intra, inter, edge_index, edge_source, edge_destination, decoded, totals)


def dag_block_totals_compiled(
    com,
    intra,
    inter,
    edge_index,
    edge_source,
    edge_destination,
    block_start,
    block_layers,
    base,
    first_code,
    totals,
    parallel: bool = False,
) -> None:
    """Dispatch the compiled cut-segment scorer (numba must be available)."""
    _dispatch_counts["dag_block"] += 1
    kernel = _dag_block_totals_par_jit if parallel else _dag_block_totals_jit
    kernel(
        com,
        intra,
        inter,
        edge_index,
        edge_source,
        edge_destination,
        block_start,
        block_layers,
        base,
        first_code,
        totals,
    )


def hier_level_score_compiled(
    intra,
    inter,
    states,
    codes,
    scale,
    totals,
    *,
    is_chain: bool,
    edge_index=None,
    edge_source=None,
    edge_destination=None,
    parallel: bool = False,
) -> None:
    """Dispatch one hierarchy level's compiled scorer (numba must be available).

    Accumulates ``level_total * scale`` into ``totals`` in place, so the
    caller drives the level loop and the cross-level state tracking.
    """
    _dispatch_counts["hier_level"] += 1
    if is_chain:
        kernel = _hier_level_chain_par_jit if parallel else _hier_level_chain_jit
        kernel(intra, inter, states, codes, scale, totals)
    else:
        kernel = _hier_level_dag_par_jit if parallel else _hier_level_dag_jit
        kernel(
            intra, inter, edge_index, edge_source, edge_destination, states, codes, scale, totals
        )
