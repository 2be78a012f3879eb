"""The HyPar communication model (Section 3, Tables 1 and 2).

For a layer configured with a given parallelism the model distinguishes two
sources of communication between the two accelerator groups of one
hierarchy level:

* **Intra-layer communication** (Table 1) -- the partial-sum exchange
  marked with a circled plus in Figure 1:

  ============  =============================
  parallelism    amount
  ============  =============================
  dp             ``A(dW_l)`` (gradient reduction during the weight update)
  mp             ``A(F_{l+1})`` (output-feature partial-sum reduction in forward)
  ============  =============================

* **Inter-layer communication** (Table 2) -- the tensor re-layout needed
  between a layer's *R* tensors (its outputs ``F_{l+1}``/``E_{l+1}``) and
  the next layer's *L* tensors:

  ============  ==========================================
  transition     amount
  ============  ==========================================
  dp → dp        0
  dp → mp        ``0.25 A(F_{l+1}) + 0.25 A(E_{l+1})``
  mp → mp        ``0.5 A(E_{l+1})``
  mp → dp        ``0.5 A(E_{l+1})``
  ============  ==========================================

Amounts are element counts.  When converting to bytes the model multiplies
by the precision (4 bytes) and by a *pair factor* of two because both
groups perform the remote access (the paper's worked example in Section
3.4 counts ``56 KB = 2 x 70 x 100 x 4 B`` for the dp gradient exchange of a
70x100 fully-connected layer).

The tables above are the dp/mp instance of a general contract: every
registered strategy (:mod:`repro.core.strategies`) contributes its own
Table-1 column and incoming Table-2 transition block, and this model
dispatches through the registry.  The dp/mp entries are byte-identical to
the historical hard-coded implementation; pipeline parallelism adds the
stage-boundary activation/gradient transfers documented in the registry
module.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.parallelism import LayerAssignment, Parallelism
from repro.core.strategies import strategy_spec
from repro.core.tensors import BYTES_PER_ELEMENT, LayerTensors

#: Both groups of a pair remotely read the other group's partial sums, so
#: the traffic crossing the link is twice the tensor amount involved.
PAIR_FACTOR = 2


class CommunicationModel:
    """Evaluates intra-layer and inter-layer communication amounts.

    Parameters
    ----------
    bytes_per_element:
        Storage size of one tensor element (4 for the paper's fp32).
    pair_factor:
        Multiplier accounting for both directions of the exchange between
        the two groups of a hierarchy level (2 in the paper's examples).
    """

    #: True for models whose byte conversion carries more state than the
    #: two link constants (profiled calibration); the vectorized table
    #: compiler dispatches per-entry through the byte-level methods for
    #: those instead of inlining ``elements * bytes * pair``.
    is_calibrated = False

    def __init__(
        self,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        pair_factor: int = PAIR_FACTOR,
    ) -> None:
        if bytes_per_element <= 0:
            raise ValueError(f"bytes_per_element must be positive, got {bytes_per_element}")
        if pair_factor <= 0:
            raise ValueError(f"pair_factor must be positive, got {pair_factor}")
        self.bytes_per_element = bytes_per_element
        self.pair_factor = pair_factor

    def same_costs(self, other: "CommunicationModel") -> bool:
        """Whether ``other`` produces identical costs.

        Cost tables compiled against one model instance are freely reusable
        with any cost-identical instance.  Compares the full
        :attr:`cache_key` -- not just the link constants -- so a calibrated
        model can never silently share a compiled table with the analytic
        one (or with a differently calibrated sibling).
        """
        return self.cache_key == other.cache_key

    @property
    def cache_key(self) -> tuple:
        """Hashable identity of this model's *complete* cost-affecting state.

        Two instances with equal keys satisfy :meth:`same_costs`, so cache
        entries keyed by it are freely shared across instances (and across
        sweep worker processes).  The key is tagged with the provider kind
        (``"analytic"`` here; subclasses tag their own) so two providers
        that happen to share parameter values still key apart.
        """
        return ("analytic", self.bytes_per_element, self.pair_factor)

    def layer_cost_key(self, layer_name: str) -> tuple:
        """What a layer's costs depend on besides its tensor amounts.

        The cost-table compile prices layers with equal amounts and equal
        keys once.  The Table-1/2 formulas never read a layer's name, so
        this returns ``()``; a model that prices by name must override it.
        """
        return ()

    # ------------------------------------------------------------------
    # Element-count primitives (Table 1 and Table 2).
    # ------------------------------------------------------------------

    @staticmethod
    def intra_layer_elements(tensors: LayerTensors, parallelism: Parallelism) -> float:
        """Table 1 (generalized): intra-layer communication amount, in elements.

        Dispatches to the strategy registry: dp contributes the gradient
        reduction, mp the output partial-sum reduction, stage-local
        strategies contribute nothing.
        """
        return strategy_spec(parallelism).intra_elements(tensors)

    @staticmethod
    def inter_layer_forward_elements(
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Feature-map share of the inter-layer amount (exchanged during forward).

        The incoming transition block belongs to ``current``'s registered
        strategy; for the binary dp/mp space only the dp→mp transition
        re-lays-out the boundary feature map ``F_{l+1}`` (Figure 2 (b)).
        """
        return strategy_spec(current).inter_forward_elements(previous, boundary)

    @staticmethod
    def inter_layer_backward_elements(
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Error share of the inter-layer amount (exchanged during error backward)."""
        return strategy_spec(current).inter_backward_elements(previous, boundary)

    @classmethod
    def inter_layer_elements(
        cls,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Table 2: inter-layer communication amount, in elements.

        ``boundary`` is the tensor record of the *previous* layer: the
        boundary feature map is that layer's ``F_{l+1}`` and the boundary
        error is its ``E_{l+1}``.
        """
        return cls.inter_layer_forward_elements(
            previous, current, boundary
        ) + cls.inter_layer_backward_elements(previous, current, boundary)

    # ------------------------------------------------------------------
    # Byte-level helpers.
    # ------------------------------------------------------------------

    def _to_bytes(self, elements: float) -> float:
        return elements * self.bytes_per_element * self.pair_factor

    def intra_layer_bytes(self, tensors: LayerTensors, parallelism: Parallelism) -> float:
        """Intra-layer traffic crossing the link between the two groups, in bytes."""
        return self._to_bytes(self.intra_layer_elements(tensors, parallelism))

    def inter_layer_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Inter-layer traffic crossing the link between the two groups, in bytes."""
        return self._to_bytes(self.inter_layer_elements(previous, current, boundary))

    def inter_layer_forward_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Forward-pass (feature-map) share of the inter-layer traffic, in bytes."""
        return self._to_bytes(
            self.inter_layer_forward_elements(previous, current, boundary)
        )

    def inter_layer_backward_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        """Backward-pass (error) share of the inter-layer traffic, in bytes."""
        return self._to_bytes(
            self.inter_layer_backward_elements(previous, current, boundary)
        )

    # ------------------------------------------------------------------
    # Whole-assignment evaluation.
    # ------------------------------------------------------------------

    @staticmethod
    def _incoming_edges(
        num_layers: int, edges: Sequence[tuple[int, int]] | None
    ) -> list[list[int]]:
        """Per-layer source lists, in canonical edge order (``None`` = chain)."""
        if edges is None:
            return [[] if index == 0 else [index - 1] for index in range(num_layers)]
        incoming: list[list[int]] = [[] for _ in range(num_layers)]
        for source, destination in edges:
            incoming[destination].append(source)
        return incoming

    def layer_breakdown(
        self,
        tensors: Sequence[LayerTensors],
        assignment: LayerAssignment,
        edges: Sequence[tuple[int, int]] | None = None,
    ) -> list["LayerCommunication"]:
        """Per-layer communication for one assignment at one hierarchy level.

        The inter-layer contribution of layer ``l`` covers the transitions
        across its *incoming* edges (``edges`` is the model's DAG edge
        list; ``None`` means the historical chain, where layer ``l``'s only
        incoming edge is ``(l-1, l)``).  A layer without incoming edges
        reads the training data, which every group already holds under any
        parallelism, so its inter-layer term is zero.  For a merge layer
        the term is the sum of its per-edge re-layouts, accumulated in
        input order.
        """
        if len(tensors) != assignment.num_layers:
            raise ValueError(
                f"expected {assignment.num_layers} tensor records, got {len(tensors)}"
            )
        incoming = self._incoming_edges(assignment.num_layers, edges)
        breakdown: list[LayerCommunication] = []
        for index, (layer, choice) in enumerate(zip(tensors, assignment)):
            intra = self.intra_layer_bytes(layer, choice)
            inter = 0.0
            for source in incoming[index]:
                inter += self.inter_layer_bytes(
                    assignment[source], choice, tensors[source]
                )
            breakdown.append(
                LayerCommunication(
                    layer_index=layer.layer_index,
                    layer_name=layer.layer_name,
                    parallelism=choice,
                    intra_bytes=intra,
                    inter_bytes=inter,
                )
            )
        return breakdown

    def total_bytes(
        self,
        tensors: Sequence[LayerTensors],
        assignment: LayerAssignment,
        edges: Sequence[tuple[int, int]] | None = None,
    ) -> float:
        """Total traffic (bytes) between the two groups for one training step.

        Fast path used by the search and sweep loops: sums the same
        per-layer ``intra + inter`` terms as :meth:`layer_breakdown` in the
        same order (so the result is bit-identical) without allocating any
        :class:`LayerCommunication` objects.  Callers that need the
        per-layer attribution should use :meth:`layer_breakdown`.  This is
        the object-based oracle the edge-indexed cost tables are
        property-tested against, on chains and DAGs alike.
        """
        if len(tensors) != assignment.num_layers:
            raise ValueError(
                f"expected {assignment.num_layers} tensor records, got {len(tensors)}"
            )
        if edges is None:
            # Chain fast path: the single rolling boundary needs no incoming
            # lists.  ``intra + inter`` matches the general path bit for bit
            # (its per-layer accumulator starts at 0.0, and x + 0.0 == x).
            total = 0.0
            previous: Parallelism | None = None
            for index, (layer, choice) in enumerate(zip(tensors, assignment)):
                intra = self.intra_layer_bytes(layer, choice)
                if index == 0:
                    inter = 0.0
                else:
                    inter = self.inter_layer_bytes(previous, choice, tensors[index - 1])
                total += intra + inter
                previous = choice
            return total
        incoming = self._incoming_edges(assignment.num_layers, edges)
        total = 0.0
        for index, (layer, choice) in enumerate(zip(tensors, assignment)):
            intra = self.intra_layer_bytes(layer, choice)
            inter = 0.0
            for source in incoming[index]:
                inter += self.inter_layer_bytes(
                    assignment[source], choice, tensors[source]
                )
            total += intra + inter
        return total


class CalibratedCommunicationModel(CommunicationModel):
    """A :class:`CommunicationModel` with profile-fitted corrections.

    Produced by :class:`repro.core.costmodel.ProfiledCostModel` from
    measured samples; the analytic Table-1/2 element counts stay the
    source of truth, but the element-to-byte conversion carries the
    fitted deviations of real hardware from the idealized link model:

    * ``intra_scale`` -- intra-layer (collective) traffic cost relative to
      the reference link the analytic model assumes;
    * ``inter_scale`` -- inter-layer (re-layout) traffic cost relative to
      the same reference, so slow interconnects weight Table 2 against
      Table 1;
    * ``inter_latency_bytes`` -- per-transfer startup cost in equivalent
      bytes, added once per *non-zero* directional Table-2 transfer (the
      table's structural zeros -- dp→dp -- stay exactly zero);
    * ``layer_scales`` -- per-layer multipliers on the intra-layer term
      (heterogeneous accelerators), matched by ``LayerTensors.layer_name``
      with absent layers defaulting to 1.0;
    * ``bytes_per_element`` -- the measured precision (2 for fp16).

    Every byte-level method overridden here is exactly what both the
    object-based oracle *and* the vectorized table compiler
    (``costs._fill_cost_block``) evaluate, so tables and breakdowns agree
    bit for bit under calibration just as they do analytically.
    """

    is_calibrated = True

    def __init__(
        self,
        profile_name: str,
        *,
        bytes_per_element: int = BYTES_PER_ELEMENT,
        pair_factor: int = PAIR_FACTOR,
        intra_scale: float = 1.0,
        inter_scale: float = 1.0,
        inter_latency_bytes: float = 0.0,
        layer_scales: "Mapping[str, float] | None" = None,
    ) -> None:
        super().__init__(bytes_per_element, pair_factor)
        if not profile_name:
            raise ValueError("a calibrated model needs a non-empty profile name")
        if intra_scale <= 0 or inter_scale <= 0:
            raise ValueError(
                f"calibration scales must be positive, got intra={intra_scale} "
                f"inter={inter_scale}"
            )
        if inter_latency_bytes < 0:
            raise ValueError(
                f"inter_latency_bytes must be >= 0, got {inter_latency_bytes}"
            )
        self.profile_name = str(profile_name)
        self.intra_scale = float(intra_scale)
        self.inter_scale = float(inter_scale)
        self.inter_latency_bytes = float(inter_latency_bytes)
        self.layer_scales = {
            str(name): float(scale) for name, scale in (layer_scales or {}).items()
        }
        for name, scale in self.layer_scales.items():
            if scale <= 0:
                raise ValueError(
                    f"layer scale for {name!r} must be positive, got {scale}"
                )

    @property
    def cache_key(self) -> tuple:
        return (
            "profiled",
            self.profile_name,
            self.bytes_per_element,
            self.pair_factor,
            self.intra_scale,
            self.inter_scale,
            self.inter_latency_bytes,
            tuple(sorted(self.layer_scales.items())),
        )

    def _layer_scale(self, layer_name: str) -> float:
        return self.layer_scales.get(layer_name, 1.0)

    def layer_cost_key(self, layer_name: str) -> tuple:
        # Only the intra term reads the name, through the layer scale, so
        # layers with equal scales (unnamed ones: 1.0) price alike.
        return (self._layer_scale(layer_name),)

    def intra_layer_bytes(self, tensors: LayerTensors, parallelism: Parallelism) -> float:
        return (
            self._to_bytes(self.intra_layer_elements(tensors, parallelism))
            * self.intra_scale
            * self._layer_scale(tensors.layer_name)
        )

    def _calibrated_transfer_bytes(self, elements: float) -> float:
        """One directional Table-2 transfer: scaled bytes plus startup cost.

        Structural zeros stay zero: a transition that moves nothing (dp→dp)
        pays no latency either, preserving the table's sparsity pattern.
        """
        if elements <= 0.0:
            return 0.0
        return self._to_bytes(elements) * self.inter_scale + self.inter_latency_bytes

    def inter_layer_forward_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        return self._calibrated_transfer_bytes(
            self.inter_layer_forward_elements(previous, current, boundary)
        )

    def inter_layer_backward_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        return self._calibrated_transfer_bytes(
            self.inter_layer_backward_elements(previous, current, boundary)
        )

    def inter_layer_bytes(
        self,
        previous: Parallelism,
        current: Parallelism,
        boundary: LayerTensors,
    ) -> float:
        # The combined amount is the sum of the *calibrated* directional
        # transfers (each pays its own latency), not the calibration of the
        # summed element count -- keeping it equal to what the simulator's
        # forward/backward split tables add up to.
        return self.inter_layer_forward_bytes(
            previous, current, boundary
        ) + self.inter_layer_backward_bytes(previous, current, boundary)


@dataclasses.dataclass(frozen=True)
class LayerCommunication:
    """Communication attributed to one weighted layer at one hierarchy level."""

    layer_index: int
    layer_name: str
    parallelism: Parallelism
    intra_bytes: float
    inter_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.intra_bytes + self.inter_bytes
