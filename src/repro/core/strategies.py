"""The per-layer strategy registry.

Every per-layer parallelism strategy contributes three things to the cost
compilation pipeline:

* its **intra-layer cost column** (Table 1 of the paper, generalized): the
  partial-sum/reduction traffic of a layer assigned this strategy;
* its **inter-layer transition block** (Table 2, generalized): how much of
  the boundary feature map (forward) and boundary error (backward) must be
  re-laid-out when this strategy *follows* any other strategy;
* its **descent behaviour**: which tensor fraction one hierarchy-level
  halving shrinks (batch for dp, weights for mp, neither for the
  stage-local pp), consumed by :class:`~repro.core.tensors.TensorScale`
  and the scale-descent states of the vectorized cost tables.

:class:`~repro.core.communication.CommunicationModel` dispatches through
this registry, so the cost tables of :mod:`repro.core.costs`, the
object-based oracle paths and the simulator all see one definition per
strategy.  Adding a strategy is registering a :class:`StrategySpec`; no
enumerator, table or simulator code needs to change.

Element-count conventions
-------------------------
All amounts are *element counts per group* under the pair convention of
:mod:`repro.core.communication`: the byte conversion multiplies by the
pair factor (2), so a spec's transition amount is half the total traffic
crossing the link.  The dp/mp entries reproduce the paper's Tables 1 and 2
verbatim; the pipeline entries are derived from the same rectangle overlap
calculus the partitioned executor (:mod:`repro.core.execution`) validates
numerically:

==============  =====================  =====================
transition       forward (features)     backward (errors)
==============  =====================  =====================
dp → pp          ``0.25 A(F_{l+1})``    ``0.25 A(E_{l+1})``
mp → pp          0                      ``0.5 A(E_{l+1})``
pp → dp          ``0.25 A(F_{l+1})``    ``0.25 A(E_{l+1})``
pp → mp          ``0.25 A(F_{l+1})``    ``0.25 A(E_{l+1})``
pp → pp          ``0.5 A(F_{l+1})``     ``0.5 A(E_{l+1})``
==============  =====================  =====================

(the pp → pp entry is the full activation/error crossing the stage
boundary between two adjacent stages, which live on opposite groups
because consecutive pipeline layers alternate owners; a pipeline layer has
no intra-layer reduction at all, so its Table-1 column is zero).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, Iterable

from repro.core.parallelism import (
    DEFAULT_SPACE,
    FULL_SPACE,
    Parallelism,
    StrategySpace,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.tensors import LayerTensors

#: Which tensor fraction one hierarchy-level descent halves.
BATCH = "batch"
WEIGHT = "weight"
NONE = "none"


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """Everything the cost pipeline needs to know about one strategy.

    Attributes
    ----------
    parallelism:
        The :class:`Parallelism` member this spec implements.
    halves:
        Which tensor fraction a descent under this choice halves:
        ``"batch"`` (dp), ``"weight"`` (mp) or ``"none"`` (stage-local
        strategies such as pp, where the owning group keeps the whole
        layer).
    stage_local:
        Whether the layer lives entirely on one group of the pair (pp).
        Stage-local layers have no kernel replication across the pair and
        alternate owner groups along the layer order.
    intra_phase:
        The training phase the intra-layer exchange belongs to in the
        simulator/trace ("forward" for mp's partial-sum reduction,
        "gradient" for dp's gradient reduction).
    intra_elements:
        Table-1 column: intra-layer amount (elements) for a layer's
        tensor record.
    inter_forward_elements / inter_backward_elements:
        Table-2 transition block, *incoming* edge: the boundary
        feature-map/error amount (elements) re-laid-out when this strategy
        follows ``previous`` across the boundary tensor record.
    description:
        One-line human-readable summary (``hypar strategies``).

    The element functions read only a record's amounts (``feature_in``,
    ``feature_out``, ``weight``, ``macs`` and their aliases), never its
    ``layer_name`` or ``layer_index``: the cost-table compile prices each
    distinct layer signature once and hands the result to every layer
    that shares it.
    """

    parallelism: Parallelism
    halves: str
    stage_local: bool
    intra_phase: str
    intra_elements: Callable[["LayerTensors"], float]
    inter_forward_elements: Callable[[Parallelism, "LayerTensors"], float]
    inter_backward_elements: Callable[[Parallelism, "LayerTensors"], float]
    description: str = ""

    def __post_init__(self) -> None:
        if self.halves not in (BATCH, WEIGHT, NONE):
            raise ValueError(f"unknown descent behaviour {self.halves!r}")
        if self.intra_phase not in ("forward", "gradient"):
            raise ValueError(f"unknown intra phase {self.intra_phase!r}")

    @property
    def short(self) -> str:
        return self.parallelism.short


_REGISTRY: Dict[Parallelism, StrategySpec] = {}


def register_strategy(spec: StrategySpec) -> StrategySpec:
    """Register (or replace) the spec of one strategy.

    The spec's element functions must read only a tensor record's
    amounts, never ``layer_name`` or ``layer_index`` (see
    :class:`StrategySpec`).
    """
    _REGISTRY[spec.parallelism] = spec
    return spec


def strategy_spec(parallelism: Parallelism) -> StrategySpec:
    """The registered spec of ``parallelism``."""
    try:
        return _REGISTRY[parallelism]
    except KeyError:
        raise KeyError(f"no strategy registered for {parallelism}") from None


def registered_strategies() -> Iterable[StrategySpec]:
    """All registered specs, in canonical (full-space) order."""
    return tuple(_REGISTRY[member] for member in FULL_SPACE)


# ----------------------------------------------------------------------
# The built-in strategies.
# ----------------------------------------------------------------------

def _dp_intra(tensors: "LayerTensors") -> float:
    # Table 1: gradient reduction during the weight update.
    return tensors.gradient


def _dp_forward(previous: Parallelism, boundary: "LayerTensors") -> float:
    # dp after anything batch-compatible needs no feature re-layout except
    # from a stage-local producer, whose output exists on one group only.
    if previous is Parallelism.PIPELINE:
        return 0.25 * boundary.feature_out
    return 0.0


def _dp_backward(previous: Parallelism, boundary: "LayerTensors") -> float:
    if previous is Parallelism.DATA:
        return 0.0
    if previous is Parallelism.PIPELINE:
        # The stage owner needs the batch half of its output error the
        # other group produced.
        return 0.25 * boundary.error_out
    # mp -> dp costs half the boundary error tensor (Table 2).
    return 0.5 * boundary.error_out


def _mp_intra(tensors: "LayerTensors") -> float:
    # Table 1: output-feature partial-sum reduction in the forward pass.
    return tensors.feature_out


def _mp_forward(previous: Parallelism, boundary: "LayerTensors") -> float:
    if previous is Parallelism.DATA:
        # Only the dp→mp transition re-lays-out the boundary feature map
        # (Figure 2 (b)).
        return 0.25 * boundary.feature_out
    if previous is Parallelism.PIPELINE:
        # The non-owner group fetches its feature half of the stage output.
        return 0.25 * boundary.feature_out
    return 0.0


def _mp_backward(previous: Parallelism, boundary: "LayerTensors") -> float:
    if previous is Parallelism.DATA:
        return 0.25 * boundary.error_out
    if previous is Parallelism.PIPELINE:
        # The stage owner needs the feature half of its output error the
        # other group produced.
        return 0.25 * boundary.error_out
    # mp -> mp costs half the boundary error tensor (Table 2).
    return 0.5 * boundary.error_out


def _pp_intra(tensors: "LayerTensors") -> float:
    # Stage-local weights: no gradient or partial-sum reduction at all.
    return 0.0


def _pp_forward(previous: Parallelism, boundary: "LayerTensors") -> float:
    if previous is Parallelism.DATA:
        # The stage owner fetches the batch half it did not compute.
        return 0.25 * boundary.feature_out
    if previous is Parallelism.PIPELINE:
        # Adjacent stages live on opposite groups: the full activation
        # crosses the stage boundary (micro-batched in the simulator).
        return 0.5 * boundary.feature_out
    # mp producers hold the full reduced output on both groups.
    return 0.0


def _pp_backward(previous: Parallelism, boundary: "LayerTensors") -> float:
    if previous is Parallelism.DATA:
        # The dp layer's non-owner group needs its batch half of the error.
        return 0.25 * boundary.error_out
    if previous is Parallelism.PIPELINE:
        # The full error crosses back over the stage boundary.
        return 0.5 * boundary.error_out
    # An mp predecessor needs the full error on both groups; the non-owner
    # copy crosses the link.
    return 0.5 * boundary.error_out


DATA_SPEC = register_strategy(
    StrategySpec(
        parallelism=Parallelism.DATA,
        halves=BATCH,
        stage_local=False,
        intra_phase="gradient",
        intra_elements=_dp_intra,
        inter_forward_elements=_dp_forward,
        inter_backward_elements=_dp_backward,
        description="batch split across the pair, kernels replicated "
        "(gradient reduction per step)",
    )
)

MODEL_SPEC = register_strategy(
    StrategySpec(
        parallelism=Parallelism.MODEL,
        halves=WEIGHT,
        stage_local=False,
        intra_phase="forward",
        intra_elements=_mp_intra,
        inter_forward_elements=_mp_forward,
        inter_backward_elements=_mp_backward,
        description="kernel split across the pair, full batch everywhere "
        "(output partial-sum reduction in forward)",
    )
)

PIPELINE_SPEC = register_strategy(
    StrategySpec(
        parallelism=Parallelism.PIPELINE,
        halves=NONE,
        stage_local=True,
        intra_phase="forward",
        intra_elements=_pp_intra,
        inter_forward_elements=_pp_forward,
        inter_backward_elements=_pp_backward,
        description="stage-local layer on one group of the pair; "
        "micro-batched activations/errors cross the stage boundary",
    )
)


__all__ = [
    "BATCH",
    "WEIGHT",
    "NONE",
    "StrategySpec",
    "StrategySpace",
    "DEFAULT_SPACE",
    "FULL_SPACE",
    "register_strategy",
    "strategy_spec",
    "registered_strategies",
    "DATA_SPEC",
    "MODEL_SPEC",
    "PIPELINE_SPEC",
]
