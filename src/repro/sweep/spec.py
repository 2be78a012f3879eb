"""Declarative description of a figure-style sweep grid.

A :class:`SweepSpec` names the axes of the paper's evaluation grid --
models x strategy spaces x topologies x scaling modes x batch sizes x
array sizes -- and expands to the cartesian product of
:class:`SweepPoint` records in a deterministic order (axes nested in the
field order above, models outermost).  Specs round-trip through JSON
(``hypar sweep my_spec.json``) and a few named presets cover the common
grids (``hypar sweep fig6``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from typing import Iterable, Mapping

from repro.core.costmodel import ANALYTIC_SPEC
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import canonical_model_name
from repro.platform import PlatformSpec, canonical_settings
from repro.sim.backend import DEFAULT_SIM_ENGINE

#: The paper's ten evaluation networks, in figure order.
PAPER_MODELS = (
    "SFC",
    "SCONV",
    "Lenet-c",
    "Cifar-c",
    "AlexNet",
    "VGG-A",
    "VGG-B",
    "VGG-C",
    "VGG-D",
    "VGG-E",
)

#: Sweep axis -> the point field each of its values sets, in nesting order
#: (models outermost).  Drives validation, expansion and the JSON form.
AXES = {
    "models": "model",
    "batch_sizes": "batch_size",
    "array_sizes": "num_accelerators",
    "topologies": "topology",
    "scaling_modes": "scaling_mode",
    "strategy_spaces": "strategies",
    "cost_models": "cost_model",
    "sim_engines": "sim_engine",
}


@dataclasses.dataclass(frozen=True, kw_only=True)
class SweepPoint(PlatformSpec):
    """One grid configuration: a validated platform plus its index and model."""

    index: int
    model: str

    def label(self) -> str:
        """Compact human-readable point id used in logs and artifacts."""
        base = (
            f"{self.model}/b{self.batch_size}/n{self.num_accelerators}"
            f"/{self.topology}/{self.scaling_mode}/{self.strategies}"
        )
        # The analytic defaults stay label-identical to the historical
        # format; only calibrated/network points grow the extra segments.
        if self.cost_model != ANALYTIC_SPEC:
            base = f"{base}/{self.cost_model}"
        if self.sim_engine != DEFAULT_SIM_ENGINE:
            base = f"{base}/{self.sim_engine}"
        return base

    @classmethod
    def single(cls, model: str, **settings) -> "SweepPoint":
        """One standalone grid point (index 0) of ``model``.

        The reusable entry for callers that want exactly one
        search-plus-simulate job -- the service's ``/simulate`` endpoint,
        scripts.  ``settings`` are :class:`~repro.platform.PlatformSpec`
        fields; omitted ones take the paper's defaults, bad ones raise
        ``ValueError``.
        """
        return cls(index=0, model=model, **settings)


def _canonical_axis_value(field: str, value):
    if field != "model":
        return canonical_settings(**{field: value})[field]
    if not isinstance(value, str):
        raise ValueError(f"model names must be strings, got {value!r}")
    try:
        return canonical_model_name(value)
    except KeyError as error:
        raise ValueError(error.args[0]) from None


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """The grid: every combination of the axes is one :class:`SweepPoint`.

    Axis values are canonicalized on construction (models by zoo name, the
    rest by :class:`~repro.platform.PlatformSpec`).  Array size ``1``
    simulates the single-accelerator baseline, as in the scalability study.
    """

    name: str
    models: tuple[str, ...]
    batch_sizes: tuple[int, ...] = (DEFAULT_BATCH_SIZE,)
    array_sizes: tuple[int, ...] = (16,)
    topologies: tuple[str, ...] = ("htree",)
    scaling_modes: tuple[str, ...] = (ScalingMode.PARALLELISM_AWARE.value,)
    strategy_spaces: tuple[str, ...] = ("dp,mp",)
    cost_models: tuple[str, ...] = (ANALYTIC_SPEC,)
    sim_engines: tuple[str, ...] = (DEFAULT_SIM_ENGINE,)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a sweep spec needs a name")
        for axis, field in AXES.items():
            values = getattr(self, axis)
            # tuple("VGG-A") would silently explode into letters.
            if isinstance(values, str) or not isinstance(values, Iterable):
                raise ValueError(f"sweep spec axis {axis!r} must be a list, got {values!r}")
            values = tuple(_canonical_axis_value(field, value) for value in values)
            if not values:
                raise ValueError(f"sweep axis {axis!r} must not be empty")
            object.__setattr__(self, axis, values)

    # ------------------------------------------------------------------
    # Expansion.
    # ------------------------------------------------------------------

    @property
    def num_points(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis in AXES)

    def points(self) -> tuple[SweepPoint, ...]:
        """The grid in deterministic order (models outermost)."""
        grid = itertools.product(*(getattr(self, axis) for axis in AXES))
        return tuple(
            SweepPoint(index=index, **dict(zip(AXES.values(), values)))
            for index, values in enumerate(grid)
        )

    # ------------------------------------------------------------------
    # JSON round trip.
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"name": self.name, **{axis: list(getattr(self, axis)) for axis in AXES}}

    @classmethod
    def from_json(cls, payload: Mapping) -> "SweepSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep spec keys: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}"
            )
        if "name" not in payload or "models" not in payload:
            raise ValueError("a sweep spec requires at least 'name' and 'models'")
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as handle:
            return cls.from_json(json.load(handle))

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_points} points "
            f"({len(self.models)} models x {len(self.batch_sizes)} batches x "
            f"{len(self.array_sizes)} array sizes x {len(self.topologies)} "
            f"topologies x {len(self.scaling_modes)} scaling modes x "
            f"{len(self.strategy_spaces)} strategy spaces x "
            f"{len(self.cost_models)} cost models x "
            f"{len(self.sim_engines)} sim engines)"
        )


#: Named grids runnable as ``hypar sweep <preset>``.
PRESETS: dict[str, SweepSpec] = {
    # The Figures 6-8 grid: the paper's ten networks on the preferred
    # platform (sixteen accelerators, H tree, batch 256).
    "fig6": SweepSpec(name="fig6", models=PAPER_MODELS),
    # The Figure 12 grid: the same networks on both interconnects.
    "fig12": SweepSpec(
        name="fig12", models=PAPER_MODELS, topologies=("htree", "torus")
    ),
    # The batch-size axis of the sensitivity study on VGG-A.
    "batch": SweepSpec(
        name="batch",
        models=("VGG-A",),
        batch_sizes=(32, 64, 128, 256, 512, 1024, 2048, 4096),
    ),
    # A two-model, two-batch grid small enough for CI smoke runs.
    "smoke": SweepSpec(
        name="smoke",
        models=("Lenet-c", "Cifar-c"),
        batch_sizes=(64, 256),
        array_sizes=(8,),
    ),
}


def load_spec(name_or_path: str) -> SweepSpec:
    """Resolve a preset name or a JSON spec file path."""
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]
    if name_or_path.endswith(".json"):
        return SweepSpec.from_file(name_or_path)
    raise ValueError(
        f"unknown sweep preset {name_or_path!r} (and not a .json path); "
        f"presets: {', '.join(sorted(PRESETS))}"
    )
