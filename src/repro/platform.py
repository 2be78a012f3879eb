"""The platform settings, validated and spelled canonically in one place.

:class:`PlatformSpec` names the platform a partition is evaluated on (paper
Sections 5-6).  The CLI, the service, sweeps and replan all canonicalize
through it, so they accept the same values and spell them the same way.
See "Platform settings" in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import TYPE_CHECKING

from repro.accelerator.array import DEFAULT_NUM_ACCELERATORS, ArrayConfig
from repro.core.costmodel import ANALYTIC_SPEC, canonical_cost_model
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.parallelism import StrategySpace
from repro.core.tensors import ScalingMode
from repro.sim.backend import DEFAULT_SIM_ENGINE, validate_sim_engine

if TYPE_CHECKING:
    from repro.sim.api import SimulationSpec

#: Interconnects a platform can name, in canonical spelling.
TOPOLOGY_NAMES = ("htree", "torus")


def _integer(name: str, value) -> int:
    # bool is an int subclass; a batch size of ``true`` must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}")
    return int(value)


def _topology(text: str) -> str:
    name = text.strip().lower()
    if name not in TOPOLOGY_NAMES:
        raise ValueError(f"unknown topology {text!r}; known: {', '.join(TOPOLOGY_NAMES)}")
    return name


#: Text setting -> its canonical spelling (``ValueError`` if bad).
_SPELLINGS = {
    "topology": _topology,
    "scaling_mode": lambda text: ScalingMode.parse(text).value,
    "strategies": lambda text: StrategySpace.parse(text).describe(),
    "cost_model": canonical_cost_model,
    "sim_engine": lambda text: validate_sim_engine(text.strip().lower()),
}


@functools.lru_cache(maxsize=1024)
def _spelling(name: str, text: str) -> str:
    # Memoized: a sweep or a busy daemon spells the same few values for
    # every point and request, and parsing a strategy space is not free.
    return _SPELLINGS[name](text)


@dataclasses.dataclass(frozen=True)
class PlatformSpec:
    """One platform; the defaults are the paper's evaluation platform.

    Construction raises ``ValueError`` naming the first bad setting and
    stores every setting canonically (``" HTree "`` -> ``"htree"``,
    ``"UNIFORM"`` -> ``"uniform"``).  ``scaling_mode`` and ``strategies``
    also accept a parsed ``ScalingMode`` and ``StrategySpace``.
    """

    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    cost_model: str = ANALYTIC_SPEC
    sim_engine: str = DEFAULT_SIM_ENGINE

    def __post_init__(self) -> None:
        batch_size = _integer("batch_size", self.batch_size)
        if batch_size < 1:
            raise ValueError(f"field 'batch_size' must be positive, got {batch_size}")
        count = _integer("num_accelerators", self.num_accelerators)
        if count < 1 or count & (count - 1):
            raise ValueError(
                f"field 'num_accelerators' must be a power of two >= 1, got {count} "
                "(the array halves at every hierarchy level, so sizes are "
                "powers of two)"
            )
        object.__setattr__(self, "batch_size", batch_size)
        object.__setattr__(self, "num_accelerators", count)
        for name in _SPELLINGS:
            value = getattr(self, name)
            if isinstance(value, ScalingMode):
                value = value.value
            elif isinstance(value, StrategySpace):
                value = value.describe()
            elif not isinstance(value, str):
                raise ValueError(f"field {name!r} must be a string, got {value!r}")
            object.__setattr__(self, name, _spelling(name, value))

    def simulation_spec(self) -> "SimulationSpec":
        """This platform as an object-level :class:`~repro.sim.api.SimulationSpec`."""
        from repro.interconnect import build_topology
        from repro.sim.api import SimulationSpec

        array = ArrayConfig(num_accelerators=self.num_accelerators)
        topology = None
        if self.num_accelerators > 1:
            topology = build_topology(
                self.topology, self.num_accelerators, array.link_bandwidth_bytes
            )
        return SimulationSpec(
            batch_size=self.batch_size,
            array=array,
            topology=topology,
            scaling_mode=self.scaling_mode,
            strategies=self.strategies,
            sim_engine=self.sim_engine,
            cost_model=self.cost_model,
        )


#: The setting names, in field order.
PLATFORM_FIELDS = tuple(field.name for field in dataclasses.fields(PlatformSpec))


def canonical_settings(**settings) -> dict:
    """The canonical spelling of just the given settings (``ValueError`` if bad)."""
    platform = PlatformSpec(**settings)
    return {name: getattr(platform, name) for name in settings}
