"""The network engine's link model: routed flows on the physical links.

The ``"network"`` engine of :func:`repro.sim.api.simulate`.  Both engines
walk the same training-step graph
(:meth:`~repro.sim.training.TrainingSimulator._run_step`), with the same
pass cache and the same energy and byte accounting; they differ only in
their link model.  Where the analytic model
(:class:`~repro.sim.training.AggregateLinks`) serializes all compute on
one aggregate ``array-pu`` resource and models each hierarchy level as one
aggregate link, :class:`RoutedLinks` instantiates the *physical* platform
from the :class:`~repro.interconnect.Topology`:

* one PU resource per device (``pu-0`` .. ``pu-N-1``); a layer pass runs in
  lock-step across the array, so a compute task occupies every PU for the
  per-accelerator duration -- but communication tasks occupy *links only*,
  which lets the PUs compute while exchanges are in flight;
* one resource per physical link of ``topology.graph`` (accelerator-switch
  and accelerator-accelerator edges alike), carrying that link's
  ``bandwidth`` attribute.

A pair boundary's exchange at hierarchy level ``h`` is routed as the
shortest-path flows between the paired devices (``left[i] <-> right[i]``,
the pairing of :class:`~repro.sim.trace.TraceBuilder`): one task per
boundary that occupies every link on the union of its flow paths for the
*bottleneck* duration -- the maximum over links of (bytes crossing that
link) / (link bandwidth).  Two boundaries whose routes share a physical
link therefore queue on it, which is exactly the contention the analytic
model's per-level aggregate cannot express: on the H tree the binary-tree
traffic pattern gets dedicated links and the two engines agree bit-tight,
while on the torus same-level boundaries zig-zag across shared mesh links
and the network engine charges the resulting serialization.

The two per-engine scheduling decisions (both are *relaxations*, never
added cost, so uncongested no-overlap cases stay equal):

* per-boundary routing: the levels of one exchange still chain
  deepest-first, but per boundary -- the level-``h`` task of group ``p``
  waits only on its child boundaries at the deeper level, and disjoint
  boundaries run in parallel on their own links;
* gradient overlap (:attr:`RoutedLinks.overlap_gradient`): the gradient
  all-reduce (``gradient-intra``, dp's weight-update exchange) no longer
  gates the predecessor layer's backward compute, so it drains on the
  links while the PUs continue down the backward chain (it still extends
  the step when it finishes last).

``PhaseBreakdown.communication_seconds`` aggregates per-link task
occupancy (a level with ``2**h`` busy boundaries contributes each
boundary's duration), which is the physically meaningful total here;
step time, energy and bytes are the cross-engine comparable quantities.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx

from repro.accelerator.array import ArrayConfig
from repro.interconnect.topology import Topology, hierarchical_groups
from repro.sim.engine import EventDrivenEngine, Task


def link_name(u, v) -> str:
    """Canonical resource name of the physical link ``{u, v}``."""
    a, b = sorted((str(u), str(v)))
    return f"link:{a}<->{b}"


class _PairPlan:
    """Pre-routed flow plan of one pair boundary at one hierarchy level.

    ``link_loads`` lists ``(link name, bandwidth bytes/s, flow count)`` for
    every physical link on the union of the boundary's flow paths;
    ``num_flows`` is the number of device pairs exchanging (half the group
    size).  The per-link byte load of a ``per_pair``-byte exchange is
    ``count * per_pair / num_flows`` (each flow carries an equal share,
    both directions traverse the same undirected links).

    ``bottlenecks`` keeps only the heaviest flow count per distinct
    bandwidth.  For a non-negative load, ``count * per_flow / bandwidth``
    is nondecreasing in ``count`` at a fixed bandwidth (IEEE multiply and
    divide round monotonically), so the maximum over these candidates is
    the maximum over every link, bit for bit.
    """

    __slots__ = ("link_loads", "num_flows", "bottlenecks")

    def __init__(
        self, link_loads: tuple[tuple[str, float, int], ...], num_flows: int
    ) -> None:
        self.link_loads = link_loads
        self.num_flows = num_flows
        heaviest: dict[float, int] = {}
        for _, bandwidth, count in link_loads:
            if count > heaviest.get(bandwidth, 0):
                heaviest[bandwidth] = count
        self.bottlenecks = tuple(heaviest.items())

    def duration(self, per_pair_bytes: float) -> float:
        """Bottleneck transfer time of a ``per_pair_bytes`` (>= 0) exchange."""
        per_flow = per_pair_bytes / self.num_flows
        return max([count * per_flow / bandwidth for bandwidth, count in self.bottlenecks])


def flow_plans(topology: Topology) -> list[list[_PairPlan]]:
    """Routed plans for every boundary, indexed ``[level][pair]`` (cached).

    Cached on the topology instance next to its other derived-quantity
    caches: the graph is immutable, and every simulated step of a sweep
    reuses the same routes.
    """
    plans = getattr(topology, "_network_flow_plans", None)
    if plans is not None:
        return plans
    graph = topology.graph
    plans = []
    for level in range(topology.num_levels):
        level_plans = []
        for left, right in hierarchical_groups(topology.num_accelerators, level):
            loads: dict[str, list] = {}
            for a, b in zip(left, right):
                path = nx.shortest_path(graph, a, b)
                for u, v in zip(path, path[1:]):
                    key = link_name(u, v)
                    entry = loads.get(key)
                    if entry is None:
                        bandwidth = graph.edges[u, v].get(
                            "bandwidth", topology.link_bandwidth_bytes
                        )
                        loads[key] = [bandwidth, 1]
                    else:
                        entry[1] += 1
            level_plans.append(
                _PairPlan(
                    link_loads=tuple(
                        (key, bandwidth, count)
                        for key, (bandwidth, count) in loads.items()
                    ),
                    num_flows=len(left),
                )
            )
        plans.append(level_plans)
    topology._network_flow_plans = plans
    return plans


class RoutedLinks:
    """The network engine's link model: per-device PUs, routed boundary flows.

    Compute tasks occupy every device's PU; each pair boundary's exchange
    is one task per level on the physical links of its routed flows (see
    :func:`flow_plans`), chained per boundary deepest-first.  The gradient
    exchange overlaps the predecessor's backward.
    """

    overlap_gradient = True

    def __init__(self, array: ArrayConfig, topology: Topology | None) -> None:
        self.engine = engine = EventDrivenEngine()
        self.compute_resources = tuple(
            engine.resource(f"pu-{index}") for index in range(array.num_accelerators)
        )
        if array.num_levels:
            self._plans = flow_plans(topology)
            # Each boundary's link resources, resolved once per step.
            self._resources = [
                [
                    tuple(engine.resource(key) for key, _, _ in plan.link_loads)
                    for plan in level_plans
                ]
                for level_plans in self._plans
            ]

    def exchange(
        self,
        name: str,
        bytes_per_level: Sequence[float],
        levels: Sequence[int],
        deps: tuple[Task, ...],
        chunks: int,
        tags: dict,
    ) -> tuple[Task, ...]:
        """Per-boundary link tasks over ``levels``; gate on the shallowest level."""
        add_microbatched = self.engine.add_microbatched_task
        previous_level = None
        previous_lasts: list[Task] = []
        for level in levels:
            per_pair = bytes_per_level[level]
            level_plans = self._plans[level]
            level_resources = self._resources[level]
            firsts: list[Task] = []
            lasts: list[Task] = []
            for pair in range(1 << level):
                if previous_level is None:
                    pair_deps = deps
                else:
                    # This boundary's group covers a contiguous span of the
                    # deeper level's groups; wait on exactly those.
                    span = 1 << (previous_level - level)
                    pair_deps = tuple(previous_lasts[pair * span : (pair + 1) * span])
                first, last = add_microbatched(
                    f"{name}/L{level}/p{pair}",
                    level_plans[pair].duration(per_pair),
                    chunks,
                    resources=level_resources[pair],
                    deps=pair_deps,
                    tags={**tags, "level": level, "pair": pair},
                )
                firsts.append(first)
                lasts.append(last)
            previous_level = level
            previous_lasts = lasts
        return tuple(firsts) if chunks > 1 else tuple(lasts)
