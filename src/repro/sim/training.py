"""Event-driven simulation of one DNN training step on the accelerator array.

The simulator builds a task graph for one mini-batch step -- forward pass,
error backward pass, gradient computation and weight update for every
weighted layer -- and schedules it with the discrete-event engine.  One
walk (:meth:`TrainingSimulator._run_step`) builds it for both engines:

* every layer pass runs as a *compute* task on the array's processing units
  (all accelerators execute their share in lock-step, so the pass lasts the
  per-accelerator duration, bounded below by local HMC streaming);
* the tensor exchanges dictated by the HyPar communication model run as
  *communication* tasks on the link resources: model-parallel layers
  exchange output-feature partial sums during forward, data-parallel
  layers exchange gradients during the weight update, and inter-layer
  re-layouts are charged per layer-DAG edge (feature-map share in forward,
  error share in backward) -- the task graph carries the model's fan-out
  and fan-in, so a merge layer's forward waits on every branch and a
  branching layer's backward waits on every consumer's chain;
* communication of the different hierarchy levels of one logical exchange is
  chained deepest-first (a hierarchical reduction proceeds level by level).

Which resources those tasks occupy is the engine's *link model*.  The
analytic engine's :class:`AggregateLinks` puts all compute on one aggregate
PU and each level on one aggregate link running at the effective bandwidth
its topology gives a pair boundary; the network engine's
:class:`~repro.sim.network.RoutedLinks` routes every pair boundary over the
physical links and lets the gradient exchange overlap the backward chain.

Energy is accumulated analytically from the same quantities: arithmetic,
on-chip buffer and local DRAM energy are identical under every strategy
(the work is merely partitioned differently), while communication energy
scales with the bytes and hop counts of the exchanges.

The per-level communication amounts are gathered from a compiled
:class:`~repro.core.costs.HierarchicalCostTable` (cached per
``(model, batch size)``, or passed in via ``simulate(..., cost_table=...)``
by sweeps that pre-compile one), so repeated simulations of the same model
-- the Figures 9/10 sweeps, the strategy comparisons -- derive the
scale-descent tensor amounts once instead of once per level per point.
"""

from __future__ import annotations

from typing import Sequence

from repro.accelerator.array import ArrayConfig
from repro.core import kernels
from repro.core.communication import CommunicationModel
from repro.core.costs import HierarchicalCostTable, TableCache
from repro.core.parallelism import (
    HierarchicalAssignment,
    Parallelism,
    StrategySpace,
)
from repro.core.strategies import strategy_spec
from repro.core.tensors import ScalingMode
from repro.interconnect import HTreeTopology, Topology
from repro.nn.model import DNNModel
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import EventDrivenEngine, Schedule, Task
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport
from repro.sim.network import RoutedLinks

#: The three layer passes of training (Equations 1-3 of the paper).
PHASES = ("forward", "backward", "gradient")

#: Micro-batches streamed across pipeline stage boundaries per step.  Only
#: transfers adjacent to a pipeline (pp) layer are micro-batched; dp/mp-only
#: assignments build exactly the same task graph as before.
DEFAULT_NUM_MICROBATCHES = 4


def pass_cache_key(
    layer, macs_total: float, dram_words_total: float, num_accelerators: int
) -> tuple:
    """Key of one layer pass in a simulator's pass cache.

    Exactly what :meth:`~repro.accelerator.accelerator.Accelerator.execute_layer_pass`
    reads: the layer's spec class and kernel size, its input and output
    shapes, and the work split over ``num_accelerators``.  Layers that
    differ only in name share an entry, so a deep model's repeated blocks
    execute each distinct pass once (the cached execution's ``layer_name``
    is the first such layer's; the simulator reads only its times and
    energies).
    """
    spec = layer.spec
    return (
        type(spec),
        getattr(spec, "kernel_size", None),
        layer.input_shape,
        layer.output_shape,
        macs_total,
        dram_words_total,
        num_accelerators,
    )


class TrainingSimulator:
    """Simulates one training step of a partitioned DNN on an accelerator array.

    Parameters
    ----------
    array:
        The accelerator-array configuration (size, per-accelerator models).
    topology:
        Interconnect topology; defaults to the H tree the paper prefers.
    communication_model:
        Byte-level communication cost model shared with the partitioner.
    scaling_mode:
        How tensor amounts shrink at deeper hierarchy levels; must match the
        mode used when the assignment was searched for the costs to be
        consistent.
    strategies:
        The strategy space cost tables are compiled over (dp/mp by
        default); must cover every choice of the simulated assignments.
    num_microbatches:
        How many micro-batches stream across pipeline stage boundaries.
        Transfers adjacent to a pipeline layer are split into this many
        chained chunks, and downstream compute resumes after the first
        chunk (overlapping the rest).  Irrelevant for assignments without
        pipeline layers, whose task graphs are unchanged.
    table_cache:
        Optional shared :class:`~repro.core.costs.TableCache`.  When given,
        :meth:`cost_table` compiles into (and gathers from) it, keyed by
        the full configuration instead of this instance's model-identity
        cache -- sweep runners hand every simulator of a worker process
        the same cache so one compilation serves every study touching the
        configuration.
    backend:
        Kernel backend for the compiled cost tables (``"numpy"`` /
        ``"compiled"``; ``None`` follows the process default, see
        :mod:`repro.core.kernels`).  Simulated costs are
        backend-independent.
    sim_engine:
        Default simulation engine (``"analytic"`` or ``"network"``, see
        :mod:`repro.sim.backend`); individual :meth:`simulate` calls may
        override it with their keyword-only ``sim_engine``.
    """

    def __init__(
        self,
        array: ArrayConfig | None = None,
        topology: Topology | None = None,
        communication_model: CommunicationModel | None = None,
        scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
        strategies: StrategySpace | str | None = None,
        num_microbatches: int = DEFAULT_NUM_MICROBATCHES,
        table_cache: TableCache | None = None,
        backend: str | None = None,
        sim_engine: str | None = None,
    ) -> None:
        if num_microbatches <= 0:
            raise ValueError(
                f"num_microbatches must be positive, got {num_microbatches}"
            )
        self.array = array or ArrayConfig()
        if self.array.num_accelerators == 1:
            # A single accelerator has no interconnect at all.
            if topology is not None:
                raise ValueError("a single-accelerator array takes no topology")
            self.topology = None
        else:
            self.topology = topology or HTreeTopology(
                self.array.num_accelerators, self.array.link_bandwidth_bytes
            )
            if self.topology.num_accelerators != self.array.num_accelerators:
                raise ValueError(
                    "topology and array configuration disagree on the number of accelerators"
                )
        self.communication_model = communication_model or CommunicationModel()
        self.scaling_mode = ScalingMode.parse(scaling_mode)
        self.strategies = StrategySpace.parse(strategies)
        self.num_microbatches = num_microbatches
        self.table_cache = table_cache
        self.backend = kernels.validate_backend(backend)
        self.sim_engine = validate_sim_engine(sim_engine)
        #: The raw :class:`~repro.sim.engine.Schedule` of the most recent
        #: :meth:`simulate` call (tag/occupancy inspection; ``None`` before
        #: the first call).
        self.last_schedule: Schedule | None = None
        # Compiled cost tables keyed by (model identity, batch size).  The
        # table holds a strong reference to its model, so the id cannot be
        # recycled while the entry lives; sweeps re-simulating one model
        # hundreds of times (Figures 9/10) hit this cache on every point.
        self._table_cache: dict[tuple[int, int], HierarchicalCostTable] = {}
        # Layer-pass executions depend on (layer shape, work), not on the
        # assignment, so every point of a sweep issues identical passes.
        # Keyed by :func:`pass_cache_key`.
        self._pass_cache: dict = {}

    # ------------------------------------------------------------------
    # Cost-table management.
    # ------------------------------------------------------------------

    _TABLE_CACHE_LIMIT = 16

    def cost_table(self, model: DNNModel, batch_size: int) -> HierarchicalCostTable:
        """The compiled cost table for ``model`` at ``batch_size`` (cached)."""
        if self.table_cache is not None:
            return self.table_cache.get_or_compile(
                model,
                batch_size,
                self.array.num_levels,
                scaling_mode=self.scaling_mode,
                communication_model=self.communication_model,
                strategies=self.strategies,
                backend=self.backend,
            )
        key = (id(model), batch_size)
        table = self._table_cache.get(key)
        if table is None:
            if len(self._table_cache) >= self._TABLE_CACHE_LIMIT:
                self._table_cache.clear()
            table = HierarchicalCostTable(
                model,
                batch_size,
                self.array.num_levels,
                scaling_mode=self.scaling_mode,
                communication_model=self.communication_model,
                strategies=self.strategies,
                backend=self.backend,
            )
            self._table_cache[key] = table
        return table

    # ------------------------------------------------------------------
    # Public entry point.
    # ------------------------------------------------------------------

    def simulate(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment | None,
        batch_size: int,
        strategy_name: str = "custom",
        cost_table: HierarchicalCostTable | None = None,
        *,
        sim_engine: str | None = None,
    ) -> TrainingStepReport:
        """Simulate one training step and return its report.

        ``assignment`` may be ``None`` only for a single-accelerator array,
        in which case there is no inter-accelerator communication at all.
        ``cost_table`` optionally supplies an already-compiled
        :class:`~repro.core.costs.HierarchicalCostTable` (it must match this
        simulator's configuration); otherwise one is compiled and cached per
        (model, batch size).  The keyword-only ``sim_engine`` overrides the
        simulator's default engine for this call (``"analytic"`` or
        ``"network"``); both engines walk the same step graph and differ only
        in their link model, and the run's raw schedule lands in
        :attr:`last_schedule`.
        """
        engine_name = validate_sim_engine(
            self.sim_engine if sim_engine is None else sim_engine
        )
        level_comm = self._level_communication(
            model, assignment, batch_size, cost_table
        )
        link_model = AggregateLinks if engine_name == "analytic" else RoutedLinks
        report, schedule = self._run_step(
            model,
            batch_size,
            strategy_name,
            level_comm,
            link_model(self.array, self.topology),
        )
        self.last_schedule = schedule
        return report

    def _level_communication(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment | None,
        batch_size: int,
        cost_table: HierarchicalCostTable | None,
    ) -> list[list[tuple[Parallelism, float, tuple[tuple[int, float, float], ...]]]]:
        """Validate the (model, assignment) pair and gather its records.

        Per level, per layer ``(choice, intra, incoming)`` bytes per pair
        (see :meth:`~repro.core.costs.HierarchicalCostTable.level_communication`),
        gathered from the compiled cost table: the scale-descent outcomes
        are derived once per (model, batch) and shared across every
        simulated assignment and both engines.
        """
        num_levels = self.array.num_levels
        if num_levels == 0:
            if assignment is not None:
                raise ValueError("a single-accelerator array takes no assignment")
            return []
        if assignment is None:
            raise ValueError("an assignment is required for a multi-accelerator array")
        if assignment.num_levels != num_levels:
            raise ValueError(
                f"assignment has {assignment.num_levels} levels, "
                f"array expects {num_levels}"
            )
        if assignment.num_layers != len(model):
            raise ValueError(
                f"assignment covers {assignment.num_layers} layers, "
                f"model has {len(model)}"
            )
        if cost_table is None:
            cost_table = self.cost_table(model, batch_size)
        else:
            cost_table.check_compatible(
                model,
                batch_size,
                num_levels,
                self.scaling_mode,
                self.communication_model,
            )
        return cost_table.level_communication(assignment)

    # ------------------------------------------------------------------
    # The step graph.
    # ------------------------------------------------------------------

    def _run_step(
        self,
        model: DNNModel,
        batch_size: int,
        strategy_name: str,
        level_comm: list,
        links: AggregateLinks | RoutedLinks,
    ) -> tuple[TrainingStepReport, Schedule]:
        """Build one training step's task graph on ``links`` and run it.

        The walk, the pass cache and the energy and byte accounting are
        engine-independent; ``links`` decides which resources a compute
        task occupies, how one exchange becomes link tasks, and whether
        the predecessor's backward waits on a layer's gradient exchange.
        """
        array = self.array
        num_levels = array.num_levels
        num_accelerators = array.num_accelerators
        reference_accelerator = array.accelerators()[0]
        energy_model = array.energy_model
        level_hops = [self.topology.average_hops(level) for level in range(num_levels)]
        engine = links.engine
        compute_resources = links.compute_resources
        exchange = links.exchange

        compute_energy = 0.0
        sram_energy = 0.0
        dram_energy = 0.0
        comm_energy = 0.0
        level_comm_bytes = [0.0] * num_levels

        pass_cache = self._pass_cache

        def add_compute(
            name: str, layer, macs_total: float, dram_words_total: float, phase: str, deps
        ) -> Task:
            nonlocal compute_energy, sram_energy, dram_energy
            cache_key = pass_cache_key(
                layer, macs_total, dram_words_total, num_accelerators
            )
            execution = pass_cache.get(cache_key)
            if execution is None:
                if len(pass_cache) >= 4096:
                    pass_cache.clear()
                execution = reference_accelerator.execute_layer_pass(
                    layer,
                    macs_total / num_accelerators,
                    dram_words_total / num_accelerators,
                )
                pass_cache[cache_key] = execution
            # Energy is accumulated for the *whole* array: every accelerator
            # performs 1/N of the work, so the total equals the unpartitioned
            # amounts.
            compute_energy += execution.compute_energy * num_accelerators
            sram_energy += execution.sram_energy * num_accelerators
            dram_energy += execution.dram_energy * num_accelerators
            return engine.add_task(
                name,
                execution.seconds,
                resources=compute_resources,
                deps=deps,
                tags={"phase": phase, "kind": "compute", "layer": layer.name},
            )

        def add_communication(
            name: str,
            bytes_per_level: Sequence[float],
            phase: str,
            layer_name: str,
            deps: tuple[Task, ...],
            chunks: int = 1,
        ) -> tuple[Task, ...]:
            """One logical exchange across the hierarchy levels (deepest first).

            Returns the gate tasks the downstream consumer waits on.  With
            ``chunks > 1`` (pipeline stage boundaries) each level's transfer
            is split into that many chained micro-batch tasks and the gates
            are the *first* chunks of the shallowest level, so the consumer
            overlaps the remaining micro-batches while the links stay
            occupied for the full transfer.
            """
            nonlocal comm_energy
            tags = {"phase": phase, "kind": "communication", "layer": layer_name}
            levels = [
                level for level in reversed(range(num_levels)) if bytes_per_level[level] > 0
            ]
            if not levels:
                # Zero-byte exchange: nothing occupies a link, but the
                # exchange must still be represented by a *communication*
                # marker -- handing consumers the upstream task would let a
                # compute task stand in for a communication gate,
                # mislabeling every tag-based trace of the schedule.
                return (engine.add_task(f"{name}/none", 0.0, deps=deps, tags=tags),)
            for level in levels:
                moved = bytes_per_level[level] * (1 << level)
                level_comm_bytes[level] += moved
                comm_energy += energy_model.communication_energy_bytes(
                    moved, level_hops[level]
                )
            return exchange(name, bytes_per_level, levels, deps, chunks, tags)

        layers = list(model)
        is_chain = model.is_chain
        #: Consumers of every layer, ascending -- chain: [index + 1].
        layer_consumers = [model.consumers(layer.index) for layer in layers]
        #: Every layer's ``(choice, intra, incoming)`` record per level.
        layer_records = list(zip(*level_comm))
        # A boundary adjacent to a pipeline (stage-local) layer at any level
        # carries micro-batched stage transfers; everything else keeps the
        # unsplit task graph.
        layer_pipelined = [
            any(choice is Parallelism.PIPELINE for choice, _, _ in records)
            for records in layer_records
        ]

        def edge_chunks(source: int, destination: int) -> int:
            """Micro-batch chunks of the edge ``source -> destination``."""
            if layer_pipelined[source] or layer_pipelined[destination]:
                return self.num_microbatches
            return 1

        def edge_task_name(prefix: str, source_layer, destination: int) -> str:
            # Chains keep the single-name scheme (the source layer has at
            # most one outgoing boundary); DAG fan-out needs the destination
            # to keep task names unique.
            if is_chain:
                return f"{prefix}/{source_layer.name}"
            return f"{prefix}/{source_layer.name}->{layers[destination].name}"

        def intra_bytes(index: int, phase: str) -> list[float]:
            """The layer's intra exchange, if its strategy runs it in ``phase``."""
            return [
                intra if strategy_spec(choice).intra_phase == phase else 0.0
                for choice, intra, _ in layer_records[index]
            ]

        def inter_bytes(source: int, destination: int, direction: int) -> list[float]:
            """Re-layout bytes of the edge (1: forward features, 2: backward errors)."""
            position = layers[destination].inputs.index(source)
            return [
                incoming[position][direction]
                for _, _, incoming in layer_records[destination]
            ]

        # ------------------------------------------------------------------
        # Forward pass.  Every edge's gate is what the consumer's compute
        # waits on: the source's intra tail, or its boundary re-layout when
        # one is scheduled.
        # ------------------------------------------------------------------

        forward_edge_gate: dict[tuple[int, int], tuple[Task, ...]] = {}
        tail: tuple[Task, ...] = ()
        for layer in layers:
            deps = tuple(
                task
                for source in layer.inputs
                for task in forward_edge_gate[(source, layer.index)]
            )
            macs = batch_size * layer.macs_per_sample
            words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + layer.weight_count
            tail = (add_compute(f"forward/{layer.name}", layer, macs, words, "forward", deps),)
            if num_levels:
                # Strategies whose intra exchange happens in forward (mp's
                # output-feature partial-sum reduction) run it now.
                tail = add_communication(
                    f"forward-intra/{layer.name}",
                    intra_bytes(layer.index, "forward"),
                    "forward",
                    layer.name,
                    tail,
                )
            for destination in layer_consumers[layer.index]:
                gate = tail
                if num_levels:
                    # Boundary re-layout of the feature map crossing the edge.
                    gate = add_communication(
                        edge_task_name("forward-inter", layer, destination),
                        inter_bytes(layer.index, destination, 1),
                        "forward",
                        layer.name,
                        tail,
                        chunks=edge_chunks(layer.index, destination),
                    )
                forward_edge_gate[(layer.index, destination)] = gate
                if is_chain:
                    tail = gate

        # ------------------------------------------------------------------
        # Backward pass (error backward + gradient computation + update),
        # from the last layer towards the first.  A layer's backward waits
        # for every consumer's error (branch joins respect the fan-in), and
        # its outgoing-edge error re-layouts are charged before its
        # gradient computation.
        # ------------------------------------------------------------------

        forward_final = tail
        error_ready: dict[int, tuple[Task, ...]] = {}
        for layer in reversed(layers):
            consumers = layer_consumers[layer.index]
            if consumers:
                deps = tuple(
                    task for destination in consumers for task in error_ready[destination]
                )
            else:
                deps = forward_final
            macs = batch_size * layer.macs_per_sample
            backward_words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + layer.weight_count
            tail = (
                add_compute(
                    f"backward/{layer.name}", layer, macs, backward_words, "backward", deps
                ),
            )
            if num_levels:
                for destination in consumers:
                    tail = add_communication(
                        edge_task_name("backward-inter", layer, destination),
                        inter_bytes(layer.index, destination, 2),
                        "backward",
                        layer.name,
                        tail,
                        chunks=edge_chunks(layer.index, destination),
                    )
            # With gradient overlap the predecessor's backward needs only
            # the propagated error, not this layer's weight-gradient work.
            error_ready[layer.index] = tail

            gradient_words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + 3 * layer.weight_count
            tail = (
                add_compute(
                    f"gradient/{layer.name}", layer, macs, gradient_words, "gradient", tail
                ),
            )
            if num_levels:
                # Strategies whose intra exchange happens at the weight
                # update (dp's gradient reduction) run it now.
                tail = add_communication(
                    f"gradient-intra/{layer.name}",
                    intra_bytes(layer.index, "gradient"),
                    "gradient",
                    layer.name,
                    tail,
                )
            if not links.overlap_gradient:
                error_ready[layer.index] = tail

        schedule = engine.run()

        # One pass over the schedule instead of one scan per (phase, kind).
        phase_durations = {phase: {"compute": 0.0, "communication": 0.0} for phase in PHASES}
        for task in schedule.tasks:
            phase = task.tags.get("phase")
            kind = task.tags.get("kind")
            bucket = phase_durations.get(phase)
            if bucket is not None and kind in bucket:
                bucket[kind] += task.duration
        phase_seconds = {
            phase: PhaseBreakdown(
                compute_seconds=durations["compute"],
                communication_seconds=durations["communication"],
            )
            for phase, durations in phase_durations.items()
        }

        report = TrainingStepReport(
            model_name=model.name,
            strategy_name=strategy_name,
            topology_name=self.topology.name if self.topology is not None else "none",
            num_accelerators=num_accelerators,
            batch_size=batch_size,
            step_seconds=schedule.makespan,
            energy=EnergyBreakdown(
                compute_joules=compute_energy,
                sram_joules=sram_energy,
                dram_joules=dram_energy,
                communication_joules=comm_energy,
            ),
            communication_bytes=sum(level_comm_bytes),
            phase_seconds=phase_seconds,
            level_communication_bytes=tuple(level_comm_bytes),
        )
        return report, schedule


class AggregateLinks:
    """The analytic engine's link model: aggregate resources per level.

    All compute serializes on one array-wide ``array-pu`` resource, and each
    hierarchy level is one ``link-level-h`` resource running at the
    effective bandwidth the topology gives a pair boundary.  The levels of
    one exchange chain deepest-first (a hierarchical reduction proceeds
    level by level), and the gradient exchange gates the predecessor's
    backward.
    """

    overlap_gradient = False

    def __init__(self, array: ArrayConfig, topology: Topology | None) -> None:
        self.engine = EventDrivenEngine()
        self.compute_resources = (self.engine.resource("array-pu"),)
        self._links = [
            self.engine.resource(f"link-level-{level}")
            for level in range(array.num_levels)
        ]
        self._bandwidth = [
            topology.effective_pair_bandwidth(level) for level in range(array.num_levels)
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
        """Chain the exchange over ``levels``; gate on the shallowest level."""
        first = last = None
        for level in levels:
            first, last = self.engine.add_microbatched_task(
                f"{name}/L{level}",
                bytes_per_level[level] / self._bandwidth[level],
                chunks,
                resources=(self._links[level],),
                deps=deps if last is None else (last,),
                tags={**tags, "level": level},
            )
        return (first,) if chunks > 1 else (last,)
