"""Event-driven simulation of one DNN training step on the accelerator array.

The simulator builds a task graph for one mini-batch step -- forward pass,
error backward pass, gradient computation and weight update for every
weighted layer -- and schedules it with the discrete-event engine:

* every layer pass runs as a *compute* task on the array's processing units
  (all accelerators execute their share in lock-step, so the pass occupies
  one aggregate PU resource for the per-accelerator duration, bounded below
  by local HMC streaming);
* the tensor exchanges dictated by the HyPar communication model run as
  *communication* tasks on the hierarchy-level link resources: model-parallel
  layers exchange output-feature partial sums during forward, data-parallel
  layers exchange gradients during the weight update, and inter-layer
  re-layouts are charged per layer-DAG edge (feature-map share in forward,
  error share in backward) -- the task graph carries the model's fan-out
  and fan-in, so a merge layer's forward waits on every branch and a
  branching layer's backward waits on every consumer's chain;
* communication of the different hierarchy levels of one logical exchange is
  chained (a hierarchical reduction proceeds level by level), with each level
  running at the effective bandwidth its topology gives to a pair boundary.

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

import warnings
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
from repro.sim.backend import get_backend, validate_sim_engine
from repro.sim.engine import EventDrivenEngine, Schedule, Task
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport

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
        ``"network"``); both engines share the compiled communication
        records, and the run's raw schedule lands in :attr:`last_schedule`.
        """
        engine_name = validate_sim_engine(
            self.sim_engine if sim_engine is None else sim_engine
        )
        level_comm = self._validated_level_comm(
            model, assignment, batch_size, cost_table
        )
        backend = get_backend(engine_name)
        report, schedule = backend.run_step(
            self, model, batch_size, strategy_name, level_comm
        )
        self.last_schedule = schedule
        return report

    def _validated_level_comm(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment | None,
        batch_size: int,
        cost_table: HierarchicalCostTable | None = None,
    ) -> list[list["_LayerLevelComm"]]:
        """Validate the (model, assignment) pair and gather its records.

        The engine-independent compilation step both backends share.
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
        return self._per_level_communication(
            model, assignment, batch_size, cost_table
        )

    def _run_analytic_step(
        self,
        model: DNNModel,
        batch_size: int,
        strategy_name: str,
        level_comm: list[list["_LayerLevelComm"]],
    ) -> tuple[TrainingStepReport, Schedule]:
        """Build and run the analytic (aggregate-resource) task graph."""
        num_levels = self.array.num_levels
        engine = EventDrivenEngine()
        pu = engine.resource("array-pu")
        link_resources = [
            engine.resource(f"link-level-{level}") for level in range(num_levels)
        ]
        # Per-level interconnect quantities, hoisted out of the task loops.
        level_bandwidth = [
            self.topology.effective_pair_bandwidth(level) for level in range(num_levels)
        ]
        level_hops = [self.topology.average_hops(level) for level in range(num_levels)]

        accelerators = self.array.accelerators()
        reference_accelerator = accelerators[0]
        num_accelerators = self.array.num_accelerators

        compute_energy = 0.0
        sram_energy = 0.0
        dram_energy = 0.0
        comm_energy = 0.0
        level_comm_bytes = [0.0] * num_levels

        # ------------------------------------------------------------------
        # Helper closures.
        # ------------------------------------------------------------------

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
                resources=(pu,),
                deps=deps,
                tags={"phase": phase, "kind": "compute", "layer": layer.name},
            )

        def add_communication(
            name: str,
            bytes_per_level: Sequence[float],
            phase: str,
            layer_name: str,
            deps,
            chunks: int = 1,
        ) -> Task:
            """Chain one logical exchange across the hierarchy levels (deepest first).

            With ``chunks > 1`` (pipeline stage boundaries) each level's
            transfer is split into that many chained micro-batch tasks and
            the *first* chunk of the shallowest level is returned, so the
            downstream consumer overlaps the remaining micro-batches while
            the link stays occupied for the full transfer.
            """
            nonlocal comm_energy
            gate: Task | None = None
            last: Task | None = None
            chain_deps = tuple(deps)
            for level in reversed(range(num_levels)):
                per_pair = bytes_per_level[level]
                if per_pair <= 0:
                    continue
                num_pairs = 1 << level
                level_comm_bytes[level] += per_pair * num_pairs
                duration = per_pair / level_bandwidth[level]
                comm_energy += self.array.energy_model.communication_energy_bytes(
                    per_pair * num_pairs, level_hops[level]
                )
                first, level_last = engine.add_microbatched_task(
                    f"{name}/L{level}",
                    duration,
                    chunks,
                    resources=(link_resources[level],),
                    deps=chain_deps if last is None else (last,),
                    tags={
                        "phase": phase,
                        "kind": "communication",
                        "layer": layer_name,
                        "level": level,
                    },
                )
                gate = first
                last = level_last
            if last is None:
                # Zero-byte exchange: nothing occupies a link, but the
                # exchange must still be represented by a *communication*
                # marker -- returning the upstream task directly would hand
                # consumers a compute task standing in for a communication
                # gate, mislabeling every tag-based trace of the schedule.
                last = engine.add_task(
                    f"{name}/none",
                    0.0,
                    deps=chain_deps,
                    tags={"phase": phase, "kind": "communication", "layer": layer_name},
                )
                gate = last
            # Micro-batched exchanges gate the downstream on the first chunk
            # of the shallowest level; unsplit exchanges on the final task.
            return gate if chunks > 1 else last

        # ------------------------------------------------------------------
        # Forward pass.
        # ------------------------------------------------------------------

        layers = list(model)
        is_chain = model.is_chain
        #: Consumers of every layer, ascending -- chain: [index + 1].
        layer_consumers = [model.consumers(layer.index) for layer in layers]
        # A boundary adjacent to a pipeline (stage-local) layer at any level
        # carries micro-batched stage transfers; everything else keeps the
        # historical unsplit task graph.
        if num_levels:
            layer_pipelined = [
                any(
                    level_comm[level][index].parallelism is Parallelism.PIPELINE
                    for level in range(num_levels)
                )
                for index in range(len(layers))
            ]
        else:
            layer_pipelined = [False] * len(layers)

        def edge_chunks(source: int, destination: int) -> int:
            """Micro-batch chunks of the edge ``source -> destination``."""
            if layer_pipelined[source] or layer_pipelined[destination]:
                return self.num_microbatches
            return 1

        def edge_task_name(prefix: str, source_layer, destination: int) -> str:
            # Chains keep the historical single-name scheme (the source
            # layer has at most one outgoing boundary); DAG fan-out needs
            # the destination to keep task names unique.
            if is_chain:
                return f"{prefix}/{source_layer.name}"
            return f"{prefix}/{source_layer.name}->{layers[destination].name}"

        def input_position(destination: int, source: int) -> int:
            """Position of ``source`` among ``destination``'s declared inputs."""
            return layers[destination].inputs.index(source)

        # Gate task of every forward edge: what the consumer's compute
        # depends on (the source's intra tail, or its boundary re-layout
        # when one is scheduled).
        forward_edge_gate: dict[tuple[int, int], Task] = {}
        tail: Task | None = None
        for layer in layers:
            deps = tuple(
                forward_edge_gate[(source, layer.index)] for source in layer.inputs
            )
            macs = batch_size * layer.macs_per_sample
            words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + layer.weight_count
            compute = add_compute(
                f"forward/{layer.name}", layer, macs, words, "forward", deps
            )
            tail = compute
            if num_levels:
                # Strategies whose intra exchange happens in forward (mp's
                # output-feature partial-sum reduction) run it now.
                intra = [
                    record.intra_bytes
                    if strategy_spec(record.parallelism).intra_phase == "forward"
                    else 0.0
                    for record in (level_comm[level][layer.index] for level in range(num_levels))
                ]
                tail = add_communication(
                    f"forward-intra/{layer.name}", intra, "forward", layer.name, (compute,)
                )
                # Boundary re-layout of the feature map crossing each
                # outgoing edge (chain: the single next-layer boundary).
                for destination in layer_consumers[layer.index]:
                    position = input_position(destination, layer.index)
                    inter = [
                        level_comm[level][destination].incoming[position][1]
                        for level in range(num_levels)
                    ]
                    gate = add_communication(
                        edge_task_name("forward-inter", layer, destination),
                        inter,
                        "forward",
                        layer.name,
                        (tail,),
                        chunks=edge_chunks(layer.index, destination),
                    )
                    forward_edge_gate[(layer.index, destination)] = gate
                    if is_chain:
                        tail = gate
            else:
                for destination in layer_consumers[layer.index]:
                    forward_edge_gate[(layer.index, destination)] = tail

        # ------------------------------------------------------------------
        # Backward pass (error backward + gradient computation + update),
        # proceeding from the last layer towards the first.  A layer's
        # backward waits for every consumer's backward chain (branch joins
        # respect the fan-in), and its outgoing-edge error re-layouts are
        # charged before its gradient computation, as on chains.
        # ------------------------------------------------------------------

        forward_final: Task | None = tail
        backward_final: dict[int, Task] = {}
        for layer in reversed(layers):
            consumers = layer_consumers[layer.index]
            if consumers:
                deps = tuple(backward_final[destination] for destination in consumers)
            else:
                deps = (forward_final,) if forward_final is not None else ()
            macs = batch_size * layer.macs_per_sample
            backward_words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + layer.weight_count
            backward = add_compute(
                f"backward/{layer.name}", layer, macs, backward_words, "backward", deps
            )
            tail = backward
            if num_levels:
                # Error re-layout across each outgoing edge.
                for destination in consumers:
                    position = input_position(destination, layer.index)
                    inter = [
                        level_comm[level][destination].incoming[position][2]
                        for level in range(num_levels)
                    ]
                    tail = add_communication(
                        edge_task_name("backward-inter", layer, destination),
                        inter,
                        "backward",
                        layer.name,
                        (tail,),
                        chunks=edge_chunks(layer.index, destination),
                    )

            gradient_words = batch_size * (
                layer.input_shape.elements + layer.output_shape.elements
            ) + 3 * layer.weight_count
            gradient = add_compute(
                f"gradient/{layer.name}",
                layer,
                macs,
                gradient_words,
                "gradient",
                (tail,),
            )
            tail = gradient
            if num_levels:
                # Strategies whose intra exchange happens at the weight
                # update (dp's gradient reduction) run it now.
                intra = [
                    record.intra_bytes
                    if strategy_spec(record.parallelism).intra_phase == "gradient"
                    else 0.0
                    for record in (level_comm[level][layer.index] for level in range(num_levels))
                ]
                tail = add_communication(
                    f"gradient-intra/{layer.name}", intra, "gradient", layer.name, (gradient,)
                )
            backward_final[layer.index] = tail

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

    # ------------------------------------------------------------------
    # Per-level communication pre-computation.
    # ------------------------------------------------------------------

    def _per_level_communication(
        self,
        model: DNNModel,
        assignment: HierarchicalAssignment,
        batch_size: int,
        cost_table: HierarchicalCostTable | None = None,
    ) -> list[list["_LayerLevelComm"]]:
        """Per-hierarchy-level, per-layer communication records (bytes per pair).

        Gathered from the compiled cost table: the scale-descent outcomes
        are derived once per (model, batch) and shared across every
        simulated assignment instead of rebuilding the tensor lists level by
        level for each point of a sweep.
        """
        if cost_table is None:
            cost_table = self.cost_table(model, batch_size)
        else:
            cost_table.check_compatible(
                model,
                batch_size,
                assignment.num_levels,
                self.scaling_mode,
                self.communication_model,
            )
        return [
            [
                _LayerLevelComm(
                    parallelism=choice,
                    intra_bytes=intra,
                    incoming=incoming,
                )
                for choice, intra, incoming in level_records
            ]
            for level_records in cost_table.level_communication(assignment)
        ]


class _LayerLevelComm:
    """Communication of one layer at one hierarchy level (bytes per pair).

    ``incoming`` lists the layer's incoming-edge re-layouts as
    ``(source_layer, forward_bytes, backward_bytes)`` tuples in input
    order; a chain layer has at most one entry, a merge layer one per
    branch.
    """

    __slots__ = ("parallelism", "intra_bytes", "incoming")

    def __init__(
        self,
        parallelism: Parallelism,
        intra_bytes: float,
        incoming: tuple[tuple[int, float, float], ...],
    ) -> None:
        self.parallelism = parallelism
        self.intra_bytes = intra_bytes
        self.incoming = incoming

    @property
    def inter_forward_bytes(self) -> float:
        return sum(record[1] for record in self.incoming)

    @property
    def inter_backward_bytes(self) -> float:
        return sum(record[2] for record in self.incoming)

    @property
    def inter_bytes(self) -> float:
        return self.inter_forward_bytes + self.inter_backward_bytes

    @property
    def total_bytes(self) -> float:
        return self.intra_bytes + self.inter_bytes


class AnalyticBackend:
    """:class:`~repro.sim.backend.SimulatorBackend` for the analytic engine."""

    name = "analytic"

    def run_step(
        self,
        simulator: "TrainingSimulator",
        model: DNNModel,
        batch_size: int,
        strategy_name: str,
        level_comm: list,
    ) -> tuple[TrainingStepReport, Schedule]:
        return simulator._run_analytic_step(
            model, batch_size, strategy_name, level_comm
        )


def simulate_partitioned(
    model: DNNModel,
    batch_size: int = 256,
    array: ArrayConfig | None = None,
    topology: Topology | None = None,
    scaling_mode: ScalingMode | str = ScalingMode.PARALLELISM_AWARE,
    strategies: StrategySpace | str | None = None,
) -> tuple[TrainingStepReport, HierarchicalAssignment]:
    """Deprecated convenience helper: search HyPar's assignment, then simulate.

    .. deprecated::
        Kept as a bit-exact shim over :func:`repro.sim.api.simulate`; the
        replacement takes a :class:`~repro.sim.api.SimulationSpec` and also
        selects the simulation engine (``sim_engine="network"``).
    """
    warnings.warn(
        "simulate_partitioned is deprecated. use repro.sim.simulate with a "
        "SimulationSpec instead",
        DeprecationWarning,
        stacklevel=2,
    )
    from repro.sim.api import SimulationSpec, simulate

    result = simulate(
        model,
        spec=SimulationSpec(
            batch_size=batch_size,
            array=array,
            topology=topology,
            scaling_mode=scaling_mode,
            strategies=strategies,
        ),
    )
    return result.report, result.assignment
