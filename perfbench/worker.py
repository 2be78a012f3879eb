"""The process that runs zoo_sweep or deep_plan (started by ``run.py``).

It imports the program, builds the seeded inputs, prints ``ready`` (the
end of set-up as ``run.py`` times it), runs the closed loop, checks the
outputs against the program's oracles and prints one JSON result line.
With ``--probe`` it stops after ``ready`` and reports only how long
``import repro`` took.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

import common
import tracing


def _sweep_setup(seed: int):
    from repro.nn import model_zoo
    from repro.sweep import SweepSpec

    spec = SweepSpec(
        name="zoo_sweep",
        models=common.ZOO_MODELS,
        batch_sizes=common.BATCH_SIZES,
        array_sizes=common.ZOO_ARRAYS,
        topologies=common.TOPOLOGIES,
        strategy_spaces=common.STRATEGY_SPACES,
        sim_engines=common.SIM_ENGINES,
    )
    wanted = {tuple(point.values()) for point in common.zoo_grid(seed)}
    points = [
        point
        for point in spec.points()
        if (
            point.model,
            point.batch_size,
            point.num_accelerators,
            point.topology,
            point.strategies,
            point.sim_engine,
        )
        in wanted
    ]
    models = {name: model_zoo.get_model(name) for name in common.ZOO_MODELS}
    return spec, points, models


class Loop:
    """The timed passes of one closed loop; every pass runs the same operations."""

    def __init__(self, calibrate_every: int) -> None:
        self.calibrate_every = calibrate_every
        #: ``(kind, seconds, layers)`` of every completed operation.
        self.done: list[tuple[str, float, int]] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes: list[list] = []
        self.table_hits = 0
        self.table_lookups = 0
        #: ``TableCache.stats()`` after the latest sweep (empty for plans,
        #: which compile without the cache).
        self.table_stats: dict = {}

    def add(self, kind: str, seconds: float, layers: int, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.done.append((kind, seconds, layers))
        else:
            self.failed += 1
        # Calibration samples between operations track the host's speed.
        if self.attempted % self.calibrate_every == 0:
            self.calibration.append(common.calibrate())

    def seconds(self, slowdown: float) -> float:
        """Time spent in operations, at the reference host's speed."""
        return sum(seconds for _, seconds, _ in self.done) / slowdown

    def metrics(self, limit_ms: float, slowdown: float) -> dict:
        seconds = self.seconds(slowdown)
        latencies = {"light": [], "heavy": []}
        for kind, op_seconds, _ in self.done:
            latencies[kind].append(op_seconds * 1e3 / slowdown)
        return {
            "ops_per_s": (len(self.done) / seconds, "1/s"),
            "layers_per_s": (sum(layers for *_, layers in self.done) / seconds, "1/s"),
            **common.latency_metrics(latencies["light"], latencies["heavy"], limit_ms, seconds),
        }


def _run_passes(loop: Loop, run_pass, budget: float) -> None:
    """Whole passes until ``budget`` seconds are spent (at least one)."""
    start = time.perf_counter()
    passes = None
    while passes is None or len(loop.passes) < passes:
        loop.passes.append(run_pass())
        if passes is None:
            passes = max(1, round(budget / (time.perf_counter() - start)))


def zoo_sweep(state, loop: Loop, tracer: tracing.Tracer | None) -> list:
    """One cold ``run_sweep`` over the grid on a serial engine."""
    from repro.sweep import SweepEngine, clear_caches, run_sweep, shared_table_cache

    spec, points, models = state
    outcomes = []

    class TimedEngine(SweepEngine):
        """The serial engine, timing each point and counting failed ones."""

        def map(self, fn, tasks):
            def timed(task):
                start = time.perf_counter()
                try:
                    with tracing.operation(tracer, task.index, "point"):
                        record = fn(task)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    print(f"zoo_sweep: {task.label()}: {error!r}", file=sys.stderr)
                    record = None
                seconds = time.perf_counter() - start
                kind = "heavy" if task.sim_engine == "network" else "light"
                loop.add(kind, seconds, len(models[task.model]), record is not None)
                outcomes.append((task, record))
                return record

            return super().map(timed, tasks)

    clear_caches()
    with TimedEngine(workers=1) as engine:
        if tracer is None:
            run_sweep(spec, engine=engine, points=points)
        else:
            with tracer.span("sweep.run_sweep"):
                run_sweep(spec, engine=engine, points=points)
    stats = loop.table_stats = shared_table_cache().stats()
    loop.table_hits += stats["hits"]
    loop.table_lookups += stats["hits"] + stats["misses"]
    return [_sweep_row(point, record) for point, record in outcomes]


def _sweep_row(point, record) -> list:
    if record is None:
        return [point.label(), None]
    return [
        point.label(),
        list(record.hypar_levels),
        {
            name: [m.step_seconds, m.energy_joules, m.communication_gb]
            for name, m in record.metrics.items()
        },
    ]


def _plan(plan: dict):
    """The pipeline ``hypar simulate <model>`` runs, planned cold."""
    from repro.accelerator.array import ArrayConfig
    from repro.core.hierarchical import HierarchicalPartitioner
    from repro.nn import model_zoo
    from repro.sim.training import TrainingSimulator

    model = model_zoo.get_model(plan["model"])
    batch = plan["batch_size"]
    array = ArrayConfig(num_accelerators=common.DEEP_ACCELERATORS)
    partitioner = HierarchicalPartitioner(num_levels=array.num_levels)
    table = partitioner.compile_table(model, batch)
    result = partitioner.partition(model, batch, table=table)
    report = TrainingSimulator(array).simulate(
        model, result.assignment, batch, "HyPar", cost_table=table
    )
    return model, result, report


def _plan_row(plan: dict, outcome) -> list:
    if outcome is None:
        return [plan["model"], None]
    _, result, report = outcome
    return [
        plan["model"],
        plan["batch_size"],
        [str(level) for level in result.assignment.levels],
        result.total_communication_bytes,
        report.step_seconds,
        report.energy_joules,
        report.communication_gb,
    ]


def deep_plan(plans, loop: Loop, tracer: tracing.Tracer | None) -> list:
    """Every plan of the sequence once, each cold."""
    rows = []
    for index, plan in enumerate(plans):
        start = time.perf_counter()
        try:
            with tracing.operation(tracer, index, "plan"):
                outcome = _plan(plan)
        except Exception as error:  # noqa: BLE001 - counted, reported
            print(f"deep_plan: {plan}: {error!r}", file=sys.stderr)
            outcome = None
        seconds = time.perf_counter() - start
        blocks = int(plan["model"].rsplit("-", 1)[1])
        kind = "heavy" if blocks >= common.DEEP_HEAVY_BLOCKS else "light"
        loop.add(kind, seconds, len(outcome[0]) if outcome else 0, outcome is not None)
        rows.append(_plan_row(plan, outcome))
    return rows


# ----------------------------------------------------------------------
# Output checks against the program's own oracles.
# ----------------------------------------------------------------------


def _check_sweep_point(point, row: list) -> bool:
    """The sweep record equals ``repro.sim.api.simulate`` on the same spec,
    and the searched plan's bytes equal the object oracle."""
    from repro.accelerator.array import ArrayConfig
    from repro.core.baselines import data_parallelism, model_parallelism
    from repro.core.hierarchical import HierarchicalPartitioner
    from repro.interconnect import HTreeTopology, TorusTopology
    from repro.nn.model_zoo import get_model
    from repro.sim.api import SimulationSpec, simulate

    model = get_model(point.model)
    array = ArrayConfig(num_accelerators=point.num_accelerators)
    topology = {"htree": HTreeTopology, "torus": TorusTopology}[point.topology](
        point.num_accelerators, array.link_bandwidth_bytes
    )
    spec = SimulationSpec(
        batch_size=point.batch_size,
        array=array,
        topology=topology,
        scaling_mode=point.scaling_mode,
        strategies=point.strategies,
        sim_engine=point.sim_engine,
    )
    searched = simulate(model, None, spec)
    results = {
        "Model Parallelism": simulate(
            model, model_parallelism(model, array.num_levels), spec
        ).report,
        "Data Parallelism": simulate(
            model, data_parallelism(model, array.num_levels), spec
        ).report,
        "HyPar": searched.report,
    }
    expected = [
        point.label(),
        [str(level) for level in searched.assignment.levels],
        {
            name: [r.step_seconds, r.energy_joules, r.communication_gb]
            for name, r in results.items()
        },
    ]
    partitioner = HierarchicalPartitioner(
        num_levels=array.num_levels,
        scaling_mode=point.scaling_mode,
        strategies=point.strategies,
    )
    plan = partitioner.partition(model, point.batch_size)
    reference = partitioner.evaluate_reference(model, plan.assignment, point.batch_size)
    return (
        row == expected
        and plan.assignment == searched.assignment
        and plan.level_bytes() == reference.level_bytes()
    )


def _check_plan(plan: dict, row: list) -> bool:
    """A fresh cold plan reproduces ``row`` and matches the object oracle."""
    from repro.core.hierarchical import HierarchicalPartitioner

    model, result, report = _plan(plan)
    partitioner = HierarchicalPartitioner(num_levels=result.num_levels)
    reference = partitioner.evaluate_reference(model, result.assignment, plan["batch_size"])
    return (
        _plan_row(plan, (model, result, report)) == row
        and result.level_bytes() == reference.level_bytes()
    )


CHECKS_PER_RUN = 4
#: Calibration samples a probe takes right after its set-up.
PROBE_CALIBRATIONS = 5
#: Operations between two calibration samples (about half a second).
CALIBRATE_EVERY = {"zoo_sweep": 16, "deep_plan": 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("zoo_sweep", "deep_plan"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {common.BENCH_CPU})
    start = time.perf_counter()
    import repro  # noqa: F401 - the import is what is timed

    import_seconds = time.perf_counter() - start
    if args.workload == "zoo_sweep":
        state = _sweep_setup(args.seed)
        run_one, items = zoo_sweep, state[1]
    else:
        state = common.deep_plans(args.seed)
        run_one, items = deep_plan, state
    print("ready", flush=True)
    if args.probe:
        calibration = [common.calibrate() for _ in range(PROBE_CALIBRATIONS)]
        print(
            json.dumps({"import_s": import_seconds, "slowdown": common.slowdown(calibration)}),
            flush=True,
        )
        return 0

    from repro.core import kernels

    budget = args.seconds / 2.0 if args.trace else args.seconds
    loop = Loop(CALIBRATE_EVERY[args.workload])
    _run_passes(loop, lambda: run_one(state, loop, None), budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = common.slowdown(loop.calibration)
    result: dict = {
        "metrics": loop.metrics(common.GOODPUT_LIMIT_MS[args.workload], slowdown),
        "slowdown": slowdown,
    }
    if args.trace:
        tracer = tracing.Tracer()
        traced = Loop(CALIBRATE_EVERY[args.workload])
        tracing.install(tracer)
        try:
            _run_passes(traced, lambda: run_one(state, traced, tracer), budget)
        finally:
            tracer.restore()
        loop.attempted += traced.attempted
        loop.failed += traced.failed
        loop.passes += traced.passes
        if args.workload == "zoo_sweep":
            models = state[2]
            mix = [models[point.model] for point in items]
        else:
            from repro.nn.model_zoo import get_model

            mix = [get_model(plan["model"]) for plan in items]
        lookups = traced.table_lookups
        traced_slowdown = common.slowdown(traced.calibration)
        layer_metrics = tracing.layer_metrics(
            tracer,
            {
                "costs.table_cache.hit_ratio": traced.table_hits / lookups if lookups else 0.0,
                "mix.periodic_layer_share": sum(map(tracing.periodic_layers, mix))
                / sum(map(len, mix)),
                "kernels.dispatches": sum(kernels.dispatch_counts().values()),
                "kernels.numba_available": int(kernels.NUMBA_AVAILABLE),
                "trace.overhead_pct": (
                    traced.seconds(traced_slowdown) / loop.seconds(slowdown) - 1
                )
                * 100,
            },
        )
        result["layer_metrics"] = common.at_reference_speed(layer_metrics, traced_slowdown)
        tracer.write(
            common.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {"dispatch_counts": kernels.dispatch_counts()},
        )

    # Every later pass must repeat the first one exactly.
    first = loop.passes[0]
    mismatched = sum(
        1 for later in loop.passes[1:] for a, b in zip(first, later) if a != b
    )
    rng = random.Random(f"checks:{args.seed}")
    checked = rng.sample(range(len(items)), CHECKS_PER_RUN)
    check = _check_sweep_point if args.workload == "zoo_sweep" else _check_plan
    failed_checks = 0
    for index in checked:
        try:
            passed = check(items[index], first[index])
        except Exception as error:  # noqa: BLE001 - counted, reported
            print(f"{args.workload}: check of item {index}: {error!r}", file=sys.stderr)
            passed = False
        failed_checks += not passed

    result.update(
        {
            "passes": len(loop.passes),
            "attempted": loop.attempted,
            "failed": loop.failed + mismatched + failed_checks,
            "checks": {"run": len(checked), "failed": failed_checks, "mismatched": mismatched},
            "digest": common.digest(first),
            "peak_rss_mb": peak_rss_mb,
            "import_s": import_seconds,
            "counters": {
                "table_cache": loop.table_stats,
                "dispatch_counts": kernels.dispatch_counts(),
                "numba_available": kernels.NUMBA_AVAILABLE,
            },
        }
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
