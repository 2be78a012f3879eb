"""Spans recorded from the benchmark's side of each layer boundary.

The program has no tracing of its own, so a traced run replaces the
public functions listed in :func:`install` with thin wrappers that record
a span around every call (name, start, end, parent span, operation id)
and then restores the originals.  Spans stay in memory and are written
out once, when the run ends.  The recorder assumes one calling thread,
which holds for every traced path: the serial sweep, the deep-plan loop
and the in-process service replay.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

#: Every per-layer metric a traced run reports, with its unit.  Layers a
#: workload bypasses report 0.
PER_LAYER = (
    ("import.repro_s", "s"),
    ("nn.get_model.calls", "count"),
    ("nn.get_model.ms", "ms"),
    ("costs.compile.calls", "count"),
    ("costs.compile.ms", "ms"),
    ("costs.compile.us_per_layer_level", "us"),
    ("costs.table_cache.hit_ratio", "ratio"),
    ("search.partition.calls", "count"),
    ("search.partition.ms", "ms"),
    ("search.partition.us_per_layer_level", "us"),
    ("sim.analytic.calls", "count"),
    ("sim.analytic.ms", "ms"),
    ("sim.analytic.tasks", "count"),
    ("sim.analytic.us_per_task", "us"),
    ("sim.network.calls", "count"),
    ("sim.network.ms", "ms"),
    ("sim.network.tasks", "count"),
    ("sim.network.us_per_task", "us"),
    ("sweep.evaluate_point.ms", "ms"),
    ("sweep.engine_self.ms", "ms"),
    ("service.handle.ms_p50", "ms"),
    ("service.handle.ms_p99", "ms"),
    ("service.http_self.ms_p50", "ms"),
    ("service.open_loop.ms_p50", "ms"),
    ("service.open_loop.ms_p90", "ms"),
    ("service.queue_wait.ms_p99", "ms"),
    ("service.result_cache.hit_ratio", "ratio"),
    ("service.result_cache.evictions", "count"),
    ("service.result_cache.coalesced", "count"),
    ("replan.calls", "count"),
    ("replan.ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("mix.periodic_layer_share", "ratio"),
    ("mix.network_call_share", "ratio"),
    ("kernels.dispatches", "count"),
    ("kernels.numba_available", "bool"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, operation id, attrs]`` rows.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._operation: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its attribute dict for the caller to fill."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        attrs: dict = {}
        row = [name, time.perf_counter(), 0.0, parent, self._operation, attrs]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def operation(self, operation_id: int, name: str):
        """The root span of one point, plan or request; children share its id."""
        self._operation = operation_id
        try:
            with self.span(name) as attrs:
                yield attrs
        finally:
            self._operation = None

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a callable of ``(args, kwargs)``;
        ``after(result, args, kwargs)`` returns attributes to attach.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    attrs.update(after(result, args, kwargs))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms and summed attributes.

        A span's self time is its duration minus its children's; children
        of one span run one after another on the one thread, so they never
        overlap.
        """
        child_seconds = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_seconds[parent] += end - start
        totals: dict[str, dict] = {}
        for index, (name, start, end, _, _, attrs) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start - child_seconds[index]) * 1e3
            for key, value in attrs.items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write(self, path, extra: dict) -> None:
        """Write every span and the run's raw counters as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": operation,
                **attrs,
            }
            for name, start, end, parent, operation, attrs in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, **extra}))


def operation(tracer: Tracer | None, operation_id: int, name: str):
    """``tracer.operation(...)``, or no span at all in an untraced run."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.operation(operation_id, name)


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every traced layer."""
    from repro.core import costs, hierarchical
    from repro.nn import model_zoo
    from repro.service import app
    from repro.sim import training
    from repro.sweep import runner

    # Modules that imported get_model / evaluate_point by name hold their
    # own reference, so each one is wrapped where it is looked up.
    for module in (model_zoo, runner, app):
        tracer.wrap(module, "get_model", "nn.get_model")
    tracer.wrap(
        costs.HierarchicalCostTable,
        "__init__",
        "costs.compile",
        after=lambda _, args, kwargs: {
            "layer_levels": len(args[0].model) * args[0].num_levels
        },
    )
    tracer.wrap(
        hierarchical.HierarchicalPartitioner,
        "partition",
        "search.partition",
        after=lambda _, args, kwargs: {"layer_levels": len(args[1]) * args[0].num_levels},
    )
    tracer.wrap(
        training.TrainingSimulator,
        "simulate",
        lambda args, kwargs: "sim." + (kwargs.get("sim_engine") or args[0].sim_engine),
        after=lambda _, args, kwargs: {"tasks": len(args[0].last_schedule.tasks)},
    )
    for module in (runner, app):
        tracer.wrap(module, "evaluate_point", "sweep.evaluate_point")
    tracer.wrap(app, "run_replan", "replan")


def layer_metrics(tracer: Tracer, measured: dict) -> dict:
    """Every :data:`PER_LAYER` metric from the spans plus ``measured`` values."""
    totals = tracer.totals()

    def total(name: str, key: str = "ms") -> float:
        return totals.get(name, {}).get(key, 0)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    values = {
        "nn.get_model.calls": total("nn.get_model", "calls"),
        "nn.get_model.ms": total("nn.get_model"),
        "costs.compile.calls": total("costs.compile", "calls"),
        "costs.compile.ms": total("costs.compile"),
        "costs.compile.us_per_layer_level": per(
            total("costs.compile"), total("costs.compile", "layer_levels"), 1e3
        ),
        "search.partition.calls": total("search.partition", "calls"),
        "search.partition.ms": total("search.partition"),
        "search.partition.us_per_layer_level": per(
            total("search.partition"), total("search.partition", "layer_levels"), 1e3
        ),
        "sweep.evaluate_point.ms": total("sweep.evaluate_point"),
        "sweep.engine_self.ms": total("sweep.run_sweep", "self_ms"),
        "replan.calls": total("replan", "calls"),
        "replan.ms": total("replan"),
        "trace.spans": len(tracer.spans),
    }
    for engine in ("analytic", "network"):
        name = f"sim.{engine}"
        values[f"{name}.calls"] = total(name, "calls")
        values[f"{name}.ms"] = total(name)
        values[f"{name}.tasks"] = total(name, "tasks")
        values[f"{name}.us_per_task"] = per(total(name), total(name, "tasks"), 1e3)
    sim_calls = values["sim.analytic.calls"] + values["sim.network.calls"]
    values["mix.network_call_share"] = per(values["sim.network.calls"], sim_calls)
    values.update(measured)
    return {name: (values.get(name, 0), unit) for name, unit in PER_LAYER}


def periodic_layers(model) -> int:
    """Weighted layers of ``model`` inside a repeated block.

    Layers are compared by their resolved shapes, weights, work and
    relative input offsets (names ignored).  The smallest period whose
    longest run of shift-equal layers spans at least four periods marks
    that run as periodic -- the same four-period rule the DP memoizer
    applies to its cost rows.
    """
    signatures = [
        (
            type(layer.spec).__name__,
            layer.input_shape,
            layer.output_shape,
            layer.post_pool_shape,
            layer.weight_count,
            layer.macs_per_sample,
            tuple(layer.index - source for source in layer.inputs),
            layer.merge if len(layer.inputs) > 1 else None,
        )
        for layer in model
    ]
    count = len(signatures)
    for period in range(1, count // 4 + 1):
        best = run = 0
        for index in range(count - period):
            run = run + 1 if signatures[index] == signatures[index + period] else 0
            best = max(best, run)
        if (best + period) // period >= 4:
            return best + period
    return 0
