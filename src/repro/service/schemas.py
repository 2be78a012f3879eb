"""Request schemas and canonicalization for the ``hypar serve`` daemon.

Every POST endpoint validates its JSON body against a small frozen
dataclass here.  Validation is strict (unknown fields are rejected with a
message naming the known ones) and canonicalizing: model names resolve to
their canonical zoo spelling, the platform settings are spelled by
:class:`~repro.platform.PlatformSpec` (the canonicalizer the CLI, sweeps
and replan share), and missing fields fill with the paper's defaults.
Two payloads describing the same work -- fields reordered, aliases used,
defaults spelled out or omitted -- therefore canonicalize to *equal*
requests and hash to the same cache key.

The cache key itself is :meth:`ServiceRequest.cache_key`: the SHA-256 of
the endpoint kind plus the canonical payload serialized with sorted keys
and fixed separators, so it is deterministic across processes and
restarts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Mapping

from repro.accelerator.array import DEFAULT_NUM_ACCELERATORS
from repro.core import kernels
from repro.core.costmodel import ANALYTIC_SPEC, shipped_profiles
from repro.core.hierarchical import DEFAULT_BATCH_SIZE
from repro.core.tensors import ScalingMode
from repro.nn.model_zoo import canonical_model_name
from repro.platform import PLATFORM_FIELDS, PlatformSpec
from repro.sim.backend import DEFAULT_SIM_ENGINE
from repro.sweep.spec import PRESETS, SweepSpec


class SchemaError(ValueError):
    """A request payload failed validation; the message is user-facing."""


def _require_mapping(payload, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise SchemaError(
            f"{what} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _field_names(schema) -> tuple[str, ...]:
    """A flat schema's body fields: its dataclass fields, in order."""
    return tuple(field.name for field in dataclasses.fields(schema))


def _reject_unknown(payload: Mapping, known: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SchemaError(
            f"unknown {what} field(s): {', '.join(unknown)}; "
            f"known fields: {', '.join(known)}"
        )


def _int_field(payload: Mapping, name: str, default: int) -> int:
    value = payload.get(name, default)
    # bool is an int subclass; "batch_size": true must not pass as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _str_field(payload: Mapping, name: str, default: str) -> str:
    value = payload.get(name, default)
    if not isinstance(value, str):
        raise SchemaError(f"field {name!r} must be a string, got {value!r}")
    return value


def _canonical_model(payload: Mapping) -> str:
    if "model" not in payload:
        raise SchemaError("field 'model' is required (e.g. \"VGG-A\")")
    name = payload["model"]
    if not isinstance(name, str):
        raise SchemaError(f"field 'model' must be a string, got {name!r}")
    try:
        return canonical_model_name(name)
    except KeyError as error:
        raise SchemaError(str(error.args[0])) from None


def _canonical_backend(payload: Mapping) -> str:
    # The daemon's canonical default is the concrete "numpy", not the
    # process default, so request hashes cannot drift with server flags.
    text = _str_field(payload, "backend", "numpy")
    try:
        kernels.validate_backend(text)
    except ValueError as error:
        raise SchemaError(str(error)) from None
    return text


def _require_shipped(cost_model: str) -> None:
    """Reject a profiled cost model that does not name a shipped pack.

    The daemon never opens caller-named files: a profiled spec must name a
    pack shipped under ``repro/core/profiles`` (the CLI may pass paths,
    the service may not).  This runs on the canonical spelling, before
    anything resolves the pack, because resolving ``profiled:<path>``
    would open that path on the server.
    """
    if cost_model != ANALYTIC_SPEC:
        pack = cost_model.split(":", 1)[1]
        shipped = shipped_profiles()
        if pack not in shipped:
            raise SchemaError(
                f"unknown profile pack {pack!r}; shipped packs: "
                f"{', '.join(sorted(shipped))}"
            )


def _platform(payload: Mapping, fields: tuple[str, ...]) -> dict:
    """The canonical platform settings among ``fields``, read from ``payload``.

    Omitted settings take the paper's defaults; :class:`PlatformSpec`
    validates and spells them, and a bad value becomes a SchemaError.
    """
    names = [name for name in fields if name in PLATFORM_FIELDS]
    try:
        settings = PlatformSpec(
            **{name: payload[name] for name in names if name in payload}
        )
    except ValueError as error:
        raise SchemaError(str(error)) from None
    _require_shipped(settings.cost_model)
    return {name: getattr(settings, name) for name in names}


def shipped_cost_model(spec: str) -> str:
    """Canonicalize one cost-model spec the daemon may use (shipped packs only)."""
    return _platform({"cost_model": spec}, ("cost_model",))["cost_model"]


class ServiceRequest:
    """Canonical-payload and cache-key behaviour shared by every schema."""

    #: Endpoint kind mixed into the cache key ("partition", ...).
    kind = ""

    def canonical_payload(self) -> dict:
        """The canonicalized request as a JSON-ready dict."""
        return dataclasses.asdict(self)  # type: ignore[call-overload]

    def cache_key(self) -> str:
        """Deterministic hash identifying this request across processes."""
        rendered = json.dumps(
            {"kind": self.kind, **self.canonical_payload()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(rendered.encode()).hexdigest()

    def coalesce_key(self) -> tuple:
        """The key *different* requests sharing heavy state serialize on.

        ``/partition`` and ``/simulate`` requests for the same
        (model, batch, array, scaling, strategies) configuration need the
        same compiled cost table; computing them concurrently would
        compile it twice (the response cache only single-flights
        byte-identical requests).  The default is per-request (no
        cross-request coalescing).
        """
        return (self.kind, self.cache_key())


@dataclasses.dataclass(frozen=True)
class PartitionRequest(ServiceRequest):
    """``POST /partition``: search HyPar's assignment for one network."""

    model: str
    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    backend: str = "numpy"
    cost_model: str = ANALYTIC_SPEC

    kind = "partition"

    def coalesce_key(self) -> tuple:
        # Shared with /simulate: same table-relevant configuration.  The
        # backend is part of the table cache key, so it serializes too.
        return (
            "table",
            self.model,
            self.batch_size,
            self.num_accelerators,
            self.scaling_mode,
            self.strategies,
            self.backend,
            self.cost_model,
        )

    @classmethod
    def from_payload(cls, payload) -> "PartitionRequest":
        payload = _require_mapping(payload, "a /partition request")
        fields = _field_names(cls)
        _reject_unknown(payload, fields, "/partition")
        model = _canonical_model(payload)
        settings = _platform(payload, fields)
        if settings["num_accelerators"] < 2:
            # A search splits the array at least once.
            raise SchemaError(
                "field 'num_accelerators' must be a power of two >= 2, "
                f"got {settings['num_accelerators']}"
            )
        return cls(model=model, backend=_canonical_backend(payload), **settings)


@dataclasses.dataclass(frozen=True)
class SimulateRequest(ServiceRequest):
    """``POST /simulate``: search + simulate one grid point (MP/DP/HyPar)."""

    model: str
    batch_size: int = DEFAULT_BATCH_SIZE
    num_accelerators: int = DEFAULT_NUM_ACCELERATORS
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    cost_model: str = ANALYTIC_SPEC
    sim_engine: str = DEFAULT_SIM_ENGINE

    kind = "simulate"

    def canonical_payload(self) -> dict:
        # The canonical "analytic" default is *omitted* so every request
        # hash minted before the field existed stays valid; only network
        # requests carry (and hash) the engine.
        payload = dataclasses.asdict(self)
        if payload["sim_engine"] == DEFAULT_SIM_ENGINE:
            del payload["sim_engine"]
        return payload

    def coalesce_key(self) -> tuple:
        # Topology affects the simulated schedule but not the compiled
        # table, so it is deliberately absent: a /partition and /simulate
        # pair (or two /simulate topologies) serialize their compile.
        return (
            "table",
            self.model,
            self.batch_size,
            self.num_accelerators,
            self.scaling_mode,
            self.strategies,
            self.cost_model,
        )

    @classmethod
    def from_payload(cls, payload) -> "SimulateRequest":
        payload = _require_mapping(payload, "a /simulate request")
        fields = _field_names(cls)
        _reject_unknown(payload, fields, "/simulate")
        # One accelerator is allowed: the single-accelerator baseline point.
        return cls(model=_canonical_model(payload), **_platform(payload, fields))


@dataclasses.dataclass(frozen=True)
class SweepRequest(ServiceRequest):
    """``POST /sweep``: run a whole grid through the warm engine.

    The body carries either ``{"preset": "smoke"}`` or ``{"spec": {...}}``
    (the :class:`~repro.sweep.spec.SweepSpec` JSON format).  Axis values
    canonicalize exactly like the single-point endpoints, so a spec naming
    ``vgg_a`` and one naming ``VGG-A`` share a cache entry -- and the
    response bytes match a ``hypar sweep`` CLI run of the canonical spec.
    """

    spec: dict

    kind = "sweep"
    _FIELDS = ("preset", "spec")

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        payload = _require_mapping(payload, "a /sweep request")
        _reject_unknown(payload, cls._FIELDS, "/sweep")
        has_preset = "preset" in payload
        has_spec = "spec" in payload
        if has_preset == has_spec:
            raise SchemaError(
                "a /sweep request needs exactly one of 'preset' "
                f"(one of: {', '.join(sorted(PRESETS))}) or 'spec' "
                "(a sweep-spec JSON object)"
            )
        if has_preset:
            name = payload["preset"]
            if not isinstance(name, str) or name not in PRESETS:
                raise SchemaError(
                    f"unknown sweep preset {name!r}; "
                    f"presets: {', '.join(sorted(PRESETS))}"
                )
            spec = PRESETS[name]
        else:
            spec_payload = _require_mapping(payload["spec"], "the 'spec' field")
            try:
                spec = SweepSpec.from_json(spec_payload)
            except (ValueError, TypeError) as error:
                raise SchemaError(f"invalid sweep spec: {error}") from None
        for cost_model in spec.cost_models:
            _require_shipped(cost_model)
        return cls(spec=spec.to_json())

    def to_spec(self) -> SweepSpec:
        return SweepSpec.from_json(self.spec)


@dataclasses.dataclass(frozen=True)
class ReplanRequest(ServiceRequest):
    """``POST /replan``: elastic re-planning over an availability trace.

    The body names a model/policy configuration plus the trace to replay,
    either inline (``"trace": [{"t": ..., "event": ..., "nodes": [...]}]``)
    or as a named generator (``"preset": "spot"`` with optional ``seed`` /
    ``num_events``).  Presets are synthesized *server-side during
    canonicalization* and the canonical payload stores only the
    materialized events -- a preset request and the equivalent inline
    trace therefore hash to the same cache key, and the trace's
    provenance metadata (preset name, seed) never leaks into the
    deterministic response bytes.
    """

    model: str
    trace: tuple
    num_nodes: int
    horizon: float | None
    batch_size: int = DEFAULT_BATCH_SIZE
    policy: str = "every-event"
    topology: str = "htree"
    scaling_mode: str = ScalingMode.PARALLELISM_AWARE.value
    strategies: str = "dp,mp"
    horizon_steps: int = 500
    cost_model: str = ANALYTIC_SPEC

    kind = "replan"
    _FIELDS = (
        "model",
        "batch_size",
        "num_nodes",
        "policy",
        "topology",
        "scaling_mode",
        "strategies",
        "horizon_steps",
        "horizon",
        "trace",
        "preset",
        "seed",
        "num_events",
        "cost_model",
    )

    @classmethod
    def from_payload(cls, payload) -> "ReplanRequest":
        from repro.resilience.replan import POLICIES
        from repro.resilience.traces import (
            PRESET_NAMES,
            AvailabilityTrace,
            TraceEvent,
            synthesize_trace,
        )

        payload = _require_mapping(payload, "a /replan request")
        _reject_unknown(payload, cls._FIELDS, "/replan")
        has_trace = "trace" in payload
        has_preset = "preset" in payload
        if has_trace == has_preset:
            raise SchemaError(
                "a /replan request needs exactly one of 'trace' (a list of "
                "availability events) or 'preset' "
                f"(one of: {', '.join(PRESET_NAMES)})"
            )
        if has_trace:
            for field in ("seed", "num_events"):
                if field in payload:
                    raise SchemaError(
                        f"field {field!r} only applies to preset traces; "
                        "drop it when providing 'trace' inline"
                    )

        num_nodes = _int_field(payload, "num_nodes", DEFAULT_NUM_ACCELERATORS)
        if num_nodes < 2:
            raise SchemaError(
                f"field 'num_nodes' must be >= 2, got {num_nodes}"
            )
        policy = _str_field(payload, "policy", "every-event")
        if policy not in POLICIES:
            raise SchemaError(
                f"unknown policy {policy!r}; known: {', '.join(POLICIES)}"
            )
        horizon_steps = _int_field(payload, "horizon_steps", 500)
        if horizon_steps <= 0:
            raise SchemaError(
                f"field 'horizon_steps' must be positive, got {horizon_steps}"
            )
        horizon = payload.get("horizon")
        if horizon is not None:
            if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
                raise SchemaError(
                    f"field 'horizon' must be a number, got {horizon!r}"
                )
            horizon = float(horizon)

        if has_preset:
            preset = payload["preset"]
            if not isinstance(preset, str) or preset not in PRESET_NAMES:
                raise SchemaError(
                    f"unknown trace preset {preset!r}; "
                    f"presets: {', '.join(PRESET_NAMES)}"
                )
            seed = _int_field(payload, "seed", 0)
            num_events = _int_field(payload, "num_events", 12)
            try:
                trace = synthesize_trace(
                    preset,
                    num_nodes=num_nodes,
                    seed=seed,
                    num_events=num_events,
                    horizon=horizon,
                )
            except ValueError as error:
                raise SchemaError(str(error)) from None
        else:
            entries = payload["trace"]
            if not isinstance(entries, (list, tuple)):
                raise SchemaError(
                    f"field 'trace' must be a list of events, got {entries!r}"
                )
            try:
                events = tuple(TraceEvent.from_json(entry) for entry in entries)
                trace = AvailabilityTrace(
                    num_nodes=num_nodes, events=events, horizon=horizon
                )
            except (ValueError, TypeError) as error:
                raise SchemaError(str(error)) from None

        return cls(
            model=_canonical_model(payload),
            trace=tuple(
                (event.t, event.event, tuple(event.nodes))
                for event in trace.events
            ),
            num_nodes=num_nodes,
            horizon=trace.horizon,
            policy=policy,
            horizon_steps=horizon_steps,
            **_platform(payload, cls._FIELDS),
        )

    def to_trace(self):
        """The canonical :class:`~repro.resilience.traces.AvailabilityTrace`."""
        from repro.resilience.traces import AvailabilityTrace, TraceEvent

        return AvailabilityTrace(
            num_nodes=self.num_nodes,
            events=tuple(
                TraceEvent(t=t, event=kind, nodes=tuple(nodes))
                for t, kind, nodes in self.trace
            ),
            horizon=self.horizon,
        )

    def to_config(self):
        """The matching :class:`~repro.resilience.replan.ReplanConfig`."""
        from repro.resilience.replan import ReplanConfig

        return ReplanConfig(
            **{name: getattr(self, name) for name in _field_names(ReplanConfig)}
        )
