"""The one platform canonicalizer, and every entry point agreeing with it."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.accelerator.array import ArrayConfig
from repro.interconnect import HTreeTopology, TorusTopology
from repro.platform import PLATFORM_FIELDS, PlatformSpec, canonical_settings
from repro.resilience.replan import ReplanConfig
from repro.service.app import HyParService
from repro.service.schemas import SchemaError, SimulateRequest, SweepRequest
from repro.sweep.spec import AXES, SweepPoint, SweepSpec


class TestPlatformSpec:
    def test_defaults_are_the_paper_platform(self):
        platform = PlatformSpec()
        assert (platform.batch_size, platform.num_accelerators) == (256, 16)
        assert platform.topology == "htree"
        assert platform.scaling_mode == "parallelism-aware"
        assert platform.strategies == "dp,mp"
        assert platform.cost_model == "analytic"
        assert platform.sim_engine == "analytic"

    def test_settings_are_spelled_canonically(self):
        platform = PlatformSpec(
            topology=" Torus ",
            scaling_mode="PARALLELISM_AWARE",
            strategies=" dp , mp , pp ",
            cost_model=" profiled: slow-interconnect ",
            sim_engine="NETWORK",
        )
        assert platform.topology == "torus"
        assert platform.scaling_mode == "parallelism-aware"
        assert platform.strategies == "dp,mp,pp"
        assert platform.cost_model == "profiled:slow-interconnect"
        assert platform.sim_engine == "network"
        assert PlatformSpec(**{name: getattr(platform, name) for name in PLATFORM_FIELDS}) == platform

    def test_parsed_objects_are_accepted(self):
        from repro.core.parallelism import StrategySpace
        from repro.core.tensors import ScalingMode

        platform = PlatformSpec(
            scaling_mode=ScalingMode.UNIFORM, strategies=StrategySpace.parse("mp,dp")
        )
        assert platform.scaling_mode == "uniform"
        assert platform.strategies == "mp,dp"

    @pytest.mark.parametrize(
        "settings, match",
        [
            ({"batch_size": True}, "'batch_size' must be an integer, got True"),
            ({"batch_size": "64"}, "'batch_size' must be an integer"),
            ({"batch_size": -1}, "'batch_size' must be positive"),
            ({"num_accelerators": 6}, "power of two"),
            ({"num_accelerators": None}, "'num_accelerators' must be an integer"),
            ({"topology": "h-tree"}, "unknown topology 'h-tree'; known: htree, torus"),
            ({"scaling_mode": 1}, "'scaling_mode' must be a string"),
            ({"strategies": None}, "'strategies' must be a string"),
            ({"cost_model": "profiled:"}, "cost model must be"),
            ({"sim_engine": "psychic"}, "unknown sim engine"),
        ],
    )
    def test_bad_settings_raise_value_errors(self, settings, match):
        with pytest.raises(ValueError, match=match):
            PlatformSpec(**settings)

    def test_profiled_paths_are_spelled_not_opened(self):
        assert PlatformSpec(cost_model="profiled:/no/such/pack.json").cost_model == (
            "profiled:/no/such/pack.json"
        )

    def test_canonical_settings_returns_only_the_given_settings(self):
        assert canonical_settings(topology="TORUS", batch_size=8) == {
            "topology": "torus",
            "batch_size": 8,
        }

    def test_simulation_spec_builds_the_named_interconnect(self):
        spec = PlatformSpec(num_accelerators=4, topology="torus", batch_size=64).simulation_spec()
        assert spec.array == ArrayConfig(num_accelerators=4)
        assert isinstance(spec.topology, TorusTopology)
        assert spec.topology.num_accelerators == 4
        assert (spec.batch_size, spec.strategies, spec.sim_engine) == (64, "dp,mp", "analytic")
        assert isinstance(PlatformSpec().simulation_spec().topology, HTreeTopology)
        assert PlatformSpec(num_accelerators=1).simulation_spec().topology is None

    def test_a_sweep_point_is_a_platform(self):
        point = SweepPoint.single("Lenet-c", topology="TORUS")
        assert isinstance(point, PlatformSpec)
        assert (point.index, point.model, point.topology) == (0, "Lenet-c", "torus")


#: ``(setting, value, canonical value or None for a rejection)``.
TABLE = [
    ("batch_size", True, None),
    ("batch_size", 64.5, None),
    ("batch_size", 0, None),
    ("batch_size", 64, 64),
    ("num_accelerators", 12, None),
    ("num_accelerators", 4, 4),
    ("sim_engine", "Network", "network"),
    ("sim_engine", "psychic", None),
    ("topology", " HTree ", "htree"),
    ("topology", "mesh", None),
    ("scaling_mode", "UNIFORM", "uniform"),
    ("strategies", "mp,dp", "mp,dp"),
    ("strategies", "dp,zz", None),
    ("cost_model", " profiled: slow-interconnect", "profiled:slow-interconnect"),
]

#: CLI flag of each setting on ``hypar simulate``.
FLAGS = {
    "batch_size": "--batch-size",
    "num_accelerators": "--accelerators",
    "topology": "--topology",
    "scaling_mode": "--scaling-mode",
    "strategies": "--strategies",
    "cost_model": "--cost-model",
    "sim_engine": "--sim-engine",
}

_REJECTED = object()


def _outcome(read):
    try:
        return read()
    except (ValueError, SystemExit):
        return _REJECTED


def _surfaces(setting, value, monkeypatch) -> dict:
    """The canonical value of ``setting`` on every entry point (or a rejection)."""
    axis = next(axis for axis, field in AXES.items() if field == setting)
    spec = {"name": "table", "models": ["SFC"], axis: [value]}

    def via_cli():
        seen = []
        monkeypatch.setattr(cli, "_cmd_simulate", lambda args: seen.append(args.platform) or 0)
        text = str(value).lower() if isinstance(value, bool) else str(value)
        cli.main(["simulate", "SFC", FLAGS[setting], text])
        return getattr(seen[0], setting)

    outcomes = {
        "PlatformSpec": _outcome(lambda: getattr(PlatformSpec(**{setting: value}), setting)),
        "SimulateRequest": _outcome(
            lambda: getattr(SimulateRequest.from_payload({"model": "SFC", setting: value}), setting)
        ),
        "SweepSpec.from_json": _outcome(lambda: getattr(SweepSpec.from_json(spec), axis)[0]),
        "SweepRequest": _outcome(
            lambda: SweepRequest.from_payload({"spec": spec}).spec[axis][0]
        ),
        "CLI": _outcome(via_cli),
    }
    if setting not in ("num_accelerators", "sim_engine"):
        outcomes["ReplanConfig"] = _outcome(lambda: getattr(ReplanConfig(**{setting: value}), setting))
    return outcomes


@pytest.mark.parametrize("setting, value, canonical", TABLE)
def test_every_surface_judges_a_value_alike(setting, value, canonical, monkeypatch, capsys):
    outcomes = _surfaces(setting, value, monkeypatch)
    capsys.readouterr()
    expected = _REJECTED if canonical is None else canonical
    differing = {
        surface: "rejected" if outcome is _REJECTED else outcome
        for surface, outcome in outcomes.items()
        if outcome is not expected and outcome != expected
    }
    assert not differing, f"{setting}={value!r}: expected {canonical!r}, got {differing}"


def test_schema_errors_are_value_errors_carrying_the_platform_message():
    with pytest.raises(SchemaError, match="unknown topology ' mesh'"):
        SimulateRequest.from_payload({"model": "SFC", "topology": " mesh"})


def test_cli_sweep_of_an_alias_spelled_spec_writes_the_service_bytes(tmp_path, capsys):
    spec = {
        "name": "alias",
        "models": ["lenet_c"],
        "batch_sizes": [64],
        "array_sizes": [4],
        "topologies": [" Torus "],
        "scaling_modes": ["UNIFORM"],
        "sim_engines": ["Network"],
    }
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "Lenet-c/b64/n4/torus/uniform/dp,mp/network" in out
    with HyParService() as service:
        status, body = service.handle("POST", "/sweep", json.dumps({"spec": spec}).encode())
    assert status == 200
    assert (tmp_path / "out" / "alias.json").read_bytes() == body
