"""Tests for the redesigned simulation API (`repro.sim.api`)."""

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.sim import SIM_ENGINES, SimulationSpec, get_backend, simulate
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import Schedule
from repro.sim.training import TrainingSimulator, simulate_partitioned


class TestSimulationSpec:
    def test_defaults_are_the_paper_platform(self):
        spec = SimulationSpec()
        assert spec.batch_size == 256
        assert spec.sim_engine == "analytic"
        simulator = spec.build_simulator()
        assert simulator.array.num_accelerators == 16
        assert simulator.topology.name == "h-tree"

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            SimulationSpec(batch_size=0)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown sim engine"):
            SimulationSpec(sim_engine="psychic")

    def test_build_simulator_carries_the_engine(self):
        spec = SimulationSpec(sim_engine="network")
        assert spec.build_simulator().sim_engine == "network"

    def test_build_simulator_carries_cost_model(self):
        from repro.core.costmodel import resolve_cost_model

        spec = SimulationSpec(cost_model="profiled:slow-interconnect")
        simulator = spec.build_simulator()
        expected = resolve_cost_model("profiled:slow-interconnect").communication_model()
        assert simulator.communication_model.same_costs(expected)
        default = SimulationSpec().build_simulator()
        assert default.communication_model.cache_key == ("analytic", 4, 2)

    def test_rejects_unknown_cost_model(self):
        with pytest.raises(ValueError, match="unknown profile pack"):
            SimulationSpec(cost_model="profiled:typo")


class TestBackendRegistry:
    def test_known_engines(self):
        assert SIM_ENGINES == ("analytic", "network")
        assert validate_sim_engine(None) == "analytic"
        assert validate_sim_engine("network") == "network"
        with pytest.raises(ValueError, match="known engines"):
            validate_sim_engine("psychic")

    def test_backends_are_singletons_with_matching_names(self):
        for name in SIM_ENGINES:
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(name) is backend


class TestSimulateEntryPoint:
    def test_searches_when_no_assignment_given(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        result = simulate(lenet_model, spec=spec)
        assert result.report.strategy_name == "HyPar"
        assert result.assignment is not None
        assert result.assignment.num_levels == 2
        assert result.sim_engine == "analytic"
        assert isinstance(result.schedule, Schedule)
        assert result.step_seconds == result.report.step_seconds

    def test_explicit_assignment_is_simulated_as_given(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        result = simulate(lenet_model, assignment, spec)
        assert result.report.strategy_name == "custom"
        assert result.assignment is assignment

    def test_engine_override_is_keyword_only(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        analytic = simulate(lenet_model, assignment, spec)
        network = simulate(lenet_model, assignment, spec, sim_engine="network")
        assert network.sim_engine == "network"
        assert network.report.step_seconds < analytic.report.step_seconds

    def test_spec_engine_applies_without_override(self, lenet_model):
        spec = SimulationSpec(
            batch_size=64,
            array=ArrayConfig(num_accelerators=4),
            sim_engine="network",
        )
        result = simulate(lenet_model, data_parallelism(lenet_model, 2), spec)
        assert result.sim_engine == "network"

    def test_simulator_method_engine_override(self, lenet_model):
        """`TrainingSimulator.simulate` takes the same keyword-only override."""
        simulator = TrainingSimulator(ArrayConfig(num_accelerators=4))
        assignment = data_parallelism(lenet_model, 2)
        default = simulator.simulate(lenet_model, assignment, 64)
        network = simulator.simulate(
            lenet_model, assignment, 64, sim_engine="network"
        )
        assert network.step_seconds < default.step_seconds
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulator.simulate(lenet_model, assignment, 64, sim_engine="nope")


class TestDeprecatedShim:
    def test_simulate_partitioned_warns_and_matches_the_new_api(self, lenet_model):
        with pytest.warns(
            DeprecationWarning, match="simulate_partitioned is deprecated"
        ):
            report, assignment = simulate_partitioned(
                lenet_model, batch_size=64, array=ArrayConfig(num_accelerators=4)
            )
        result = simulate(
            lenet_model,
            spec=SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4)),
        )
        # Bit-exact delegation: same floats, same searched assignment.
        assert report.step_seconds == result.report.step_seconds
        assert report.energy_joules == result.report.energy_joules
        assert report.communication_bytes == result.report.communication_bytes
        assert assignment == result.assignment
