"""Tests for the redesigned simulation API (`repro.sim.api`)."""

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism
from repro.core.costs import HierarchicalCostTable
from repro.sim import SIM_ENGINES, SimulationSpec, simulate
from repro.sim.backend import validate_sim_engine
from repro.sim.engine import Schedule
from repro.sim.training import TrainingSimulator


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


class TestSimulateEntryPoint:
    @pytest.mark.parametrize("num_accelerators, num_levels", [(4, 2), (16, 4)])
    def test_searches_when_no_assignment_given(
        self, lenet_model, num_accelerators, num_levels
    ):
        spec = SimulationSpec(
            batch_size=64, array=ArrayConfig(num_accelerators=num_accelerators)
        )
        result = simulate(lenet_model, spec=spec)
        assert result.report.strategy_name == "HyPar"
        assert result.report.num_accelerators == num_accelerators
        assert result.report.communication_bytes > 0
        assert result.assignment is not None
        assert result.assignment.num_levels == num_levels
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


class TestGivenCostTable:
    def test_search_rejects_a_table_for_another_batch(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        table = HierarchicalCostTable(lenet_model, 128, 2)
        with pytest.raises(ValueError, match="different"):
            simulate(lenet_model, spec=spec, cost_table=table)

    def test_search_uses_a_matching_table(self, lenet_model):
        spec = SimulationSpec(batch_size=64, array=ArrayConfig(num_accelerators=4))
        table = HierarchicalCostTable(lenet_model, 64, 2)
        given = simulate(lenet_model, spec=spec, cost_table=table)
        compiled = simulate(lenet_model, spec=spec)
        assert given.assignment == compiled.assignment
        assert given.report == compiled.report
