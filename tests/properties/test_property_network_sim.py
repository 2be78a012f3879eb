"""Property tests: the network engine vs the analytic engine.

The network simulator must *validate* against the closed form wherever the
closed form's assumptions hold: on the H tree every pair boundary gets the
dedicated binary-tree links the analytic ``effective_pair_bandwidth``
formula prices, so an assignment with no compute/comm overlap window
(all-mp: every exchange sits on the critical path) must produce the same
step time bit for bit, on every model of the zoo.  Where the engines are
allowed to differ, the difference must have one sign: every network-engine
scheduling change is a relaxation, so on contention-free H-tree routes the
network step never exceeds the analytic one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.array import ArrayConfig
from repro.core.baselines import data_parallelism, model_parallelism
from repro.core.hierarchical import HierarchicalPartitioner
from repro.interconnect import HTreeTopology, TorusTopology
from repro.nn.model_zoo import all_models, gpt_r
from repro.sim.network import _PairPlan, flow_plans
from repro.sim.training import TrainingSimulator


def _engines(num_accelerators, topology_type=HTreeTopology):
    array = ArrayConfig(num_accelerators=num_accelerators)
    topology = topology_type(num_accelerators, array.link_bandwidth_bytes)
    return (
        TrainingSimulator(array, topology, sim_engine="analytic"),
        TrainingSimulator(array, topology, sim_engine="network"),
    )


def _zoo():
    return all_models() + [gpt_r(4)]


class TestUncongestedEquality:
    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_all_mp_htree_is_bit_identical(self, model):
        """All-mp has no overlap window and no contention: the engines must
        agree exactly -- same step time, same energy, same bytes."""
        analytic, network = _engines(16)
        assignment = model_parallelism(model, 4)
        expected = analytic.simulate(model, assignment, 256, "mp")
        actual = network.simulate(model, assignment, 256, "mp")
        assert actual.step_seconds == expected.step_seconds
        assert actual.energy_joules == expected.energy_joules
        assert actual.communication_bytes == expected.communication_bytes
        assert tuple(actual.level_communication_bytes) == tuple(
            expected.level_communication_bytes
        )

    def test_all_mp_two_node_torus_is_bit_identical(self, lenet_model):
        """With two accelerators the torus degenerates to one direct link,
        so even the mesh topology is contention-free and must agree."""
        analytic, network = _engines(2, TorusTopology)
        assignment = model_parallelism(lenet_model, 1)
        expected = analytic.simulate(lenet_model, assignment, 64, "mp")
        actual = network.simulate(lenet_model, assignment, 64, "mp")
        assert actual.step_seconds == expected.step_seconds

    @pytest.mark.parametrize("batch_size", [64, 256, 1024])
    def test_equality_holds_across_batch_sizes(self, lenet_model, batch_size):
        analytic, network = _engines(16)
        assignment = model_parallelism(lenet_model, 4)
        expected = analytic.simulate(lenet_model, assignment, batch_size, "mp")
        actual = network.simulate(lenet_model, assignment, batch_size, "mp")
        assert actual.step_seconds == expected.step_seconds


class TestRelaxationDirection:
    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_htree_network_step_never_exceeds_analytic(self, model):
        """Contention-free routes + pure relaxations: one-sided bound for
        every strategy, searched assignments included."""
        analytic, network = _engines(16)
        table = analytic.cost_table(model, 256)
        hypar = HierarchicalPartitioner(num_levels=4).partition(
            model, 256, table=table
        ).assignment
        for assignment in (
            data_parallelism(model, 4),
            model_parallelism(model, 4),
            hypar,
        ):
            slow = analytic.simulate(model, assignment, 256, cost_table=table)
            fast = network.simulate(model, assignment, 256, cost_table=table)
            assert fast.step_seconds <= slow.step_seconds

    @pytest.mark.parametrize("model", _zoo(), ids=lambda model: model.name)
    def test_accounting_is_engine_invariant(self, model):
        """Energy and traffic derive from the amounts, not the schedule:
        both engines must report identical joules and bytes everywhere --
        H tree or torus, congested or not."""
        analytic, network = _engines(16, TorusTopology)
        assignment = data_parallelism(model, 4)
        expected = analytic.simulate(model, assignment, 256, "dp")
        actual = network.simulate(model, assignment, 256, "dp")
        assert actual.energy_joules == expected.energy_joules
        assert actual.communication_bytes == expected.communication_bytes


# A few bandwidths (shared by several links) plus arbitrary ones, so plans
# mix repeated and distinct bandwidths; the rounding-sensitive arbitrary
# floats are where a wrong reduction would show.
bandwidths = st.one_of(
    st.sampled_from([1e9, 2.5e9, 3e9, 12.5e9, 7.0]),
    st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False),
)
per_pair_amounts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False),
)


def _all_links_duration(plan, per_pair):
    """The bottleneck over every link, as the plan's definition states it."""
    return max(
        count * (per_pair / plan.num_flows) / bandwidth
        for _, bandwidth, count in plan.link_loads
    )


class TestPairPlanBottleneck:
    @settings(max_examples=300, deadline=None)
    @given(
        loads=st.lists(
            st.tuples(bandwidths, st.integers(min_value=1, max_value=64)),
            min_size=1,
            max_size=24,
        ),
        num_flows=st.integers(min_value=1, max_value=32),
        per_pair=per_pair_amounts,
    )
    def test_heaviest_count_per_bandwidth_is_bit_exact(self, loads, num_flows, per_pair):
        plan = _PairPlan(
            tuple(
                (f"link:{index}", bandwidth, count)
                for index, (bandwidth, count) in enumerate(loads)
            ),
            num_flows,
        )
        assert plan.duration(per_pair) == _all_links_duration(plan, per_pair)

    @pytest.mark.parametrize("topology_type", [HTreeTopology, TorusTopology])
    @pytest.mark.parametrize("num_accelerators", [4, 16, 64])
    def test_routed_plans_are_bit_exact(self, topology_type, num_accelerators):
        array = ArrayConfig(num_accelerators=num_accelerators)
        topology = topology_type(num_accelerators, array.link_bandwidth_bytes)
        for level_plans in flow_plans(topology):
            for plan in level_plans:
                for per_pair in (1.0, 1.7e6, 3.3e8 / 7, 123456.789):
                    assert plan.duration(per_pair) == _all_links_duration(plan, per_pair)
