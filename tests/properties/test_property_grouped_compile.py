"""The grouped cost-table compile against the per-layer reference compile.

:class:`HierarchicalCostTable` prices each distinct layer cost signature
once and scatters the rows to every layer and edge that shares it.  These
tests compile the same tables layer by layer (``cost_table_oracle``) and
require the combined ``intra`` / ``inter`` arrays and the forward/backward
splits to match float for float at every ``(level, state)``, and
``level_communication`` to equal the scalar per-layer gather.  They cover
the zoo, small deep models and random DAGs, both strategy spaces, all
three scaling modes, and the analytic model plus every shipped pack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cost_table_oracle import PerLayerReference
from repro.core.communication import CalibratedCommunicationModel, CommunicationModel
from repro.core.costmodel import resolve_cost_model, shipped_profiles
from repro.core.costs import HierarchicalCostTable
from repro.core.parallelism import HierarchicalAssignment, LayerAssignment
from repro.core.tensors import ScalingMode
from repro.nn.layers import ConvLayer, FCLayer
from repro.nn.model import build_model
from repro.nn.model_zoo import all_model_builders, get_model
from repro.nn.shapes import MergeOp
from test_property_costs import small_dag_models

SPACES = ["dp,mp", "dp,mp,pp"]
COST_MODELS = ["analytic", *(f"profiled:{pack}" for pack in sorted(shipped_profiles()))]
ZOO = [
    name for name in all_model_builders() if name not in ("gpt_s", "bert_s", "gpt_r")
]
DEEP = ["gpt_s-3", "bert_s-3", "gpt_r-3"]


def _communication_model(spec: str) -> CommunicationModel:
    return resolve_cost_model(spec).communication_model()


def _same_floats(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal shapes and bit-identical float64 contents."""
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def _random_assignment(rng, table: HierarchicalCostTable) -> HierarchicalAssignment:
    members = table.strategies.members
    return HierarchicalAssignment(
        tuple(
            LayerAssignment(
                tuple(members[code] for code in rng.integers(0, len(members), table.num_layers))
            )
            for _ in range(table.num_levels)
        )
    )


def _uniform_assignment(table: HierarchicalCostTable, member) -> HierarchicalAssignment:
    return HierarchicalAssignment(
        tuple(
            LayerAssignment((member,) * table.num_layers) for _ in range(table.num_levels)
        )
    )


def _assert_matches_reference(table: HierarchicalCostTable, assignments) -> None:
    reference = PerLayerReference(table)
    for level in range(table.num_levels):
        assert _same_floats(table._intra[level], reference.intra[level]), level
        assert _same_floats(table._inter[level], reference.inter[level]), level
        # The splits stay grouped; gathered per edge they are the per-layer rows.
        assert _same_floats(
            table._inter_forward[level][table._edge_group], reference.inter_forward[level]
        ), level
        assert _same_floats(
            table._inter_backward[level][table._edge_group], reference.inter_backward[level]
        ), level
    for assignment in assignments:
        assert table.level_communication(assignment) == reference.level_communication(
            assignment
        )
        assert np.array_equal(
            table.state_indices(assignment), reference.state_indices(assignment)
        )


def _check_model(model, batch_size: int, num_levels: int, cost_model: str, seed: int) -> None:
    communication_model = _communication_model(cost_model)
    rng = np.random.default_rng(seed)
    for strategies in SPACES:
        for scaling_mode in ScalingMode:
            table = HierarchicalCostTable(
                model,
                batch_size,
                num_levels,
                scaling_mode=scaling_mode,
                communication_model=communication_model,
                strategies=strategies,
            )
            assignments = [
                *(_uniform_assignment(table, member) for member in table.strategies),
                *(_random_assignment(rng, table) for _ in range(3)),
            ]
            _assert_matches_reference(table, assignments)


@pytest.mark.parametrize("cost_model", COST_MODELS)
@pytest.mark.parametrize("model_name", ZOO)
def test_zoo_tables_match_per_layer_compile(model_name, cost_model):
    _check_model(get_model(model_name), 64, 3, cost_model, seed=len(model_name))


@pytest.mark.parametrize("cost_model", COST_MODELS)
@pytest.mark.parametrize("model_name", DEEP)
def test_deep_tables_match_per_layer_compile(model_name, cost_model):
    model = get_model(model_name)
    # Repeated blocks collapse to fewer groups than layers.
    table = HierarchicalCostTable(model, 32, 2, communication_model=_communication_model(cost_model))
    assert int(table._layer_group.max()) + 1 < table.num_layers
    _check_model(model, 32, 2, cost_model, seed=7)


@settings(max_examples=40, deadline=None)
@given(
    model=small_dag_models(max_layers=7),
    cost_model=st.sampled_from(COST_MODELS),
    strategies=st.sampled_from(SPACES),
    scaling_mode=st.sampled_from(list(ScalingMode)),
    batch_size=st.sampled_from([1, 8, 256]),
    num_levels=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_dag_tables_match_per_layer_compile(
    model, cost_model, strategies, scaling_mode, batch_size, num_levels, seed
):
    table = HierarchicalCostTable(
        model,
        batch_size,
        num_levels,
        scaling_mode=scaling_mode,
        communication_model=_communication_model(cost_model),
        strategies=strategies,
    )
    rng = np.random.default_rng(seed)
    _assert_matches_reference(table, [_random_assignment(rng, table) for _ in range(3)])


def _twin_layer_model():
    """``conv1`` and ``conv3`` share every shape; only ``conv1`` is named in
    the hetero-accelerators pack's per-layer scales."""
    specs = [
        ConvLayer(name="conv0", out_channels=8, kernel_size=3, padding=1),
        ConvLayer(name="conv1", out_channels=8, kernel_size=3, padding=1),
        ConvLayer(name="conv3", out_channels=8, kernel_size=3, padding=1),
        FCLayer(name="head", out_features=10),
    ]
    return build_model("twins", (8, 8, 8), specs)


def test_calibrated_layer_scale_splits_same_shape_layers():
    model = _twin_layer_model()
    calibrated = _communication_model("profiled:hetero-accelerators")
    assert isinstance(calibrated, CalibratedCommunicationModel)
    assert "conv1" in calibrated.layer_scales and "conv3" not in calibrated.layer_scales
    assert calibrated.layer_scales["conv1"] != 1.0

    for unscaled in ("analytic", "profiled:slow-interconnect"):
        shared = HierarchicalCostTable(
            model, 16, 2, communication_model=_communication_model(unscaled)
        )
        assert shared._layer_group[1] == shared._layer_group[2]
        assert np.array_equal(shared._intra[0][1], shared._intra[0][2])

    table = HierarchicalCostTable(model, 16, 2, communication_model=calibrated)
    assert table._layer_group[1] != table._layer_group[2]
    for level in range(table.num_levels):
        assert not np.array_equal(table._intra[level][1], table._intra[level][2])
    _assert_matches_reference(
        table, [_uniform_assignment(table, member) for member in table.strategies]
    )


def test_equal_weights_and_work_with_different_outputs_keep_their_own_rows():
    """A 3x3 conv to 4 channels and a 1x1 conv to 36 channels over the same
    input hold the same weights and MACs but different output maps."""
    specs = [
        ConvLayer(name="wide", out_channels=4, kernel_size=3, padding=1),
        ConvLayer(name="point", out_channels=36, kernel_size=1, inputs=("wide",)),
        ConvLayer(name="side", out_channels=4, kernel_size=3, padding=1, inputs=("wide",)),
        FCLayer(name="head", out_features=10, inputs=("point", "side"), merge=MergeOp.CONCAT),
    ]
    model = build_model("outputs", (8, 8, 4), specs)
    wide, point = model[0], model[1]
    assert (wide.weight_count, wide.macs_per_sample) == (point.weight_count, point.macs_per_sample)
    assert wide.output_shape.elements != point.output_shape.elements
    for strategies in SPACES:
        table = HierarchicalCostTable(model, 16, 2, strategies=strategies)
        assert table._layer_group[0] != table._layer_group[1]
        rng = np.random.default_rng(3)
        _assert_matches_reference(table, [_random_assignment(rng, table) for _ in range(4)])


def test_gathered_records_are_built_on_demand_and_memoized():
    model = get_model("gpt_s-3")
    table = HierarchicalCostTable(model, 32, 3)
    assert not table._records
    states = [1] * table.num_layers
    level_table = table.level_cost_table(2, states)
    assert not table._records
    first = level_table.tensors[5]
    assert table._records == {(2, 1, 5): first}
    assert table.tensors_for_level(2, states)[5] is first
    assert level_table.tensors[-1] is level_table.tensors[table.num_layers - 1]
    assert first.layer_name == model[5].name and first.layer_index == 5


def test_lazy_records_ignore_later_changes_to_the_callers_states():
    table = HierarchicalCostTable(get_model("gpt_s-3"), 32, 3)
    states = np.ones(table.num_layers, dtype=np.int64)
    level_table = table.level_cost_table(2, states)
    states[:] = 0
    assert level_table.tensors[5] is table.tensors_for_level(2, [1] * table.num_layers)[5]
