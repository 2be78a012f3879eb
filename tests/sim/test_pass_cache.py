"""The shape-keyed layer-pass cache against per-layer pass executions.

Both engines cache ``execute_layer_pass`` results under
:func:`repro.sim.training.pass_cache_key`, so same-shape layers of a deep
model share one entry.  Every compute task must still last exactly what
``execute_layer_pass`` gives for its *own* layer and work, and the
report's compute/SRAM/DRAM energies must be the per-layer sums.
"""

import pytest

from repro.accelerator.array import ArrayConfig
from repro.core.hierarchical import HierarchicalPartitioner
from repro.nn.model_zoo import get_model
from repro.sim.training import TrainingSimulator, pass_cache_key

BATCH = 32


def _pass_work(layer, phase: str) -> tuple[float, float]:
    """The (MACs, DRAM words) the step builders charge one pass."""
    macs = BATCH * layer.macs_per_sample
    feature_words = BATCH * (layer.input_shape.elements + layer.output_shape.elements)
    weights = 3 * layer.weight_count if phase == "gradient" else layer.weight_count
    return macs, feature_words + weights


@pytest.fixture(scope="module")
def deep_plan():
    model = get_model("gpt_s-16")
    array = ArrayConfig(num_accelerators=16)
    partitioner = HierarchicalPartitioner(num_levels=array.num_levels)
    table = partitioner.compile_table(model, BATCH)
    assignment = partitioner.partition(model, BATCH, table=table).assignment
    return model, array, table, assignment


@pytest.mark.parametrize("sim_engine", ["analytic", "network"])
def test_compute_tasks_match_their_own_layer_pass(deep_plan, sim_engine):
    model, array, table, assignment = deep_plan
    simulator = TrainingSimulator(array, sim_engine=sim_engine)
    accelerator = array.accelerators()[0]
    count = array.num_accelerators
    layers = {layer.name: layer for layer in model}
    for _ in range(2):  # cold cache, then every pass served from it
        report = simulator.simulate(model, assignment, BATCH, cost_table=table)
        compute = sram = dram = 0.0
        tasks = simulator.last_schedule.by_tag("kind", "compute")
        assert len(tasks) == 3 * len(model)
        for task in tasks:
            layer = layers[task.tags["layer"]]
            macs, words = _pass_work(layer, task.tags["phase"])
            execution = accelerator.execute_layer_pass(layer, macs / count, words / count)
            assert task.end == task.start + execution.seconds, task.name
            compute += execution.compute_energy * count
            sram += execution.sram_energy * count
            dram += execution.dram_energy * count
        assert report.energy.compute_joules == compute
        assert report.energy.sram_joules == sram
        assert report.energy.dram_joules == dram
    # The 16 repeated blocks collapse onto a handful of distinct passes.
    assert len(simulator._pass_cache) < len(model)


def test_pass_key_ignores_only_the_name():
    model = get_model("gpt_s-16")
    first, second = model[1], model[5]
    assert first.name != second.name
    assert pass_cache_key(first, 1.0, 2.0, 16) == pass_cache_key(second, 1.0, 2.0, 16)
    assert pass_cache_key(first, 1.0, 2.0, 16) != pass_cache_key(second, 1.0, 2.0, 4)
    assert pass_cache_key(model[1], 1.0, 2.0, 16) != pass_cache_key(model[2], 1.0, 2.0, 16)
