"""Cost of the contention-aware network engine (informational).

The discrete-event network simulator prices real link occupancy --
per-device PU resources, per-physical-link queueing, compute/comm overlap
-- which the closed-form analytic engine folds into one shared level
resource.  These benches record what that fidelity costs: the wall time of
one simulated training step under each engine and their ratio, plus the
full congestion-study grid (the artifact CI pins against its golden).

The engine trades simulation speed for routed-link fidelity by design,
but its per-task overhead is held: ``scripts/check_bench_regression.py``
keeps the recorded ``network_vs_analytic_slowdown`` under a 2.8x ceiling
(self-relative, both engines timed in the same process), next to the
generic mean-latency threshold.
"""

from __future__ import annotations

import time

from repro.accelerator.array import ArrayConfig
from repro.analysis.congestion_study import run_congestion_study
from repro.core.hierarchical import HierarchicalPartitioner
from repro.interconnect import HTreeTopology
from repro.nn.model_zoo import alexnet
from repro.sim.training import TrainingSimulator

from conftest import emit


def _paper_platform(sim_engine: str) -> TrainingSimulator:
    array = ArrayConfig()
    topology = HTreeTopology(array.num_accelerators, array.link_bandwidth_bytes)
    return TrainingSimulator(array, topology, sim_engine=sim_engine)


def test_network_step_alexnet(benchmark):
    """One AlexNet training step through the network engine (paper platform)."""
    model = alexnet()
    network = _paper_platform("network")
    analytic = _paper_platform("analytic")
    table = network.cost_table(model, 256)
    assignment = HierarchicalPartitioner(num_levels=4).partition(
        model, 256, table=table
    ).assignment

    report = benchmark(
        network.simulate, model, assignment, 256, "HyPar", cost_table=table
    )

    # Time the analytic engine on the same step in-process, so the JSON
    # carries the measured engine-overhead ratio rather than a number
    # transcribed from an old run.
    start = time.perf_counter()
    rounds = 10
    for _ in range(rounds):
        analytic_report = analytic.simulate(
            model, assignment, 256, "HyPar", cost_table=table
        )
    analytic_seconds = (time.perf_counter() - start) / rounds
    slowdown = benchmark.stats["mean"] / analytic_seconds if analytic_seconds else 0.0
    benchmark.extra_info["step_seconds"] = report.step_seconds
    benchmark.extra_info["analytic_step_seconds"] = analytic_report.step_seconds
    benchmark.extra_info["network_vs_analytic_slowdown"] = slowdown
    emit(
        "Network engine: one AlexNet step (16 accelerators, H tree)",
        f"simulated step: {report.step_seconds * 1e3:.3f} ms "
        f"(analytic {analytic_report.step_seconds * 1e3:.3f} ms)\n"
        f"engine wall-time overhead: {slowdown:.1f}x the analytic engine",
    )


def test_congestion_study_grid(benchmark):
    """The full golden-pinned congestion grid (both engines, 4 configs)."""
    study = benchmark(run_congestion_study)
    benchmark.extra_info["num_flips"] = study.num_flips
    benchmark.extra_info["num_configs"] = len(study.comparisons)
    assert study.num_flips >= 1
    emit("Congestion study grid", study.describe())
