"""Event-driven simulation of DNN training steps on the accelerator array.

* :mod:`repro.sim.engine` -- a generic discrete-event scheduling engine
  (resources, dependent tasks, event queue).
* :mod:`repro.sim.api` -- the unified entry point: :func:`simulate` over a
  :class:`SimulationSpec`, with keyword-only engine selection.
* :mod:`repro.sim.backend` -- the engine names (``"analytic"`` /
  ``"network"``) and their validation.
* :mod:`repro.sim.training` -- the one walk of a training step's task
  graph (forward, error backward, gradient computation, weight update, and
  every tensor exchange dictated by the communication model), shared by
  both engines, plus the analytic engine's link model (one aggregate PU
  and one aggregate link per hierarchy level).
* :mod:`repro.sim.network` -- the network engine's link model: per-device
  PUs and routed flows on per-physical-link resources with real queueing.
* :mod:`repro.sim.metrics` -- the report records (time, energy, traffic).
* :mod:`repro.sim.trace` -- explicit point-to-point transfer lists derived
  from a partitioned network (for link-load studies and export).
"""

from repro.sim.api import SimulationResult, SimulationSpec, simulate
from repro.sim.backend import SIM_ENGINES, validate_sim_engine
from repro.sim.engine import (
    EventDrivenEngine,
    Resource,
    Schedule,
    ScheduledTask,
    SimulationError,
    Task,
)
from repro.sim.metrics import EnergyBreakdown, PhaseBreakdown, TrainingStepReport
from repro.sim.trace import CommunicationTrace, TraceBuilder, Transfer
from repro.sim.training import PHASES, TrainingSimulator

__all__ = [
    "TraceBuilder",
    "CommunicationTrace",
    "Transfer",
    "EventDrivenEngine",
    "Resource",
    "Task",
    "Schedule",
    "ScheduledTask",
    "SimulationError",
    "TrainingSimulator",
    "SimulationSpec",
    "SimulationResult",
    "simulate",
    "SIM_ENGINES",
    "validate_sim_engine",
    "PHASES",
    "TrainingStepReport",
    "PhaseBreakdown",
    "EnergyBreakdown",
]
