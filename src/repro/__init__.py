"""repro -- a reproduction of HyPar (Song et al., HPCA 2019).

HyPar decides, per weighted layer and per hierarchy level of an accelerator
array, whether DNN training should use data parallelism or model
parallelism, by minimising the total inter-accelerator communication with a
linear-time dynamic program.  This package provides:

* :mod:`repro.nn` -- layer/model descriptions and the ten evaluation networks;
* :mod:`repro.core` -- the communication model and the partition search
  (the paper's contribution), plus baselines and an exhaustive validator;
* :mod:`repro.accelerator` -- the HMC-based accelerator and energy models;
* :mod:`repro.interconnect` -- H-tree and torus topologies;
* :mod:`repro.sim` -- the event-driven training-step simulator;
* :mod:`repro.analysis` -- drivers that regenerate every figure of the
  paper's evaluation;
* :mod:`repro.cli` -- a command-line interface (``hypar ...``).

Quickstart
----------

>>> from repro import get_model, HierarchicalPartitioner
>>> model = get_model("AlexNet")
>>> result = HierarchicalPartitioner(num_levels=4).partition(model, batch_size=256)
>>> print(result.describe())  # doctest: +SKIP
"""

from repro.accelerator import ArrayConfig, EnergyModel
from repro.analysis import ExperimentRunner
from repro.core import (
    CommunicationModel,
    HierarchicalAssignment,
    HierarchicalPartitioner,
    LayerAssignment,
    Parallelism,
    ScalingMode,
    TwoWayPartitioner,
)
from repro.interconnect import HTreeTopology, TorusTopology, build_topology
from repro.nn import DNNModel, build_model, get_model
from repro.sim import SimulationResult, SimulationSpec, TrainingSimulator, simulate

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Parallelism",
    "LayerAssignment",
    "HierarchicalAssignment",
    "CommunicationModel",
    "TwoWayPartitioner",
    "HierarchicalPartitioner",
    "ScalingMode",
    "DNNModel",
    "build_model",
    "get_model",
    "ArrayConfig",
    "EnergyModel",
    "HTreeTopology",
    "TorusTopology",
    "build_topology",
    "TrainingSimulator",
    "SimulationSpec",
    "SimulationResult",
    "simulate",
    "ExperimentRunner",
]
