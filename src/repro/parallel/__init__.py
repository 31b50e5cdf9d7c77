"""Distributed-memory substrate (simulated MPI) and performance model.

The paper's parallelization (Sec. III-C) rests on four ingredients, all of
which are implemented here *for real* — the algorithms run on explicitly
partitioned per-rank data with explicit message exchange — but inside a
single process, because neither MPI nor a multi-node machine is available in
this environment (see README.md, "Substitutions"):

* **pencil decomposition** of the regular grid across a ``p1 x p2`` process
  grid (:mod:`repro.parallel.pencil`),
* **distributed 3D FFT** (AccFFT-style: local 1-D FFTs interleaved with
  all-to-all transposes within rows/columns of the process grid,
  :mod:`repro.parallel.distributed_fft`) and distributed spectral operators
  built on it (:mod:`repro.parallel.operators`),
* **ghost-layer exchange** and the **scatter (owner/worker) plan** for
  semi-Lagrangian interpolation at off-grid points
  (:mod:`repro.parallel.ghost`, :mod:`repro.parallel.scatter`),
* a **communication ledger** recording every message and byte moved
  (:mod:`repro.parallel.comm`), which feeds the **analytic machine model**
  (:mod:`repro.parallel.performance`) used to regenerate the paper's
  scaling tables for the Maverick and Stampede node counts.
"""

from repro.parallel.comm import CommunicationLedger, SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.distributed_fft import DistributedFFT
from repro.parallel.scatter import ScatterInterpolationPlan
from repro.parallel.operators import DistributedSpectralOperators
from repro.parallel.transport import DistributedSemiLagrangian, DistributedTransportSolver
from repro.parallel.machines import MachineSpec, MAVERICK, STAMPEDE, get_machine
from repro.parallel.performance import (
    KernelCostModel,
    RegistrationCostModel,
    SolverCostBreakdown,
)

__all__ = [
    "CommunicationLedger",
    "SimulatedCommunicator",
    "PencilDecomposition",
    "DistributedFFT",
    "ScatterInterpolationPlan",
    "DistributedSpectralOperators",
    "DistributedSemiLagrangian",
    "DistributedTransportSolver",
    "MachineSpec",
    "MAVERICK",
    "STAMPEDE",
    "get_machine",
    "KernelCostModel",
    "RegistrationCostModel",
    "SolverCostBreakdown",
]
