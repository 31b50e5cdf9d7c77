"""Distributed-memory substrate (simulated MPI) and performance model.

What runs here is the distributed semi-Lagrangian transport of the paper's
Sec. III-C2, executed on explicitly partitioned per-rank data with explicit
message exchange, but inside a single process, because neither MPI nor a
multi-node machine is available in this environment (see README.md,
"Substitutions"):

* **pencil decomposition** of the regular grid across a ``p1 x p2`` process
  grid (:mod:`repro.parallel.pencil`): axes 0 and 1 are split, axis 2 is
  local,
* **ghost-layer exchange** and the **scatter (owner/worker) plan** for
  semi-Lagrangian interpolation at off-grid points
  (:mod:`repro.parallel.ghost`, :mod:`repro.parallel.scatter`), driven by
  the distributed transport solver (:mod:`repro.parallel.transport`),
* a **communication ledger** recording every message and byte those
  kernels move (:mod:`repro.parallel.comm`).

The paper's pencil-decomposed FFT is not simulated: the solver's spectral
operators are serial.  The scaling tables for the Maverick and Stampede node
counts come from the closed-form **analytic machine model**
(:mod:`repro.parallel.machines`, :mod:`repro.parallel.performance`), which
reads no ledger.
"""

from repro.parallel.comm import CommunicationLedger, SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.scatter import ScatterInterpolationPlan
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
    "ScatterInterpolationPlan",
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
