"""Semi-Lagrangian transport in (pseudo-)time.

The forward (state), backward (adjoint), incremental state and incremental
adjoint transport equations of the optimality system (Eqs. 2b, 3, 5a, 5c) are
all solved with the unconditionally stable semi-Lagrangian scheme of
Sec. III-B2: a second-order Runge-Kutta backward characteristic trace followed
by a Heun (explicit trapezoidal) update of the source term, with tricubic
interpolation at the off-grid departure points.

The gather kernels live in :mod:`repro.transport.kernels`; the
stencil of a fixed set of departure points is precomputed once per velocity
as a :class:`GatherPlan` and reused by every transported field.
"""

from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import GatherPlan
from repro.transport.semi_lagrangian import (
    SemiLagrangianStepper,
    compute_departure_points,
)
from repro.transport.solvers import TransportPlan, TransportSolver
from repro.transport.deformation import DeformationMap, deformation_gradient_determinant

__all__ = [
    "PeriodicInterpolator",
    "GatherPlan",
    "SemiLagrangianStepper",
    "compute_departure_points",
    "TransportPlan",
    "TransportSolver",
    "DeformationMap",
    "deformation_gradient_determinant",
]
