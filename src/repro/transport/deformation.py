"""Deformation map, deformation gradient, and diffeomorphism diagnostics.

Once the optimal velocity ``v`` is found, the deformation map ``y`` is
recovered from Eq. 1 of the paper::

    d y/dt + v . grad y = 0,       y(x, 0) = x,      y1 = y(., 1)

Writing ``y = x + u`` (displacement form, which keeps the transported
quantity periodic) gives ``d u/dt + v . grad u = -v`` with ``u(., 0) = 0``.
The displacement is transported with the same semi-Lagrangian scheme used
everywhere else.

The determinant of the deformation gradient ``det(grad y) = det(I + grad u)``
is the paper's diagnostic for diffeomorphy (Fig. 2 and Fig. 7): values in
``(0, 1)`` indicate local compression, ``1`` volume preservation, ``> 1``
expansion, and ``<= 0`` a non-diffeomorphic (folding or singular) map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.transport.solvers import TransportPlan, TransportSolver
from repro.utils.validation import check_velocity_shape


def deformation_gradient_determinant(
    displacement: np.ndarray,
    operators: SpectralOperators,
) -> np.ndarray:
    """Point-wise ``det(I + grad u)`` computed with spectral derivatives."""
    grid = operators.grid
    displacement = check_velocity_shape(displacement, grid.shape)
    jac = operators.jacobian(displacement)  # jac[i, j] = d u_i / d x_j
    # add the identity
    for i in range(3):
        jac[i, i] += 1.0
    a, b, c = jac[0]
    d, e, f = jac[1]
    g, h, i_ = jac[2]
    return a * (e * i_ - f * h) - b * (d * i_ - f * g) + c * (d * h - e * g)


@dataclass
class DeformationMap:
    """Deformation map ``y1`` generated by a stationary velocity field.

    Parameters
    ----------
    grid:
        Computational grid.
    velocity:
        Stationary velocity ``v`` of shape ``(3, N1, N2, N3)``.
    num_time_steps:
        Pseudo-time steps used for the transport of the displacement.
    transport:
        The transport solver that produced *velocity* (a registration
        passes its problem's).  The map then transports and warps through
        that solver — same time steps, interpolator and operators, which
        override the arguments above — so ``det(grad y)`` reuses the warm
        gather operator of the final velocity instead of standing up a
        second solver and interpolator.
    plan:
        The :class:`~repro.transport.solvers.TransportPlan` of *velocity*
        when the caller owns one (a registration's final iterate does);
        when omitted the velocity is planned again — the flow expansion and
        both departure sets, nothing is shared with earlier plans.  Dropped
        (``None``) once :meth:`displacement` is cached; :meth:`map`,
        :meth:`determinant` and :meth:`warp` read only the displacement.
    """

    grid: Grid
    velocity: np.ndarray
    num_time_steps: int = 4
    operators: Optional[SpectralOperators] = None
    transport: Optional[TransportSolver] = None
    plan: Optional[TransportPlan] = None

    def __post_init__(self) -> None:
        self.velocity = check_velocity_shape(self.velocity, self.grid.shape)
        if self.plan is not None and not np.array_equal(self.plan.velocity, self.velocity):
            raise ValueError("plan was built for a different velocity")
        if self.transport is not None:
            if self.transport.grid.shape != self.grid.shape:
                raise ValueError(
                    f"transport solver is bound to grid {self.transport.grid.shape}, "
                    f"expected {self.grid.shape}"
                )
            self.num_time_steps = self.transport.num_time_steps
            self.operators = self.transport.operators
        elif self.operators is None:
            self.operators = SpectralOperators(self.grid)
        self._solver = self.transport or TransportSolver(
            self.grid,
            num_time_steps=self.num_time_steps,
            operators=self.operators,
        )
        self._displacement: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # displacement / map
    # ------------------------------------------------------------------ #
    def displacement(self) -> np.ndarray:
        """Displacement ``u = y1 - x`` (computed lazily, then cached).

        The transport is the plan's last reader: once the displacement is
        cached, :attr:`plan` is ``None``.
        """
        if self._displacement is None:
            plan = self.plan or self._solver.plan(self.velocity)
            minus_v = -self.velocity
            # all three components (and their sources) move through one
            # batched gather per step over the cached departure plan
            self._displacement = self._solver._march(
                plan, self.grid.zeros_vector(), source=lambda level: minus_v, keep_history=False
            )
            self.plan = None
        return self._displacement

    def map(self) -> np.ndarray:
        """The deformation map ``y1(x) = x + u(x)`` (not wrapped periodically)."""
        return self.grid.coordinate_stack() + self.displacement()

    def determinant(self) -> np.ndarray:
        """Point-wise determinant of the deformation gradient ``det(grad y1)``."""
        return deformation_gradient_determinant(self.displacement(), self.operators)

    def is_diffeomorphic(self, tol: float = 0.0) -> bool:
        """True when ``det(grad y1) > tol`` everywhere."""
        return bool(np.all(self.determinant() > tol))

    # ------------------------------------------------------------------ #
    # warping images
    # ------------------------------------------------------------------ #
    def warp(self, image: np.ndarray) -> np.ndarray:
        """Deformed image ``rho_T(y1(x))`` (the registered template)."""
        image = np.asarray(image, dtype=self.grid.dtype)
        if image.shape != self.grid.shape:
            raise ValueError(f"image has shape {image.shape}, expected {self.grid.shape}")
        return self._solver.interpolator(image, self.map())
