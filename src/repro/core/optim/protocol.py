"""What the Newton-Krylov driver needs of the problem it minimizes.

The paper's C++ code leaves the outer loop to PETSc/TAO, which sees the
problem only through objective, gradient and Hessian-vector callbacks
(Sec. III-A).  :class:`NewtonProblem` is that seam here: ``GaussNewtonKrylov``
and ``GradientDescent`` call nothing else, so
:class:`~repro.core.problem.RegistrationProblem` and a few lines of NumPy
around ``scipy.optimize.rosen`` (``tests/core/test_newton_protocol.py``) are
solved by the same code.  PCG iterates in ``krylov_space`` (half-spectra,
for the registration); points live in ``point_space``, whose ``inner``
gives the line search its slope; ``as_point`` maps a step from the one to
the other.
"""

from __future__ import annotations

from typing import Optional, Protocol

import numpy as np

from repro.core.optim.pcg import MatVec, VectorSpace


class Objective(Protocol):
    distance: float
    regularization: float

    @property
    def total(self) -> float: ...


class Iterate(Protocol):
    """One linearization: the point (``velocity``), ``J`` and the gradient,
    in the Krylov space (``gradient_spectrum``) and as a point."""

    velocity: np.ndarray
    objective: Objective
    gradient_spectrum: np.ndarray
    gradient_norm: float

    @property
    def gradient(self) -> np.ndarray: ...


class NewtonProblem(Protocol):
    krylov_space: VectorSpace
    point_space: VectorSpace
    #: the kept line-search trial (the accepted one once a search succeeds)
    trial_velocity: Optional[np.ndarray]

    def start(self, initial: Optional[np.ndarray]) -> np.ndarray:
        """The first point: the problem's own, or *initial* checked and admissible."""

    def linearize(self, point: np.ndarray) -> Iterate: ...

    def hessian_operator(self, iterate: Iterate) -> MatVec: ...

    def preconditioner(self) -> MatVec:
        """``M^{-1}`` on the Krylov space; built once per solve."""

    def as_point(self, step: np.ndarray) -> np.ndarray: ...

    def trial_objective(self, point: np.ndarray) -> float:
        """``J`` at a line-search trial, which the problem keeps."""

    def release_trial(self) -> None: ...
