"""Core library: the paper's primary contribution.

This package implements the PDE-constrained optimal-control formulation of
large-deformation diffeomorphic registration (Sec. II-B) and the
preconditioned, inexact Gauss-Newton-Krylov solver used to minimize it
(Sec. III-A):

* :mod:`repro.core.regularization` — H1/H2/H3 Sobolev (semi-)norm
  regularization operators and their spectral inverses,
* :mod:`repro.core.problem` — the registration problem: objective, reduced
  gradient (Eq. 4), Gauss-Newton and full Newton Hessian mat-vecs (Eq. 5),
* :mod:`repro.core.preconditioner` — the spectral preconditioner (inverse of
  the regularization operator),
* :mod:`repro.core.optim` — PCG, Armijo line search, the inexact
  Gauss-Newton-Krylov driver (which sees the problem through the
  ``NewtonProblem`` protocol), the gradient-descent baseline and the
  ``beta``-continuation scheme,
* :mod:`repro.core.registration` — the high-level :func:`register` front end
  producing a :class:`RegistrationResult`.
"""

from repro.core.regularization import (
    H1Regularization,
    H2Regularization,
    H3Regularization,
    make_regularization,
)
from repro.core.problem import RegistrationProblem, OuterIterate
from repro.core.preconditioner import SpectralPreconditioner
from repro.core.registration import RegistrationResult, RegistrationSolver, register
from repro.core.metrics import relative_residual, residual_norm

__all__ = [
    "H1Regularization",
    "H2Regularization",
    "H3Regularization",
    "make_regularization",
    "RegistrationProblem",
    "OuterIterate",
    "SpectralPreconditioner",
    "RegistrationResult",
    "RegistrationSolver",
    "register",
    "relative_residual",
    "residual_norm",
]
