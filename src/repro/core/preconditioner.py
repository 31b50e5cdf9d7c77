"""Spectral preconditioner for the reduced Hessian.

The paper preconditions the inner Krylov (PCG) solve with the inverse of the
regularization operator, "applied in nearly linear time using FFTs"
(Sec. III-A).  Because the reduced Hessian has the structure

    H = beta A  +  Q,

with ``A`` the (SPD on non-constant modes) regularization operator and ``Q``
the compact data-mismatch term, preconditioning with ``(beta A)^+`` clusters
the spectrum around ``1 + (beta A)^+ Q``: the number of PCG iterations is
then independent of the mesh size, but it degrades as ``beta`` is reduced —
exactly the behaviour the paper reports in Table V.

``M^{-1} = (beta A)^+``, with the identity on the (null-space) constant
mode, is diagonal in Fourier space and the Krylov solve iterates on
half-spectra (:mod:`repro.core.optim.pcg`), so applying it is one multiply
by its symbol — no transform.  The registration problem builds one per
solve (:meth:`~repro.core.problem.RegistrationProblem.preconditioner`), after
any ``beta`` change of a continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.regularization import _SobolevSeminormRegularization


@dataclass
class SpectralPreconditioner:
    """Fourier-diagonal preconditioner built from a regularization operator.

    Parameters
    ----------
    regularizer:
        The Sobolev-seminorm regularization of the problem; provides the
        spectral symbol ``beta * a(k)``.
    """

    regularizer: _SobolevSeminormRegularization

    def __post_init__(self) -> None:
        # the symbol of M^{-1}: pseudo-inverse with identity on the null
        # space; the unweighted pseudo-inverse comes pre-computed from the
        # per-grid symbol store via the regularizer
        self._symbol = self.regularizer.inverse_symbol / self.regularizer.beta
        self._symbol[self.regularizer.symbol == 0.0] = 1.0

    def __call__(self, spectrum: np.ndarray) -> np.ndarray:
        """Apply ``M^{-1}`` to the half-spectra of a (vector-field) residual."""
        return spectrum * self._symbol
