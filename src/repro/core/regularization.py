"""Regularization functionals for the velocity field.

The paper's formulation (Eq. 2a) penalizes ``beta/2 ||grad v||^2`` — an
H1-seminorm — and the spectral discretization "enables flexibility in the
choice of regularization operators" (Sec. I); the abstract explicitly
mentions biharmonic operators (the H2 choice used for the incompressible /
volume-preserving runs in the companion papers).  We therefore provide a
small hierarchy of Sobolev-seminorm regularization operators:

=========  ===========================  =========================
name       energy                       first variation (operator)
=========  ===========================  =========================
``"h1"``   ``beta/2 ||grad v||^2``      ``-beta lap v``
``"h2"``   ``beta/2 ||lap v||^2``       ``beta lap^2 v``  (biharmonic)
``"h3"``   ``beta/2 ||grad lap v||^2``  ``-beta lap^3 v``
=========  ===========================  =========================

All are diagonal in Fourier space with symbol ``beta * |k|^(2p)``, which is
what makes the preconditioner ("the inverse of the regularization operator,
applied at the cost of a spectral diagonal scaling") essentially free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators
from repro.spectral.symbols import get_symbols
from repro.utils.validation import check_positive, check_velocity_shape


@dataclass
class _SobolevSeminormRegularization:
    """Common implementation of the ``beta/2 <A v, v>`` regularization.

    ``A`` is the Fourier multiplier ``|k|^(2 * order)``; ``order = 1`` gives
    the H1-seminorm (negative Laplacian), ``order = 2`` the H2-seminorm
    (biharmonic), etc.

    Parameters
    ----------
    operators:
        Spectral operators bound to the computational grid.
    beta:
        Regularization weight ``beta > 0``.
    """

    operators: SpectralOperators
    beta: float
    order: int = 1
    name: str = "h1"

    def __post_init__(self) -> None:
        self.beta = check_positive(self.beta, "beta")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid:
        return self.operators.grid

    @cached_property
    def symbol(self) -> np.ndarray:
        """Spectral symbol of the (unweighted) operator ``A = (-lap)^order``.

        Shared across instances through the per-grid symbol store, so the
        ``beta``-continuation (which rebuilds the regularization per level)
        never recomputes the array.
        """
        return get_symbols(self.grid).sobolev(self.order)

    @cached_property
    def inverse_symbol(self) -> np.ndarray:
        """Pseudo-inverse symbol ``A^+`` (zero on the constant mode)."""
        return get_symbols(self.grid).inverse_sobolev(self.order)

    # ------------------------------------------------------------------ #
    def with_beta(self, beta: float) -> "_SobolevSeminormRegularization":
        """A copy of this regularization with a different weight.

        Used by the ``beta``-continuation scheme (Sec. III-A).
        """
        return type(self)(self.operators, beta, order=self.order, name=self.name)

    def energy(self, velocity: np.ndarray) -> float:
        """Regularization energy ``beta/2 <A v, v>`` (a scalar >= 0)."""
        velocity = check_velocity_shape(velocity, self.grid.shape)
        return self.energy_of_spectrum(self.operators.fft.forward_vector(velocity))

    def energy_of_spectrum(self, spectrum: np.ndarray) -> float:
        """The energy of the velocity with half-spectra *spectrum*, by Parseval."""
        return 0.5 * self.beta * self.operators.fft.inner(self.symbol * spectrum, spectrum)

    def apply_operator(self, velocity: np.ndarray) -> np.ndarray:
        """Unweighted operator ``A v`` applied component-wise."""
        return self.operators.apply_vector_symbol(velocity, self.symbol)

    def add_first_variation(self, spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out += beta A v`` on half-spectra, ``v`` given by *spectrum*.

        ``beta A`` is the first variation of the energy and — the energy
        being quadratic — its Hessian; one symbol multiply either way.
        """
        out += (self.beta * self.symbol) * spectrum
        return out


class H1Regularization(_SobolevSeminormRegularization):
    """H1-seminorm ``beta/2 ||grad v||^2`` (Eq. 2a of the paper)."""

    def __init__(self, operators: SpectralOperators, beta: float, order: int = 1, name: str = "h1") -> None:
        super().__init__(operators, beta, order=1, name="h1")


class H2Regularization(_SobolevSeminormRegularization):
    """H2-seminorm ``beta/2 ||lap v||^2`` (biharmonic first variation)."""

    def __init__(self, operators: SpectralOperators, beta: float, order: int = 2, name: str = "h2") -> None:
        super().__init__(operators, beta, order=2, name="h2")


class H3Regularization(_SobolevSeminormRegularization):
    """H3-seminorm ``beta/2 ||grad lap v||^2`` (triharmonic first variation)."""

    def __init__(self, operators: SpectralOperators, beta: float, order: int = 3, name: str = "h3") -> None:
        super().__init__(operators, beta, order=3, name="h3")


_REGISTRY = {
    "h1": H1Regularization,
    "h2": H2Regularization,
    "h3": H3Regularization,
}

#: Regularization names :func:`make_regularization` accepts.
REGULARIZATIONS = tuple(_REGISTRY)


def make_regularization(
    name: str,
    operators: SpectralOperators,
    beta: float,
) -> _SobolevSeminormRegularization:
    """Factory for regularization operators by name (``"h1"``, ``"h2"``, ``"h3"``)."""
    try:
        cls = _REGISTRY[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown regularization {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from exc
    return cls(operators, beta)
