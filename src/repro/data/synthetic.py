"""The paper's synthetic registration problem (Sec. IV-A1, Fig. 5).

The template image, the analytic velocity and the construction of the
reference image follow the paper verbatim:

* template:  ``rho_T(x) = (sin^2 x1 + sin^2 x2 + sin^2 x3) / 3``
* velocity:  ``v*(x)  = (cos x1 sin x2, cos x2 sin x1, cos x1 sin x3)``
* reference: ``rho_R`` is the solution of the state equation (2b) with the
  exact velocity ``v*`` — i.e. the template transported by ``v*``.

For the incompressible (volume-preserving) experiments the paper uses "a
similar but divergence free velocity field"; :func:`solenoidal_velocity`
provides one (an ABC-type field, exactly divergence free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.spectral.grid import Grid
from repro.transport.solvers import TransportSolver
from repro.utils.validation import check_positive_int


def sinusoidal_template(grid: Grid) -> np.ndarray:
    """Template ``rho_T(x) = (sin^2 x1 + sin^2 x2 + sin^2 x3)/3``."""
    x1, x2, x3 = grid.coordinates(sparse=True)
    return ((np.sin(x1) ** 2 + np.sin(x2) ** 2 + np.sin(x3) ** 2) / 3.0).astype(grid.dtype)


def synthetic_velocity(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """The paper's analytic velocity ``v*`` (generally not divergence free)."""
    x1, x2, x3 = grid.coordinates()
    v1 = np.cos(x1) * np.sin(x2)
    v2 = np.cos(x2) * np.sin(x1)
    v3 = np.cos(x1) * np.sin(x3)
    return amplitude * np.stack([v1, v2, v3], axis=0).astype(grid.dtype)


def solenoidal_velocity(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """A divergence-free analogue of ``v*`` for the incompressible runs.

    Each component is independent of its own coordinate
    (``v = (sin x2 sin x3, sin x1 sin x3, sin x1 sin x2)``), hence
    ``div v = 0`` exactly (and spectrally on the grid).
    """
    x1, x2, x3 = grid.coordinates()
    v1 = np.sin(x2) * np.sin(x3)
    v2 = np.sin(x1) * np.sin(x3)
    v3 = np.sin(x1) * np.sin(x2)
    return amplitude * np.stack([v1, v2, v3], axis=0).astype(grid.dtype)


@dataclass
class SyntheticProblem:
    """A synthetic registration problem with known generating velocity."""

    grid: Grid
    template: np.ndarray
    reference: np.ndarray
    true_velocity: np.ndarray
    num_time_steps: int
    incompressible: bool

    @property
    def initial_residual(self) -> float:
        """L2 mismatch between the unregistered images."""
        return self.grid.norm(self.reference - self.template)

    def describe(self) -> dict:
        return {
            "grid": self.grid.shape,
            "incompressible": self.incompressible,
            "num_time_steps": self.num_time_steps,
            "initial_residual": self.initial_residual,
        }


def synthetic_registration_problem(
    resolution: int | tuple[int, int, int] = 64,
    amplitude: float = 1.0,
    num_time_steps: int = 4,
    incompressible: bool = False,
    grid: Optional[Grid] = None,
) -> SyntheticProblem:
    """Build the synthetic problem of Fig. 5 at the requested resolution.

    Parameters
    ----------
    resolution:
        Grid points per dimension (scalar for the isotropic case the paper
        uses, or an explicit 3-tuple).
    amplitude:
        Scaling of the analytic velocity; 1 reproduces the paper's setup.
    num_time_steps:
        Time steps used when transporting the template to create the
        reference (paper default 4).
    incompressible:
        Use the divergence-free velocity (the setup of Table III).
    grid:
        Optional pre-built grid (overrides *resolution*).
    """
    if grid is None:
        if np.isscalar(resolution):
            check_positive_int(int(resolution), "resolution")
            shape = (int(resolution),) * 3
        else:
            shape = tuple(int(r) for r in resolution)
        grid = Grid(shape)
    template = sinusoidal_template(grid)
    velocity = (
        solenoidal_velocity(grid, amplitude)
        if incompressible
        else synthetic_velocity(grid, amplitude)
    )
    transport = TransportSolver(grid, num_time_steps=num_time_steps)
    plan = transport.plan(velocity)
    reference = transport.solve_state(plan, template)[-1]
    return SyntheticProblem(
        grid=grid,
        template=template,
        reference=reference,
        true_velocity=velocity,
        num_time_steps=num_time_steps,
        incompressible=incompressible,
    )


@dataclass
class SyntheticPopulation:
    """A synthetic atlas population: one atlas, many deformed subjects."""

    grid: Grid
    atlas: np.ndarray
    subjects: List[np.ndarray]
    amplitudes: List[float]
    num_time_steps: int

    @property
    def num_subjects(self) -> int:
        return len(self.subjects)


def synthetic_population(
    resolution: int | tuple[int, int, int] = 32,
    num_subjects: int = 4,
    amplitude: float = 1.0,
    spread: float = 0.5,
    num_time_steps: int = 4,
    incompressible: bool = False,
    grid: Optional[Grid] = None,
) -> SyntheticPopulation:
    """A deterministic population for the atlas (service) workload.

    Every subject is the sinusoidal template transported by the analytic
    velocity at a subject-specific amplitude, spaced evenly across
    ``amplitude * [1 - spread, 1 + spread]``; the atlas is the untransported
    template.  Registering each subject back to the atlas is therefore a
    genuine large-deformation problem with a known generating velocity per
    subject — and all subjects share the atlas's grid, so the service-side
    plan reuse across the population is exercised exactly as in a real
    population study.
    """
    check_positive_int(num_subjects, "num_subjects")
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must lie in [0, 1), got {spread}")
    if grid is None:
        if np.isscalar(resolution):
            check_positive_int(int(resolution), "resolution")
            shape = (int(resolution),) * 3
        else:
            shape = tuple(int(r) for r in resolution)
        grid = Grid(shape)
    atlas = sinusoidal_template(grid)
    if num_subjects == 1:
        amplitudes = [float(amplitude)]
    else:
        offsets = np.linspace(-spread, spread, num_subjects)
        amplitudes = [float(amplitude * (1.0 + offset)) for offset in offsets]
    transport = TransportSolver(grid, num_time_steps=num_time_steps)
    subjects = []
    for subject_amplitude in amplitudes:
        velocity = (
            solenoidal_velocity(grid, subject_amplitude)
            if incompressible
            else synthetic_velocity(grid, subject_amplitude)
        )
        plan = transport.plan(velocity)
        subjects.append(transport.solve_state(plan, atlas)[-1])
    return SyntheticPopulation(
        grid=grid,
        atlas=atlas,
        subjects=subjects,
        amplitudes=amplitudes,
        num_time_steps=num_time_steps,
    )
