"""Coarse-to-fine (grid continuation) registration.

The paper lists grid continuation / multilevel schemes among the techniques
that address the missing ``beta``-robust preconditioner ("There are several
techniques for doing so, e.g., grid continuation and multilevel
preconditioning ... Here we focus on the single-level solver", Sec. I,
Limitations).  This module implements the straightforward variant as an
extension: the registration problem is solved on a hierarchy of spectrally
coarsened grids, and the velocity of each level warm-starts the next finer
level.  Because the spectral restriction/prolongation operators are exact
for resolved modes, the coarse solution is an excellent initial guess and
the expensive fine-level solve needs only a few Newton iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.optim.gauss_newton import GaussNewtonKrylov, OptimizationResult, SolverOptions
from repro.core.problem import RegistrationProblem
from repro.spectral.filters import prolong, restrict
from repro.spectral.grid import Grid
from repro.utils.logging import get_logger
from repro.utils.validation import check_positive_int

LOGGER = get_logger("core.optim.multilevel")


@dataclass
class MultilevelLevelRecord:
    """Outcome of one level of the coarse-to-fine hierarchy."""

    level: int
    grid_shape: Tuple[int, int, int]
    result: OptimizationResult
    elapsed_seconds: float


@dataclass
class MultilevelResult:
    """Outcome of a multilevel registration."""

    velocity: np.ndarray
    levels: List[MultilevelLevelRecord]
    elapsed_seconds: float

    @property
    def fine_result(self) -> OptimizationResult:
        return self.levels[-1].result

    @property
    def total_hessian_matvecs(self) -> int:
        return sum(record.result.total_hessian_matvecs for record in self.levels)


@dataclass
class MultilevelRegistration:
    """Grid-continuation driver around the Gauss-Newton-Krylov solver.

    Parameters
    ----------
    grid:
        Fine-level grid of the input images.
    reference, template:
        Images on the fine grid (already pre-processed).
    num_levels:
        Number of levels; level ``k`` uses the grid coarsened by ``2**k``
        (coarsest level first).
    beta, regularization, incompressible, num_time_steps, gauss_newton:
        Problem parameters, identical on every level.
    options:
        Solver options; the coarse levels reuse them with the same iteration
        caps (coarse iterations are cheap).
    interpolation:
        Semi-Lagrangian interpolation kernel used on every level; each
        level plans its own gather stencils on its own grid.
    """

    grid: Grid
    reference: np.ndarray
    template: np.ndarray
    num_levels: int = 2
    beta: float = 1e-2
    regularization: str = "h1"
    incompressible: bool = False
    num_time_steps: int = 4
    gauss_newton: bool = True
    options: SolverOptions = field(default_factory=SolverOptions)
    interpolation: str = "cubic_bspline"

    def __post_init__(self) -> None:
        check_positive_int(self.num_levels, "num_levels")
        self.reference = np.asarray(self.reference, dtype=self.grid.dtype)
        self.template = np.asarray(self.template, dtype=self.grid.dtype)
        for name, image in (("reference", self.reference), ("template", self.template)):
            if image.shape != self.grid.shape:
                raise ValueError(f"{name} has shape {image.shape}, expected {self.grid.shape}")
        # every level must keep at least 4 points per dimension
        max_levels = 1
        while max_levels < self.num_levels and all(
            n // 2 ** max_levels >= 4 for n in self.grid.shape
        ):
            max_levels += 1
        self.num_levels = min(self.num_levels, max_levels)

    # ------------------------------------------------------------------ #
    def level_grid(self, level: int) -> Grid:
        """Grid of hierarchy level *level* (0 = coarsest)."""
        coarsening = 2 ** (self.num_levels - 1 - level)
        return self.grid.coarsen(coarsening) if coarsening > 1 else self.grid

    def _problem_on(self, grid: Grid) -> RegistrationProblem:
        if grid.shape == self.grid.shape:
            reference, template = self.reference, self.template
        else:
            reference = restrict(self.reference, self.grid, grid)
            template = restrict(self.template, self.grid, grid)
        return RegistrationProblem(
            grid=grid,
            reference=reference,
            template=template,
            beta=self.beta,
            regularization=self.regularization,
            incompressible=self.incompressible,
            num_time_steps=self.num_time_steps,
            gauss_newton=self.gauss_newton,
            interpolation=self.interpolation,
        )

    @staticmethod
    def _prolong_velocity(velocity: np.ndarray, coarse: Grid, fine: Grid) -> np.ndarray:
        return np.stack(
            [prolong(velocity[axis], coarse, fine) for axis in range(3)], axis=0
        ).astype(fine.dtype)

    # ------------------------------------------------------------------ #
    def run(self, initial_velocity: Optional[np.ndarray] = None) -> MultilevelResult:
        """Solve coarse-to-fine and return the fine-level velocity.

        Each level solves its own problem, which plans every velocity once
        (the accepted line-search trial hands its plan to ``linearize``)
        and releases its per-velocity data when the level is done.
        """
        start = time.perf_counter()
        records: List[MultilevelLevelRecord] = []
        velocity = initial_velocity
        previous_grid: Optional[Grid] = None

        for level in range(self.num_levels):
            grid = self.level_grid(level)
            problem = self._problem_on(grid)
            if velocity is not None and previous_grid is not None and previous_grid.shape != grid.shape:
                velocity = self._prolong_velocity(velocity, previous_grid, grid)
            level_start = time.perf_counter()
            result = GaussNewtonKrylov(problem, self.options).solve(velocity)
            problem.release()
            elapsed = time.perf_counter() - level_start
            LOGGER.info(
                "level %d (%s): %d Newton iterations, %d mat-vecs, J=%.3e",
                level,
                grid.shape,
                result.num_iterations,
                result.total_hessian_matvecs,
                result.final_objective,
            )
            records.append(
                MultilevelLevelRecord(
                    level=level, grid_shape=grid.shape, result=result, elapsed_seconds=elapsed
                )
            )
            velocity = result.velocity
            previous_grid = grid

        return MultilevelResult(
            velocity=velocity,
            levels=records,
            elapsed_seconds=time.perf_counter() - start,
        )
