"""Distributed semi-Lagrangian transport.

Combines the pieces of Sec. III-C2 into the actual distributed transport
kernel of the solver: the departure points of the semi-Lagrangian scheme are
computed per rank, the velocity and the transported scalar are interpolated
at those off-grid points with the owner/worker scatter plan
(:class:`~repro.parallel.scatter.ScatterInterpolationPlan`), and the state
equation is advanced one step at a time — exactly the "interpolation
planner" + "transport" structure the paper describes.

The departure points are the paper's interpolated RK2 trace (Eq. 6); the
serial solver expands the flow spectrally instead
(:mod:`repro.transport.semi_lagrangian`), so the test-suite validates the
distributed result against a serial
:class:`~repro.transport.semi_lagrangian.SemiLagrangianStepper` handed the
same RK2 points and the same (Catmull-Rom) interpolation kernel — every
owner applies the serial gather operator, built on its ghosted block — to
machine precision (``1e-13``).  Only the pure
advection (state / adjoint for divergence-free velocities) is provided here;
it is the kernel whose communication pattern the performance model charges
for, and the source-term variants reduce to extra interpolations of grid
fields through the very same plan.

Both scatter plans of the RK2 trace (the first-stage ``X*`` plan and the
departure plan) are fetched through the shared plan pool: re-creating the
stepper — or a whole :class:`DistributedTransportSolver` run — for an
unchanged velocity performs **zero** ``alltoallv`` setup (no
``interp_scatter`` call on its communicator's ledger).

Every interpolation rides the batched distributed entry point
(:meth:`~repro.parallel.scatter.ScatterInterpolationPlan.interpolate_many`):
the three velocity components of the RK2 trace move through **one** ghost
exchange and **one** return ``alltoallv`` (instead of one round per
component), and the stepper's one step method,
:meth:`DistributedSemiLagrangian.step_many`, advances a whole stack of
transported fields per round the same way.  There is one distributed time
loop, :meth:`DistributedTransportSolver.solve_state_many`; a single
template is its ``B = 1`` stack.

The ghost layers are copied out of the neighbours' blocks, so every pencil
must be at least ``GHOST_WIDTH`` points wide; :class:`DistributedTransportSolver`
rejects a thinner decomposition when it is constructed
(:func:`check_ghost_width`), and the service runs the same check when a job
is submitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.scatter import GHOST_WIDTH, ScatterInterpolationPlan
from repro.runtime.cancellation import check_cancelled
from repro.spectral.grid import Grid
from repro.utils.validation import check_positive_int, check_velocity_shape


def check_ghost_width(decomposition: PencilDecomposition) -> PencilDecomposition:
    """Return *decomposition*, or reject it when a pencil is thinner than the halo.

    Each owner's tricubic stencil reads ``GHOST_WIDTH`` ghost planes that a
    neighbour copies out of its own block, so no local extent may be
    smaller than that.
    """
    deco = decomposition
    smallest = min(min(deco.local_shape(rank)) for rank in range(deco.num_tasks))
    if smallest < GHOST_WIDTH:
        raise ValueError(
            f"num_tasks={deco.num_tasks} splits the {deco.global_shape} grid over a "
            f"{deco.p1}x{deco.p2} process grid whose thinnest pencil is {smallest} "
            f"point(s) wide, below the ghost width {GHOST_WIDTH}; use fewer tasks"
        )
    return decomposition


@dataclass
class DistributedSemiLagrangian:
    """Distributed semi-Lagrangian stepper for a stationary velocity field.

    Parameters
    ----------
    grid:
        Global grid.
    decomposition:
        Pencil decomposition (axes 0 and 1 split).
    velocity:
        Stationary velocity as a *global* ``(3, N1, N2, N3)`` array (each
        rank only ever touches its own block plus what the scatter plan
        ships to it; the global array is accepted for convenience of the
        driver).
    dt:
        Time-step size.
    comm:
        Simulated communicator (created when omitted).
    """

    grid: Grid
    decomposition: PencilDecomposition
    velocity: np.ndarray
    dt: float
    comm: Optional[SimulatedCommunicator] = None
    star_plan: ScatterInterpolationPlan = field(init=False, repr=False)
    departure_plan: ScatterInterpolationPlan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.velocity = check_velocity_shape(self.velocity, self.grid.shape)
        if self.dt < 0:
            raise ValueError(f"dt must be non-negative, got {self.dt}")
        if self.comm is None:
            self.comm = SimulatedCommunicator(self.decomposition.num_tasks)
        deco = self.decomposition

        # per-rank arrival coordinates and local velocity blocks
        coords = self.grid.coordinate_stack()
        self._local_coords = [
            coords[(slice(None), *deco.local_slices(rank))] for rank in range(deco.num_tasks)
        ]
        self._local_velocity = [
            self.velocity[(slice(None), *deco.local_slices(rank))]
            for rank in range(deco.num_tasks)
        ]

        # first stage: X* = x - dt v(x) (purely local)
        x_star = [
            (self._local_coords[rank] - self.dt * self._local_velocity[rank]).reshape(3, -1)
            for rank in range(deco.num_tasks)
        ]
        self.star_plan = ScatterInterpolationPlan(self.grid, deco, self.comm, x_star)
        # all three velocity components ride one batched round trip (one
        # ghost exchange + one return alltoallv instead of one round each)
        v_at_star = self.star_plan.interpolate_many(
            [self._local_velocity[rank] for rank in range(deco.num_tasks)]
        )

        # second stage: X = x - dt/2 (v(x) + v(X*))
        departure_points: List[np.ndarray] = []
        for rank in range(deco.num_tasks):
            shape = self._local_coords[rank].shape
            v_star = v_at_star[rank].reshape(shape)
            departure = self._local_coords[rank] - 0.5 * self.dt * (
                self._local_velocity[rank] + v_star
            )
            departure_points.append(departure.reshape(3, -1))
        self.departure_plan = ScatterInterpolationPlan(
            self.grid, deco, self.comm, departure_points
        )

    # ------------------------------------------------------------------ #
    def step_many(self, block_stacks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Advance a stack of distributed fields by one step, batched.

        Every rank contributes a ``(B, n1, n2, n3)`` stack; all ``B`` fields
        share one ghost exchange and one value-return ``alltoallv`` (the
        batched :meth:`~repro.parallel.scatter.ScatterInterpolationPlan.
        interpolate_many` round).  Per-field results are bitwise identical
        to ``B`` separate ``B = 1`` calls.
        """
        deco = self.decomposition
        values = self.departure_plan.interpolate_many(block_stacks)
        out = []
        for rank in range(deco.num_tasks):
            shape = deco.local_shape(rank)
            out.append(values[rank].reshape(values[rank].shape[0], *shape))
        return out

    def departure_points(self, rank: int) -> np.ndarray:
        """Departure coordinates of *rank*'s grid points, shape ``(3, M_r)``."""
        return np.asarray(self.departure_plan.departure_points[rank])


@dataclass
class DistributedTransportSolver:
    """Distributed solver for the (pure advection) state equation.

    This is the distributed counterpart of
    :meth:`repro.transport.solvers.TransportSolver.solve_state`, operating on
    per-rank blocks throughout and charging every exchange to the
    communicator's ledger.  A decomposition with a pencil thinner than the
    ghost width is rejected here (:func:`check_ghost_width`), before any
    work.
    """

    grid: Grid
    decomposition: PencilDecomposition
    num_time_steps: int = 4
    comm: Optional[SimulatedCommunicator] = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_time_steps, "num_time_steps")
        check_ghost_width(self.decomposition)
        if self.comm is None:
            self.comm = SimulatedCommunicator(self.decomposition.num_tasks)

    @property
    def dt(self) -> float:
        return 1.0 / self.num_time_steps

    def solve_state(
        self,
        velocity: np.ndarray,
        template: np.ndarray,
        cancel_token: Optional[object] = None,
    ) -> np.ndarray:
        """Transport *template* with *velocity* over ``t in [0, 1]``.

        Both arguments are global arrays; the computation runs on per-rank
        blocks and the gathered final state is returned (global, for easy
        comparison against the serial solver).  *cancel_token* (see
        :mod:`repro.runtime.cancellation`) is polled between time steps.
        The ``B = 1`` case of :meth:`solve_state_many`: same steps, same
        bits, same ledger.
        """
        template = np.asarray(template, dtype=self.grid.dtype)
        if template.shape != self.grid.shape:
            raise ValueError(
                f"template has shape {template.shape}, expected {self.grid.shape}"
            )
        return self.solve_state_many(velocity, template[None], cancel_token)[0]

    def solve_state_many(
        self,
        velocity: np.ndarray,
        templates: np.ndarray,
        cancel_token: Optional[object] = None,
    ) -> np.ndarray:
        """Transport a ``(B, N1, N2, N3)`` stack of templates together.

        All ``B`` state equations share one stepper (one plan setup) and —
        per time step — one batched ghost exchange and one value return,
        so the latency-bound communication is paid once per step instead of
        once per field per step.  Results are bitwise identical to ``B``
        separate :meth:`solve_state` calls with the same velocity.
        """
        templates = np.asarray(templates, dtype=self.grid.dtype)
        if templates.ndim != 4 or templates.shape[1:] != self.grid.shape:
            raise ValueError(
                f"templates must be stacked as (B, {self.grid.shape}), "
                f"got shape {templates.shape}"
            )
        deco = self.decomposition
        stepper = DistributedSemiLagrangian(
            self.grid, deco, velocity, self.dt, self.comm
        )
        per_field_blocks = [deco.scatter(field) for field in templates]
        stacks = [
            np.stack([blocks[rank] for blocks in per_field_blocks], axis=0)
            for rank in range(deco.num_tasks)
        ]
        for _ in range(self.num_time_steps):
            check_cancelled(cancel_token, "transport solve")
            stacks = stepper.step_many(stacks)
        return np.stack(
            [
                self.decomposition.gather([stack[b] for stack in stacks])
                for b in range(templates.shape[0])
            ],
            axis=0,
        )
