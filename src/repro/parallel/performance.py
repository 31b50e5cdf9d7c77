"""Analytic performance model for the distributed registration solver.

The paper analyses the cost of its solver in Sec. III-C4:

.. code-block:: text

   T_flop ~ nt ( 8 * 7.5 (N^3/p) log N  +  4 * 600 N^3/p )
   T_mpi  ~ 8 nt ( 3 t_s sqrt(p) + t_w 3 N^3 / p )  +  4 nt ( t_s + t_w N^2 / p )

per Hessian mat-vec: ``8 nt`` 3D FFTs and ``4 nt`` interpolation sweeps.
(The model keeps the paper's ``4 nt``, whose tables it regenerates; the
implementation here performs ``2 nt`` sweeps per mat-vec.)  This module
turns those expressions into wall-clock estimates for a given
:class:`~repro.parallel.machines.MachineSpec`, grid size, task count and
iteration counts, producing the same five columns the paper's tables report
(time to solution, FFT communication/execution, interpolation
communication/execution).

Because a laptop cannot time 1024-task runs, the absolute constants
(sustained kernel efficiencies and effective all-to-all bandwidth) are
**calibrated once against run #3 of Table I** (synthetic problem, 128^3,
16 tasks on Maverick) and then used unchanged for every other configuration;
the reproduction claims only the *shape* of the scaling behaviour (who
dominates where, how efficiency degrades), not the absolute seconds.  See
README.md, "Substitutions".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.parallel.machines import MachineSpec
from repro.utils.validation import check_positive_int, check_shape_3d

#: Floating point work per interpolated point (paper: "roughly 10 x 64").
INTERP_FLOPS_PER_POINT = 640
#: Memory traffic per interpolated point: 64 stencil values of 8 bytes.
INTERP_BYTES_PER_POINT = 64 * 8
#: FFT work constant of the paper's model (7.5 N^3 log N per 3D transform).
FFT_FLOPS_CONSTANT = 7.5
#: Fraction of the pure-kernel time spent in everything else (vector ops,
#: spectral diagonal scalings, optimizer overhead); fitted to Table I run #3.
OTHER_FRACTION = 0.30
#: Fraction of the raw network bandwidth sustained by the p-way transpose /
#: all-to-all exchanges (contention, many small messages).
ALLTOALL_EFFICIENCY = 0.10
#: Fraction of the semi-Lagrangian points whose values cross task boundaries
#: during the scatter phase (the paper's synthetic velocity has CFL > 1, so
#: most points leave their cell).
SCATTER_FRACTION = 1.0


@dataclass(frozen=True)
class SolverCostBreakdown:
    """The five columns of the paper's tables (in seconds), plus bookkeeping."""

    time_to_solution: float
    fft_communication: float
    fft_execution: float
    interp_communication: float
    interp_execution: float
    other: float
    num_tasks: int
    num_nodes: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "time_to_solution": self.time_to_solution,
            "fft_communication": self.fft_communication,
            "fft_execution": self.fft_execution,
            "interp_communication": self.interp_communication,
            "interp_execution": self.interp_execution,
            "other": self.other,
            "num_tasks": self.num_tasks,
            "num_nodes": self.num_nodes,
        }

    @property
    def kernel_sum(self) -> float:
        return (
            self.fft_communication
            + self.fft_execution
            + self.interp_communication
            + self.interp_execution
        )


@dataclass
class KernelCostModel:
    """Per-kernel cost estimates for one task configuration.

    Parameters
    ----------
    grid_shape:
        Global grid size ``(N1, N2, N3)``.
    num_tasks:
        Number of MPI tasks ``p``.
    machine:
        Machine model providing rates and network parameters.
    """

    grid_shape: Tuple[int, int, int]
    num_tasks: int
    machine: MachineSpec

    def __post_init__(self) -> None:
        check_positive_int(self.num_tasks, "num_tasks")
        self.grid_shape = check_shape_3d(self.grid_shape, "grid_shape")

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        n1, n2, n3 = self.grid_shape
        return n1 * n2 * n3

    @property
    def points_per_task(self) -> float:
        return self.num_points / self.num_tasks

    @property
    def effective_alltoall_bandwidth(self) -> float:
        """Sustained per-task bandwidth of the transpose/scatter exchanges."""
        return ALLTOALL_EFFICIENCY / self.machine.inverse_bandwidth

    # ------------------------------------------------------------------ #
    # single-kernel costs
    # ------------------------------------------------------------------ #
    def fft_execution_time(self) -> float:
        """Wall-clock seconds of one 3D FFT (local 1-D FFT work only)."""
        log_n = np.log2(max(self.num_points ** (1.0 / 3.0), 2.0))
        flops = FFT_FLOPS_CONSTANT * self.points_per_task * log_n
        return flops / (self.machine.fft_efficiency * self.machine.flops_per_task)

    def fft_communication_time(self) -> float:
        """Wall-clock seconds of the two transposes of one 3D FFT.

        Paper model: ``3 t_s sqrt(p) + t_w 3 N^3 / p`` (two all-to-alls
        within groups of ``sqrt(p)`` tasks plus a local reshuffle).
        """
        if self.num_tasks == 1:
            return 0.0
        sqrt_p = np.sqrt(self.num_tasks)
        latency = 3.0 * self.machine.latency * sqrt_p
        volume_bytes = 3.0 * self.points_per_task * 8.0
        return latency + volume_bytes / self.effective_alltoall_bandwidth

    def interpolation_execution_time(self, points: float | None = None) -> float:
        """Wall-clock seconds of one tricubic interpolation sweep.

        The kernel is memory bound (computation-to-traffic ratio O(1), see
        Sec. III-C2), so the estimate is the max of the flop and the memory
        stream time.
        """
        points = self.points_per_task if points is None else points
        flop_time = (
            INTERP_FLOPS_PER_POINT
            * points
            / (self.machine.interp_efficiency * self.machine.flops_per_task)
        )
        memory_time = INTERP_BYTES_PER_POINT * points / self.machine.memory_bandwidth_per_task
        return max(flop_time, memory_time)

    def interpolation_communication_time(self) -> float:
        """Wall-clock seconds of the scatter + ghost exchange of one sweep."""
        if self.num_tasks == 1:
            return 0.0
        ghost_bytes = 8.0 * 4.0 * 2.0 * self.points_per_task ** (2.0 / 3.0)
        # scatter: 3 coordinates out + 1 value back per communicated point
        scatter_bytes = 32.0 * SCATTER_FRACTION * self.points_per_task
        latency = 8.0 * self.machine.latency
        return latency + (ghost_bytes + scatter_bytes) / self.effective_alltoall_bandwidth

    # ------------------------------------------------------------------ #
    # per-matvec aggregates (paper Sec. III-C4)
    # ------------------------------------------------------------------ #
    def matvec_cost(self, num_time_steps: int) -> Dict[str, float]:
        """Cost of one Hessian mat-vec: ``8 nt`` FFTs and ``4 nt`` sweeps."""
        check_positive_int(num_time_steps, "num_time_steps")
        nt = num_time_steps
        return {
            "fft_execution": 8 * nt * self.fft_execution_time(),
            "fft_communication": 8 * nt * self.fft_communication_time(),
            "interp_execution": 4 * nt * self.interpolation_execution_time(),
            "interp_communication": 4 * nt * self.interpolation_communication_time(),
        }

    def memory_per_task_bytes(self, num_time_steps: int) -> float:
        """Paper's storage estimate: ``(2 nt + 5) N^3 / p`` values."""
        return 8.0 * (2 * num_time_steps + 5) * self.points_per_task


@dataclass
class RegistrationCostModel:
    """Whole-solve cost estimate (one row of a scaling table).

    Parameters
    ----------
    grid_shape:
        Global grid size.
    num_tasks:
        Number of MPI tasks.
    machine:
        Machine model.
    num_time_steps:
        Semi-Lagrangian time steps ``nt`` (the paper uses 4).
    num_newton_iterations:
        Outer Gauss-Newton iterations (the scalability runs use 2).
    num_hessian_matvecs:
        Total Hessian mat-vecs (PCG iterations summed over the outer
        iterations).
    gradient_cost_factor:
        Cost of one gradient + line-search evaluation in units of a Hessian
        mat-vec (the paper notes the gradient is cheaper).
    """

    grid_shape: Tuple[int, int, int]
    num_tasks: int
    machine: MachineSpec
    num_time_steps: int = 4
    num_newton_iterations: int = 2
    num_hessian_matvecs: int = 2
    gradient_cost_factor: float = 1.5
    kernels: KernelCostModel = field(init=False)

    def __post_init__(self) -> None:
        self.kernels = KernelCostModel(self.grid_shape, self.num_tasks, self.machine)

    @property
    def matvec_equivalents(self) -> float:
        """Total work expressed in Hessian-mat-vec equivalents."""
        return self.num_hessian_matvecs + self.gradient_cost_factor * self.num_newton_iterations

    def breakdown(self) -> SolverCostBreakdown:
        """Predicted table row for this configuration."""
        per_matvec = self.kernels.matvec_cost(self.num_time_steps)
        scale = self.matvec_equivalents
        fft_comm = scale * per_matvec["fft_communication"]
        fft_exec = scale * per_matvec["fft_execution"]
        interp_comm = scale * per_matvec["interp_communication"]
        interp_exec = scale * per_matvec["interp_execution"]
        kernel_sum = fft_comm + fft_exec + interp_comm + interp_exec
        other = OTHER_FRACTION * kernel_sum
        return SolverCostBreakdown(
            time_to_solution=kernel_sum + other,
            fft_communication=fft_comm,
            fft_execution=fft_exec,
            interp_communication=interp_comm,
            interp_execution=interp_exec,
            other=other,
            num_tasks=self.num_tasks,
            num_nodes=self.machine.nodes_for_tasks(self.num_tasks),
        )


def strong_scaling_efficiency(breakdowns: Sequence[SolverCostBreakdown]) -> list[float]:
    """Parallel efficiency relative to the first entry of a strong-scaling sweep."""
    if not breakdowns:
        return []
    base = breakdowns[0]
    out = []
    for b in breakdowns:
        ideal = base.time_to_solution * base.num_tasks / b.num_tasks
        out.append(ideal / b.time_to_solution if b.time_to_solution > 0 else float("nan"))
    return out


def weak_scaling_efficiency(breakdowns: Sequence[SolverCostBreakdown]) -> list[float]:
    """Efficiency of a weak-scaling sweep (constant work per task)."""
    if not breakdowns:
        return []
    base = breakdowns[0].time_to_solution
    return [base / b.time_to_solution if b.time_to_solution > 0 else float("nan") for b in breakdowns]
