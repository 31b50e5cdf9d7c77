"""Machine models for the systems used in the paper's evaluation.

The paper runs on two TACC systems (Sec. IV-A2):

* **Maverick** — dual ten-core Intel Xeon E5-2680 v2 (Ivy Bridge) at
  2.8 GHz, 12.8 GB/core; the scalability runs use 16 tasks per node
  (Table I) or 2 tasks per node (Table III) and an FDR InfiniBand fabric.
* **Stampede** — dual eight-core Xeon E5-2680 v1 (Sandy Bridge), 32 GB per
  node, FDR InfiniBand; the large-scale runs use 2 tasks per node
  (Table II).

The :class:`MachineSpec` captures the handful of parameters the paper's own
complexity model needs (latency ``t_s``, reciprocal bandwidth ``t_w``,
sustained per-task flop rate, and memory bandwidth per task), plus empirical
efficiency factors for the two dominant kernels.  The absolute values are
order-of-magnitude estimates for 2013-era Xeon nodes with FDR InfiniBand —
the reproduction targets the *shape* of the scaling tables, not the absolute
seconds (see README.md, "Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MachineSpec:
    """Analytic machine description used by the performance model.

    Parameters
    ----------
    name:
        Human-readable system name.
    cores_per_node:
        Physical cores per node.
    tasks_per_node:
        MPI tasks per node used in the corresponding experiment.
    flops_per_task:
        Sustained floating-point rate of one task [flop/s] on the
        memory-bound kernels of this application (well below peak).
    memory_bandwidth_per_task:
        Sustained memory bandwidth per task [bytes/s]; the tricubic
        interpolation is memory bound (the paper estimates a computation to
        memory-traffic ratio of O(1)).
    latency:
        Effective per-message overhead ``t_s`` [s] of the collective
        exchanges (hardware latency plus the software/synchronization
        overhead of an all-to-all across nodes; this is why it is much
        larger than the ~1 microsecond wire latency).
    inverse_bandwidth:
        Reciprocal network bandwidth ``t_w`` [s per byte] per task.
    fft_efficiency:
        Fraction of ``flops_per_task`` sustained by the 1-D FFT kernels.
    interp_efficiency:
        Fraction of ``flops_per_task`` sustained by the interpolation kernel
        (lower: irregular gather-dominated access pattern).
    """

    name: str
    cores_per_node: int
    tasks_per_node: int
    flops_per_task: float
    memory_bandwidth_per_task: float
    latency: float
    inverse_bandwidth: float
    fft_efficiency: float = 0.5
    interp_efficiency: float = 0.12

    def __post_init__(self) -> None:
        check_positive(self.flops_per_task, "flops_per_task")
        check_positive(self.memory_bandwidth_per_task, "memory_bandwidth_per_task")
        check_positive(self.latency, "latency")
        check_positive(self.inverse_bandwidth, "inverse_bandwidth")

    def nodes_for_tasks(self, num_tasks: int) -> int:
        """Number of nodes needed to host *num_tasks* tasks."""
        return max(1, -(-num_tasks // self.tasks_per_node))


#: TACC Maverick, 16 tasks/node configuration (Tables I and IV).
MAVERICK = MachineSpec(
    name="maverick",
    cores_per_node=20,
    tasks_per_node=16,
    flops_per_task=4.0e9,
    memory_bandwidth_per_task=4.0e9,
    latency=5.0e-5,
    inverse_bandwidth=1.0 / 3.0e9,
    fft_efficiency=0.20,
    interp_efficiency=0.25,
)

#: TACC Maverick, 2 tasks/node configuration (Table III, incompressible runs).
MAVERICK_2TPN = MachineSpec(
    name="maverick-2tpn",
    cores_per_node=20,
    tasks_per_node=2,
    flops_per_task=8.0e9,
    memory_bandwidth_per_task=2.0e10,
    latency=5.0e-5,
    inverse_bandwidth=1.0 / 5.0e9,
    fft_efficiency=0.20,
    interp_efficiency=0.25,
)

#: TACC Stampede, 2 tasks/node configuration (Table II).
STAMPEDE = MachineSpec(
    name="stampede",
    cores_per_node=16,
    tasks_per_node=2,
    flops_per_task=7.0e9,
    memory_bandwidth_per_task=1.8e10,
    latency=5.0e-5,
    inverse_bandwidth=1.0 / 5.0e9,
    fft_efficiency=0.20,
    interp_efficiency=0.25,
)

_MACHINES = {
    "maverick": MAVERICK,
    "maverick-2tpn": MAVERICK_2TPN,
    "stampede": STAMPEDE,
}


def get_machine(name: str) -> MachineSpec:
    """Look a machine model up by name."""
    try:
        return _MACHINES[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown machine {name!r}; expected one of {sorted(_MACHINES)}"
        ) from exc
