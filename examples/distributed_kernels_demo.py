#!/usr/bin/env python
"""Demonstration of the distributed-memory kernels (Sec. III-C of the paper).

Runs the two dominant kernels of the solver on the simulated distributed
machine — the pencil-decomposed 3D FFT (AccFFT-style transposes) and the
semi-Lagrangian scatter interpolation (Algorithm 1) — on a small grid with
several process-grid configurations, verifies them against the serial
kernels, and prints the communication ledger (messages and bytes moved per
category), which is what the analytic performance model consumes.  Exits
non-zero when either kernel strays more than ``TOLERANCE`` from its serial
counterpart.

Run with::

    python examples/distributed_kernels_demo.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.reporting import format_rows
from repro.data.synthetic import sinusoidal_template, synthetic_velocity
from repro.parallel import (
    DistributedFFT,
    PencilDecomposition,
    ScatterInterpolationPlan,
    SimulatedCommunicator,
)
from repro.parallel.scatter import SCATTER_KERNEL
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import gather_cubic
from repro.transport.semi_lagrangian import compute_departure_points

#: Largest relative FFT / absolute interpolation error that counts as
#: machine precision on the unit-scale demo field.
TOLERANCE = 1e-12


def main() -> int:
    grid = Grid((32, 32, 32))
    field = sinusoidal_template(grid)
    velocity = synthetic_velocity(grid)
    departure = compute_departure_points(grid, velocity, dt=0.25)
    # the scatter's kernel, evaluated serially with periodic wrapping
    coordinates = PeriodicInterpolator(grid).to_index_coordinates(departure)
    serial_values = gather_cubic(field[None], coordinates, SCATTER_KERNEL)[0].reshape(grid.shape)
    serial_spectrum = np.fft.fftn(field)

    rows = []
    for p1, p2 in ((1, 2), (2, 2), (2, 4), (4, 4)):
        deco = PencilDecomposition(grid.shape, p1, p2)
        comm = SimulatedCommunicator(deco.num_tasks)

        # distributed FFT, verified against numpy
        dfft = DistributedFFT(deco, comm)
        spectrum = dfft.forward_global(field)
        fft_error = float(np.max(np.abs(spectrum - serial_spectrum)) / np.max(np.abs(serial_spectrum)))

        # distributed semi-Lagrangian interpolation, verified against the serial kernel
        local_points = [
            departure[(slice(None), *deco.local_slices(rank))].reshape(3, -1)
            for rank in range(deco.num_tasks)
        ]
        plan = ScatterInterpolationPlan(grid, deco, comm, local_points)
        stacks = [block[None] for block in deco.scatter(field)]
        values = [stack[0] for stack in plan.interpolate_many(stacks)]
        serial_blocks = [
            serial_values[deco.local_slices(rank)].reshape(-1) for rank in range(deco.num_tasks)
        ]
        interp_error = float(
            max(np.max(np.abs(v - s)) for v, s in zip(values, serial_blocks))
        )

        ledger = comm.ledger
        rows.append(
            {
                "tasks": deco.num_tasks,
                "process_grid": f"{p1}x{p2}",
                "fft_error": fft_error,
                "interp_error": interp_error,
                "fft_transpose_MB": ledger.bytes("fft_transpose") / 1e6,
                "ghost_MB": ledger.bytes("ghost_exchange") / 1e6,
                "scatter_MB": (ledger.bytes("interp_scatter") + ledger.bytes("interp_return")) / 1e6,
                "messages": ledger.messages(),
            }
        )

    print(format_rows(rows, title="Distributed kernels vs serial kernels (32^3 grid)"))
    print()
    worst = max(max(row["fft_error"], row["interp_error"]) for row in rows)
    if worst > TOLERANCE:
        print(f"FAILED: a distributed kernel is {worst:.3g} from the serial one "
              f"(tolerance {TOLERANCE:g})")
        return 1
    print("Both kernels reproduce the serial results to machine precision;")
    print("the ledger columns are the communication volumes the performance model uses.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
