"""Field-transport engine benchmark: batched distributed exchange.

Written to ``benchmarks/results/transport_batching.{txt,json}`` alongside
the other machine-readable results: **per-field vs batched distributed
ghost exchange** — interpolating a ``B``-field stack through one
`ScatterInterpolationPlan`: the per-field path pays a full ghost-exchange
round (4 neighbour exchanges) and a return ``alltoallv`` per field, the
batched ``interpolate_many`` pays them once for the whole stack.  The
ledger deltas (messages = the latency term of the machine model) are the
deterministic result; wall time on the simulated communicator is reported
for context.

Run with a plain pytest invocation (``pytest benchmarks/bench_transport.py``)
or the bench-smoke CI job; the structural wins are asserted
deterministically (ledger counts, bitwise identity) so no wall-clock gate
can flake.
"""

import os
import time

import numpy as np

from repro.parallel.comm import SimulatedCommunicator
from repro.parallel.pencil import PencilDecomposition
from repro.parallel.scatter import ScatterInterpolationPlan
from repro.spectral.grid import Grid
from repro.transport.semi_lagrangian import compute_departure_points

#: Grid edge of the distributed batching scenario (p = 4 simulated ranks).
DISTRIBUTED_N = int(os.environ.get("REPRO_BENCH_TRANSPORT_N", "32"))

#: Fields per batch (state + adjoint + two incremental fields, say).
BATCH = 4


def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm caches / pools outside the timed region
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_transport_batching(record_text, record_json):
    rng = np.random.default_rng(0)

    n = DISTRIBUTED_N
    grid = Grid((n, n, n))
    deco = PencilDecomposition(grid.shape, 2, 2)
    velocity = 0.5 * np.stack(
        [np.sin(grid.coordinates()[d] + d) for d in range(3)], axis=0
    )
    departure = compute_departure_points(grid, velocity, dt=0.25)
    points = [
        departure[(slice(None), *deco.local_slices(rank))].reshape(3, -1)
        for rank in range(deco.num_tasks)
    ]
    fields = np.stack([rng.standard_normal(grid.shape) for _ in range(BATCH)])
    per_field_blocks = [deco.scatter(field) for field in fields]
    stacks = [
        np.stack([blocks[rank] for blocks in per_field_blocks], axis=0)
        for rank in range(deco.num_tasks)
    ]

    comm = SimulatedCommunicator(deco.num_tasks)
    plan = ScatterInterpolationPlan(grid, deco, comm, points)

    comm.ledger.reset()
    per_field_time = _best_of(
        lambda: [plan.interpolate(blocks) for blocks in per_field_blocks]
    )
    per_field_values = [plan.interpolate(blocks) for blocks in per_field_blocks]
    # 4 timed sweeps + 1 value sweep = 5 x BATCH interpolate calls
    per_field_ledger = {
        category: {
            "messages": entry["messages"] // (4 + 1),
            "bytes": entry["bytes"] // (4 + 1),
            "calls": entry["calls"] // (4 + 1),
        }
        for category, entry in comm.ledger.summary().items()
    }

    comm.ledger.reset()
    batched_time = _best_of(lambda: plan.interpolate_many(stacks))
    batched_values = plan.interpolate_many(stacks)
    batched_ledger = {
        category: {
            "messages": entry["messages"] // (4 + 1),
            "bytes": entry["bytes"] // (4 + 1),
            "calls": entry["calls"] // (4 + 1),
        }
        for category, entry in comm.ledger.summary().items()
    }

    for rank in range(deco.num_tasks):
        for b in range(BATCH):
            np.testing.assert_array_equal(
                batched_values[rank][b], per_field_values[b][rank]
            )

    ghost_calls_saved = (
        per_field_ledger["ghost_exchange"]["calls"]
        - batched_ledger["ghost_exchange"]["calls"]
    )
    assert batched_ledger["ghost_exchange"]["calls"] == 4  # one round per batch
    assert per_field_ledger["ghost_exchange"]["calls"] == 4 * BATCH
    assert batched_ledger["interp_return"]["calls"] == 1
    assert batched_ledger["ghost_exchange"]["bytes"] == per_field_ledger[
        "ghost_exchange"
    ]["bytes"]

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    rows = [
        "field-transport engine: batched distributed exchange",
        "",
        f"distributed interpolation of a {BATCH}-field stack at {n}^3, 2x2 ranks",
        f"{'path':<12} {'ghost calls':>12} {'ghost msgs':>11} {'return calls':>13} "
        f"{'bytes':>12} {'time [s]':>10}",
        "-" * 76,
        f"{'per-field':<12} {per_field_ledger['ghost_exchange']['calls']:>12} "
        f"{per_field_ledger['ghost_exchange']['messages']:>11} "
        f"{per_field_ledger['interp_return']['calls']:>13} "
        f"{per_field_ledger['ghost_exchange']['bytes']:>12} {per_field_time:>10.4f}",
        f"{'batched':<12} {batched_ledger['ghost_exchange']['calls']:>12} "
        f"{batched_ledger['ghost_exchange']['messages']:>11} "
        f"{batched_ledger['interp_return']['calls']:>13} "
        f"{batched_ledger['ghost_exchange']['bytes']:>12} {batched_time:>10.4f}",
        f"-> {ghost_calls_saved} ghost-exchange rounds saved per {BATCH}-field batch "
        f"(latency term /{BATCH}); payload bytes unchanged; bitwise identical",
    ]
    record_text("transport_batching", "\n".join(rows))
    record_json(
        "transport_batching",
        {
            "benchmark": "field-transport engine: batched ghost exchange",
            "distributed": {
                "grid": [n, n, n],
                "tasks": deco.num_tasks,
                "batch": BATCH,
                "per_field": {
                    "ledger": per_field_ledger,
                    "seconds": per_field_time,
                },
                "batched": {
                    "ledger": batched_ledger,
                    "seconds": batched_time,
                },
                "ghost_rounds_saved_per_batch": ghost_calls_saved // 4,
                "bitwise_identical": True,
            },
        },
    )
