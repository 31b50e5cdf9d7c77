"""Out-of-core field pipeline benchmark (memmap + prefetch + tile cache).

One deterministic scenario at clinical-ish resolution (96^3 by default): a
semi-Lagrangian-shaped gather (every grid point displaced by a bounded
perturbation) executed three ways —

* **resident** — the flattened stack in memory (the baseline numerics);
* **cold out-of-core** — a :class:`MemmapFieldSource` over an ``.npy`` on
  disk, auto-wrapped by the executor in the overlapped prefetcher and the
  pool-budgeted tile cache;
* **warm out-of-core** — a *fresh* source over the same file, whose tiles
  are already resident in the plan pool from the cold pass.

The asserted results are structural, never wall-clock (the CI smoke job
must not flake): bitwise identity with the resident gather, a peak tile
working set bounded by the plane-band estimate (< 20% of the field), zero
disk tile loads on the warm pass, and prefetch issues recorded ahead of
their consumers (instrumentation counters, not timing).  Wall times are
reported for context only.  Artifacts go to
``benchmarks/results/fieldsource.{txt,json}``.
"""

import math
import os
import tempfile
import time

import numpy as np

from repro.transport.kernels import (
    STENCIL_CHUNK,
    build_stencil_plan,
    chunk_plane_schedule,
    execute_stencil_plan,
    field_source_log,
)
from repro.transport.sources import MemmapFieldSource

#: Grid edge of the out-of-core gather scenario.
N = int(os.environ.get("REPRO_BENCH_FIELDSOURCE_N", "96"))

#: Maximum per-axis displacement (grid cells) of the synthetic departure
#: points; bounds the plane band each point chunk touches.
DISPLACEMENT = 1.5


def _departure_coords(shape, rng):
    """Every grid point displaced by a bounded perturbation (C order)."""
    identity = np.indices(shape, dtype=np.float64).reshape(3, -1)
    return identity + rng.uniform(-DISPLACEMENT, DISPLACEMENT, size=identity.shape)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_bench_fieldsource(record_text, record_json):
    shape = (N, N, N)
    rng = np.random.default_rng(20160613)
    field = rng.standard_normal(shape)
    coords = _departure_coords(shape, rng)
    plan = build_stencil_plan(shape, coords, "catmull_rom")
    schedule = chunk_plane_schedule(shape, plan)

    resident, resident_time = _timed(
        lambda: execute_stencil_plan(field.reshape(1, -1), plan)
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-fieldsource-") as tmp:
        path = os.path.join(tmp, "field.npy")
        np.save(path, field[None])

        log = field_source_log()
        before = log.snapshot()
        cold_source = MemmapFieldSource.from_npy(path)
        cold, cold_time = _timed(lambda: execute_stencil_plan(cold_source, plan))
        cold_stats = log.snapshot() - before

        before = log.snapshot()
        warm_source = MemmapFieldSource.from_npy(path)
        warm, warm_time = _timed(lambda: execute_stencil_plan(warm_source, plan))
        warm_stats = log.snapshot() - before

    # ------------------------------------------------------------------ #
    # structural pins (deterministic; the CI gate)
    # ------------------------------------------------------------------ #
    np.testing.assert_array_equal(cold, resident)
    np.testing.assert_array_equal(warm, resident)

    # plane-band bound: a chunk of STENCIL_CHUNK C-ordered points spans at
    # most ceil(chunk / plane_points) + 1 base planes, widened by the
    # bounded displacement and the 4-tap stencil halo
    plane_bytes = N * N * 8
    max_planes = (
        math.ceil(STENCIL_CHUNK / (N * N))
        + 1
        + 2 * math.ceil(DISPLACEMENT)
        + 4
    )
    tile_bound = max_planes * plane_bytes
    assert cold_source.peak_tile_bytes <= tile_bound
    assert tile_bound < 0.2 * field.nbytes

    # cold pass: every tile came off disk exactly once per distinct plane
    # tuple, and the loader ran ahead of its consumers (instrumented)
    distinct_tuples = len({planes for _, planes in schedule})
    assert cold_source.loads == distinct_tuples
    assert cold_stats.tile_cache_misses == distinct_tuples
    assert cold_stats.prefetch_issued >= 1

    # warm pass: a fresh source over the same bytes gathers entirely from
    # the pool-resident tiles — not a single disk tile load
    assert warm_source.loads == 0
    assert warm_stats.tile_cache_hits == len(schedule)
    assert warm_stats.tile_cache_misses == 0

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    lines = [
        f"out-of-core gather at {N}^3 ({plan.num_points} points, "
        f"{len(schedule)} chunks, {distinct_tuples} distinct plane tuples)",
        "",
        f"{'path':<22}{'wall [s]':>10}  {'disk tile loads':>16}  {'peak tile bytes':>16}",
        f"{'resident':<22}{resident_time:>10.3f}  {'-':>16}  {field.nbytes:>16}",
        f"{'memmap cold':<22}{cold_time:>10.3f}  {cold_source.loads:>16}  "
        f"{cold_source.peak_tile_bytes:>16}",
        f"{'memmap warm':<22}{warm_time:>10.3f}  {warm_source.loads:>16}  "
        f"{warm_source.peak_tile_bytes:>16}",
        "",
        f"plane-band bound: {tile_bound} bytes "
        f"({tile_bound / field.nbytes:.1%} of the field; pinned < 20%)",
        f"cold prefetch: {cold_stats.prefetch_issued} issued, "
        f"{cold_stats.prefetch_hits} consumed warm",
        f"warm tile cache: {warm_stats.tile_cache_hits} hits / "
        f"{warm_stats.tile_cache_misses} misses",
    ]
    record_text("fieldsource", "\n".join(lines))
    record_json(
        "fieldsource",
        {
            "n": N,
            "num_points": int(plan.num_points),
            "num_chunks": len(schedule),
            "distinct_plane_tuples": distinct_tuples,
            "field_bytes": int(field.nbytes),
            "tile_bound_bytes": int(tile_bound),
            "resident_seconds": resident_time,
            "cold": {
                "seconds": cold_time,
                "disk_tile_loads": int(cold_source.loads),
                "peak_tile_bytes": int(cold_source.peak_tile_bytes),
                **cold_stats.as_dict(),
            },
            "warm": {
                "seconds": warm_time,
                "disk_tile_loads": int(warm_source.loads),
                "peak_tile_bytes": int(warm_source.peak_tile_bytes),
                **warm_stats.as_dict(),
            },
        },
    )
