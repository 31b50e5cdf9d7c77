"""Tests of the out-of-core field pipeline (:mod:`repro.transport.sources`).

Three layers of guarantees:

* a shared **conformance suite** every registered source kind must pass —
  arbitrary plane subsets equal ``load_all()`` slices (Hypothesis), and
  gathers through any source are bitwise identical to the resident path on
  every backend;
* the **wrapper semantics**: the pool-budgeted tile cache (warm re-gathers
  of the same file hit memory, ``field-tile`` tag accounting, budget-0 and
  eviction behavior) and the overlapped prefetcher (schedule consumption,
  out-of-order degradation, issued-ahead instrumentation);
* the **mode machinery**: ``REPRO_FIELD_SOURCE`` / ``--field-source``
  resolution and the forced-memmap path staying bitwise identical.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.plan_pool import configure_plan_pool, get_plan_pool
from repro.spectral.backends import BackendUnavailableError
from repro.transport.interpolation import PeriodicInterpolator
from repro.transport.kernels import (
    SUPPORTED_METHODS,
    ArrayFieldSource,
    FieldSource,
    build_stencil_plan,
    chunk_plane_schedule,
    execute_stencil_plan,
    field_source_log,
)
from repro.transport.sources import (
    FIELD_SOURCE_ENV_VAR,
    FIELD_SOURCE_MODES,
    Hdf5FieldSource,
    MemmapFieldSource,
    PrefetchingFieldSource,
    SpooledMemmapFieldSource,
    TileCachingFieldSource,
    default_field_source,
    plan_scoped_source,
    set_default_field_source,
)

from tests.fixtures import interp_backend_params, make_grid, random_points

BACKENDS = interp_backend_params()

SHAPE = (12, 13, 14)
STACK = np.random.default_rng(7).standard_normal((2, *SHAPE))

SOURCE_NAMES = ("array", "memmap_npy", "memmap_npz", "spooled", "prefetching", "caching")


@pytest.fixture(scope="module")
def source_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sources")
    npy = tmp / "stack.npy"
    npz = tmp / "stack.npz"
    np.save(npy, STACK)
    np.savez(npz, fields=STACK)
    return {"npy": npy, "npz": npz}


@pytest.fixture(scope="module")
def make_source(source_files):
    """Factory: a fresh source of the given kind over the module stack."""

    def build(name: str) -> FieldSource:
        if name == "array":
            return ArrayFieldSource(STACK)
        if name == "memmap_npy":
            return MemmapFieldSource.from_npy(source_files["npy"])
        if name == "memmap_npz":
            return MemmapFieldSource.from_npz(source_files["npz"], "fields")
        if name == "spooled":
            return SpooledMemmapFieldSource(STACK)
        if name == "prefetching":
            # empty schedule: every request degrades to a direct load,
            # which is exactly the conformance contract to verify
            return PrefetchingFieldSource(ArrayFieldSource(STACK), schedule=())
        if name == "caching":
            return TileCachingFieldSource(ArrayFieldSource(STACK))
        raise AssertionError(name)

    return build


@pytest.fixture(scope="module")
def grid():
    return make_grid(SHAPE)


@pytest.fixture(scope="module")
def points():
    return random_points(900, seed=6)


# --------------------------------------------------------------------------- #
# conformance suite: every source kind
# --------------------------------------------------------------------------- #
class TestSourceConformance:
    @pytest.mark.parametrize("name", SOURCE_NAMES)
    def test_shape_and_batch(self, name, make_source):
        source = make_source(name)
        assert tuple(source.shape) == SHAPE
        assert source.num_fields == 2
        assert isinstance(source, FieldSource)

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    @given(
        planes=st.sets(st.integers(min_value=0, max_value=SHAPE[0] - 1), min_size=1)
    )
    @settings(max_examples=20, deadline=None)
    def test_any_plane_subset_equals_load_all_slice(self, name, make_source, planes):
        source = make_source(name)
        planes = np.array(sorted(planes))
        tile = source.load_planes(planes)
        assert tile.dtype == np.float64
        assert tile.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(tile, source.load_all()[:, planes])

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    def test_load_all_matches_resident_stack(self, name, make_source):
        np.testing.assert_array_equal(
            make_source(name).load_all(), np.float64(STACK)
        )

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    @pytest.mark.parametrize("method", SUPPORTED_METHODS)
    def test_gather_matches_resident(self, name, method, make_source, grid, points):
        coords = PeriodicInterpolator(grid, method).to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, method)
        resident = execute_stencil_plan(
            np.ascontiguousarray(STACK.reshape(2, -1)), plan
        )
        tiled = execute_stencil_plan(make_source(name), plan)
        np.testing.assert_array_equal(tiled, resident)

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_gathers_match_resident(
        self, name, backend, make_source, grid, points
    ):
        interp = PeriodicInterpolator(grid, "catmull_rom", backend=backend)
        plan = interp.plan(points)
        resident = interp.interpolate_many_planned(STACK, plan)
        tiled = interp.interpolate_many_planned(make_source(name), plan)
        np.testing.assert_array_equal(tiled, resident)

    @pytest.mark.parametrize("name", SOURCE_NAMES)
    def test_reset_stats_zeroes_counters(self, name, make_source):
        source = make_source(name)
        source.load_planes(np.array([0, 2]))
        source.reset_stats()
        assert all(value == 0 for value in source.stats().values())


# --------------------------------------------------------------------------- #
# fingerprints (tile-cache identity)
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_memory_sources_are_distinct(self):
        a, b = ArrayFieldSource(STACK), ArrayFieldSource(STACK)
        assert a.fingerprint != b.fingerprint

    def test_file_identity_is_stable_across_reopens(self, source_files):
        a = MemmapFieldSource.from_npy(source_files["npy"])
        b = MemmapFieldSource.from_npy(source_files["npy"])
        assert a.fingerprint == b.fingerprint
        assert a.has_durable_fingerprint

    def test_file_identity_changes_with_content(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, STACK)
        before = MemmapFieldSource.from_npy(path).fingerprint
        np.save(path, STACK[:1])  # different size
        after = MemmapFieldSource.from_npy(path).fingerprint
        assert before != after

    def test_npz_members_are_distinct(self, tmp_path):
        path = tmp_path / "two.npz"
        np.savez(path, a=STACK, b=STACK)
        fa = MemmapFieldSource.from_npz(path, "a").fingerprint
        fb = MemmapFieldSource.from_npz(path, "b").fingerprint
        assert fa != fb

    def test_spooled_sources_are_ephemeral(self):
        source = SpooledMemmapFieldSource(STACK)
        assert source.out_of_core
        assert not source.has_durable_fingerprint


# --------------------------------------------------------------------------- #
# memmap leaf source
# --------------------------------------------------------------------------- #
class TestMemmapFieldSource:
    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError, match="stacked"):
            MemmapFieldSource(np.zeros((4, 4)))

    def test_object_dtype_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            MemmapFieldSource(np.empty((1, 2, 2, 2), dtype=object))

    def test_complex_dtype_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            MemmapFieldSource(np.zeros((2, 2, 2), dtype=np.complex128))

    def test_compressed_npz_member_rejected_with_pointer(self, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(path, fields=STACK)
        with pytest.raises(ValueError, match="compress=False"):
            MemmapFieldSource.from_npz(path, "fields")

    def test_missing_member_lists_available(self, tmp_path):
        path = tmp_path / "stack.npz"
        np.savez(path, fields=STACK)
        with pytest.raises(KeyError, match="fields"):
            MemmapFieldSource.from_npz(path, "nope")

    def test_tile_loads_stay_tile_sized(self, tmp_path):
        """Loading a 2-plane tile of a tall stack reads tile bytes, not the file."""
        tall = np.random.default_rng(1).standard_normal((1, 64, 8, 8))
        path = tmp_path / "tall.npy"
        np.save(path, tall)
        source = MemmapFieldSource.from_npy(path)
        tile = source.load_planes(np.array([3, 40]))
        assert source.bytes_loaded == tile.nbytes == 2 * 8 * 8 * 8
        assert source.peak_tile_bytes < tall.nbytes / 10

    def test_single_volume_promoted(self, tmp_path):
        path = tmp_path / "vol.npy"
        np.save(path, STACK[0])
        source = MemmapFieldSource.from_npy(path)
        assert source.num_fields == 1
        assert tuple(source.shape) == SHAPE


class TestHdf5FieldSource:
    def test_gated_cleanly_without_h5py(self):
        if importlib.util.find_spec("h5py") is not None:
            pytest.skip("h5py installed; the gate never fires")
        with pytest.raises(BackendUnavailableError, match="h5py"):
            Hdf5FieldSource("anything.h5")

    def test_roundtrip_with_h5py(self, tmp_path):
        h5py = pytest.importorskip("h5py")
        path = tmp_path / "fields.h5"
        with h5py.File(path, "w") as handle:
            handle.create_dataset("fields", data=STACK)
        with Hdf5FieldSource(path) as source:
            assert tuple(source.shape) == SHAPE
            assert source.num_fields == 2
            tile = source.load_planes(np.array([1, 5]))
            np.testing.assert_array_equal(tile, STACK[:, [1, 5]])
            assert source.has_durable_fingerprint


# --------------------------------------------------------------------------- #
# tile cache
# --------------------------------------------------------------------------- #
class TestTileCache:
    def test_repeated_tiles_hit(self):
        inner = ArrayFieldSource(STACK)
        cache = TileCachingFieldSource(inner)
        planes = np.array([0, 1, 2])
        first = cache.load_planes(planes)
        second = cache.load_planes(planes)
        np.testing.assert_array_equal(first, second)
        assert inner.loads == 1
        assert cache.tile_cache_misses == 1
        assert cache.tile_cache_hits == 1

    def test_warm_regather_of_same_file_hits_zero_disk_loads(
        self, source_files, grid, points
    ):
        """Re-opening the same volume (line search / Hessian matvec pattern)
        finds the previous gather's tiles warm in the pool."""
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        cold_source = MemmapFieldSource.from_npy(source_files["npy"])
        cold = execute_stencil_plan(cold_source, plan)
        assert cold_source.loads > 0

        warm_source = MemmapFieldSource.from_npy(source_files["npy"])
        warm = execute_stencil_plan(warm_source, plan)
        np.testing.assert_array_equal(warm, cold)
        assert warm_source.loads == 0  # cache hits only — no disk tiles

    def test_tiles_are_accounted_under_the_field_tile_tag(self, grid, points):
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        TileCachingFieldSource(ArrayFieldSource(STACK)).load_planes(np.array([0, 1]))
        tags = get_plan_pool().stats_by_tag()
        assert "field-tile" in tags
        assert tags["field-tile"].entries == 1
        assert tags["field-tile"].current_bytes == 2 * SHAPE[1] * SHAPE[2] * 2 * 8

    def test_zero_budget_disables_caching(self):
        budget = get_plan_pool().max_bytes
        try:
            configure_plan_pool(0)
            inner = ArrayFieldSource(STACK)
            cache = TileCachingFieldSource(inner)
            cache.load_planes(np.array([0]))
            cache.load_planes(np.array([0]))
            assert inner.loads == 2
            assert cache.tile_cache_hits == 0
        finally:
            configure_plan_pool(budget)

    def test_tile_bytes_compete_with_plans_under_one_budget(self):
        """A budget that fits only one tile evicts LRU across the shared pool."""
        tile_bytes = 2 * 1 * SHAPE[1] * SHAPE[2] * 8
        budget = get_plan_pool().max_bytes
        try:
            configure_plan_pool(tile_bytes)
            inner = ArrayFieldSource(STACK)
            cache = TileCachingFieldSource(inner)
            cache.load_planes(np.array([0]))
            cache.load_planes(np.array([1]))  # evicts the first tile
            cache.load_planes(np.array([0]))  # miss again
            assert inner.loads == 3
            assert get_plan_pool().stats.evictions >= 2
        finally:
            configure_plan_pool(budget)

    def test_log_aggregates_cache_traffic(self):
        before = field_source_log().snapshot()
        cache = TileCachingFieldSource(ArrayFieldSource(STACK))
        cache.load_planes(np.array([0]))
        cache.load_planes(np.array([0]))
        delta = field_source_log().snapshot() - before
        assert delta.tile_cache_misses == 1
        assert delta.tile_cache_hits == 1


# --------------------------------------------------------------------------- #
# overlapped prefetch
# --------------------------------------------------------------------------- #
class TestPrefetch:
    def _plan(self, grid, points, chunk=128):
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        return plan, chunk_plane_schedule(grid.shape, plan, chunk)

    def test_schedule_matches_executor_requests(self, grid, points):
        """chunk_plane_schedule predicts exactly the tiles the executor loads."""
        plan, schedule = self._plan(grid, points)
        inner = ArrayFieldSource(STACK)
        execute_stencil_plan(inner, plan, chunk=128, workers=1)
        assert inner.loads == len(schedule)
        assert sum(len(planes) for _, planes in schedule) == inner.planes_loaded

    def test_in_order_consumption_prefetches_every_next_chunk(self, grid, points):
        plan, schedule = self._plan(grid, points)
        assert len(schedule) > 2
        inner = ArrayFieldSource(STACK)
        prefetcher = PrefetchingFieldSource(inner, schedule=schedule)
        for (_, planes) in schedule:
            tile = prefetcher.load_planes(np.array(planes))
            np.testing.assert_array_equal(tile, np.float64(STACK[:, list(planes)]))
        n = len(schedule)
        # first request has nothing in flight; every later one was issued
        # ahead while the previous chunk was still being served
        assert prefetcher.prefetch_misses == 1
        assert prefetcher.prefetch_hits == n - 1
        assert prefetcher.prefetch_issued == n - 1
        assert prefetcher.issued_ahead == n - 1

    def test_out_of_order_requests_degrade_gracefully(self, grid, points):
        plan, schedule = self._plan(grid, points)
        inner = ArrayFieldSource(STACK)
        prefetcher = PrefetchingFieldSource(inner, schedule=schedule)
        for (_, planes) in reversed(schedule):
            tile = prefetcher.load_planes(np.array(planes))
            np.testing.assert_array_equal(tile, np.float64(STACK[:, list(planes)]))
        assert prefetcher.prefetch_hits + prefetcher.prefetch_misses == len(schedule)

    def test_unscheduled_request_is_a_direct_load(self):
        prefetcher = PrefetchingFieldSource(ArrayFieldSource(STACK), schedule=((0, 1),))
        tile = prefetcher.load_planes(np.array([5, 7]))
        np.testing.assert_array_equal(tile, np.float64(STACK[:, [5, 7]]))
        assert prefetcher.prefetch_misses == 1
        assert prefetcher.prefetch_issued == 0

    def test_repeated_plane_tuples_consume_distinct_entries(self):
        """Consecutive chunks in one plane band request identical tuples."""
        schedule = ((0, 1), (0, 1), (0, 1))
        prefetcher = PrefetchingFieldSource(ArrayFieldSource(STACK), schedule=schedule)
        for _ in schedule:
            prefetcher.load_planes(np.array([0, 1]))
        assert prefetcher.prefetch_misses == 1
        assert prefetcher.prefetch_hits == 2

    def test_needs_a_schedule_or_plan(self):
        with pytest.raises(ValueError, match="schedule"):
            PrefetchingFieldSource(ArrayFieldSource(STACK))

    def test_executor_prefetches_disk_sources_automatically(
        self, source_files, grid, points
    ):
        """End-to-end: a memmap source handed to the executor gathers with
        chunk k+1's load issued before chunk k completes (instrumented)."""
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        before = field_source_log().snapshot()
        source = MemmapFieldSource.from_npy(source_files["npy"])
        tiled = execute_stencil_plan(source, plan, chunk=128, workers=1)
        delta = field_source_log().snapshot() - before
        schedule = chunk_plane_schedule(grid.shape, plan, 128)
        num_chunks = len(plan.iter_chunks(128))
        distinct = len({planes for _, planes in schedule})
        assert num_chunks > 2
        # the cache wraps the prefetcher: repeated tuples are absorbed as
        # warm hits, every distinct tuple flows through the prefetcher, and
        # at least one background load was issued ahead of its consumer
        assert delta.tile_cache_misses == distinct
        assert delta.tile_cache_hits == num_chunks - distinct
        assert delta.prefetch_hits + delta.prefetch_misses == distinct
        assert delta.prefetch_issued >= 1
        resident = execute_stencil_plan(
            np.ascontiguousarray(STACK.reshape(2, -1)), plan, chunk=128
        )
        np.testing.assert_array_equal(tiled, resident)

    def test_plan_scoped_source_composition(self, source_files, grid, points):
        coords = PeriodicInterpolator(grid, "catmull_rom").to_index_coordinates(points)
        plan = build_stencil_plan(grid.shape, coords, "catmull_rom")
        resident = ArrayFieldSource(STACK)
        assert plan_scoped_source(resident, plan) is resident
        durable = plan_scoped_source(MemmapFieldSource.from_npy(source_files["npy"]), plan)
        assert isinstance(durable, TileCachingFieldSource)
        assert isinstance(durable.source, PrefetchingFieldSource)
        ephemeral = plan_scoped_source(SpooledMemmapFieldSource(STACK), plan)
        assert isinstance(ephemeral, PrefetchingFieldSource)


# --------------------------------------------------------------------------- #
# mode machinery (REPRO_FIELD_SOURCE / --field-source)
# --------------------------------------------------------------------------- #
class TestFieldSourceMode:
    def test_default_is_resident(self, monkeypatch):
        monkeypatch.delenv(FIELD_SOURCE_ENV_VAR, raising=False)
        assert default_field_source() == "resident"

    def test_env_selects_the_mode(self, monkeypatch):
        monkeypatch.setenv(FIELD_SOURCE_ENV_VAR, "memmap")
        assert default_field_source() == "memmap"

    def test_invalid_env_raises_with_choices(self, monkeypatch):
        monkeypatch.setenv(FIELD_SOURCE_ENV_VAR, "floppy")
        with pytest.raises(ValueError, match="resident"):
            default_field_source()

    def test_process_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(FIELD_SOURCE_ENV_VAR, "resident")
        set_default_field_source("memmap")
        assert default_field_source() == "memmap"
        set_default_field_source(None)
        assert default_field_source() == "resident"

    def test_setter_validates(self):
        with pytest.raises(ValueError, match="memmap"):
            set_default_field_source("floppy")

    def test_modes_tuple(self):
        assert FIELD_SOURCE_MODES == ("resident", "memmap")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_memmap_mode_is_bitwise_identical(self, backend, grid, points):
        """--field-source memmap: every frontend gather runs through a
        spooled memory-mapped source and produces the same bits."""
        interp = PeriodicInterpolator(grid, "catmull_rom", backend=backend)
        plan = interp.plan(points)
        resident = interp.interpolate_many_planned(STACK, plan)
        set_default_field_source("memmap")
        forced = interp.interpolate_many_planned(STACK, plan)
        np.testing.assert_array_equal(forced, resident)

    def test_forced_mode_counts_points_identically(self, grid, points):
        interp = PeriodicInterpolator(grid, "catmull_rom")
        plan = interp.plan(points)
        interp.interpolate_many_planned(STACK, plan)
        resident_count = interp.points_interpolated
        set_default_field_source("memmap")
        interp.interpolate_many_planned(STACK, plan)
        assert interp.points_interpolated == 2 * resident_count

    def test_forced_mode_records_source_traffic(self, grid, points):
        set_default_field_source("memmap")
        interp = PeriodicInterpolator(grid, "catmull_rom")
        before = field_source_log().snapshot()
        interp.interpolate_many(STACK, points)
        delta = field_source_log().snapshot() - before
        assert delta.loads > 0
        assert delta.bytes_loaded > 0
