"""Tests for repro.data: preprocessing, synthetic problems, brain phantom, I/O."""

import numpy as np
import pytest

from repro.data.brain import (
    BrainPhantomPair,
    brain_phantom,
    brain_registration_pair,
    nirep_like_shape,
    warped_self_pair,
)
from repro.data.io import load_problem, save_problem
from repro.data.preprocessing import normalize_intensity, smooth_image
from repro.data.synthetic import (
    sinusoidal_template,
    solenoidal_velocity,
    synthetic_registration_problem,
    synthetic_velocity,
)
from repro.spectral.grid import Grid
from repro.spectral.operators import SpectralOperators


class TestPreprocessing:
    def test_normalize_intensity_range(self, rng):
        image = 5.0 + 3.0 * rng.standard_normal((8, 8, 8))
        out = normalize_intensity(image)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_normalize_constant_image(self):
        out = normalize_intensity(np.full((4, 4, 4), 7.0))
        np.testing.assert_array_equal(out, 0.0)

    def test_smooth_image_reduces_variance(self, rng):
        grid = Grid((16, 16, 16))
        image = rng.standard_normal(grid.shape)
        smoothed = smooth_image(image, grid, sigma_cells=1.0)
        assert np.var(smoothed) < np.var(image)

    def test_smooth_zero_sigma_identity(self, rng):
        grid = Grid((8, 8, 8))
        image = rng.standard_normal(grid.shape)
        np.testing.assert_allclose(smooth_image(image, grid, 0.0), image)
        with pytest.raises(ValueError):
            smooth_image(image, grid, -1.0)


class TestSyntheticProblem:
    def test_template_matches_paper_formula(self):
        grid = Grid((16, 16, 16))
        template = sinusoidal_template(grid)
        x1, x2, x3 = grid.coordinates()
        expected = (np.sin(x1) ** 2 + np.sin(x2) ** 2 + np.sin(x3) ** 2) / 3.0
        np.testing.assert_allclose(template, expected, atol=1e-12)
        assert 0.0 <= template.min() and template.max() <= 1.0

    def test_velocity_matches_paper_formula(self):
        grid = Grid((8, 8, 8))
        v = synthetic_velocity(grid)
        x1, x2, x3 = grid.coordinates()
        np.testing.assert_allclose(v[0], np.cos(x1) * np.sin(x2), atol=1e-12)
        np.testing.assert_allclose(v[1], np.cos(x2) * np.sin(x1), atol=1e-12)
        np.testing.assert_allclose(v[2], np.cos(x1) * np.sin(x3), atol=1e-12)

    def test_solenoidal_velocity_is_divergence_free(self):
        grid = Grid((16, 16, 16))
        ops = SpectralOperators(grid)
        assert ops.is_divergence_free(solenoidal_velocity(grid), tol=1e-10)

    def test_problem_construction(self):
        problem = synthetic_registration_problem(12)
        assert problem.grid.shape == (12, 12, 12)
        assert problem.template.shape == (12, 12, 12)
        assert problem.initial_residual > 0.0
        assert problem.describe()["grid"] == (12, 12, 12)

    def test_incompressible_variant_uses_solenoidal_velocity(self):
        problem = synthetic_registration_problem(12, incompressible=True)
        ops = SpectralOperators(problem.grid)
        assert ops.is_divergence_free(problem.true_velocity, tol=1e-9)

    def test_amplitude_scales_mismatch(self):
        mild = synthetic_registration_problem(12, amplitude=0.2)
        strong = synthetic_registration_problem(12, amplitude=1.0)
        assert strong.initial_residual > mild.initial_residual

    def test_explicit_shape_and_grid(self):
        problem = synthetic_registration_problem((8, 10, 12))
        assert problem.grid.shape == (8, 10, 12)
        grid = Grid((8, 8, 8))
        assert synthetic_registration_problem(grid=grid).grid is grid


class TestBrainPhantom:
    def test_nirep_like_shape_aspect_ratio(self):
        assert nirep_like_shape(256) == (256, 300, 256)
        shape = nirep_like_shape(64)
        assert shape[1] > shape[0] == shape[2]
        with pytest.raises(ValueError):
            nirep_like_shape(4)

    def test_phantom_properties(self):
        grid = Grid((24, 28, 24))
        image = brain_phantom(grid, seed=1)
        assert image.shape == grid.shape
        assert image.min() == pytest.approx(0.0)
        assert image.max() == pytest.approx(1.0)
        # compact support: the boundary of the volume is (near) background
        assert image[0].max() < 0.2
        assert image[-1].max() < 0.2

    def test_phantom_is_deterministic(self):
        grid = Grid((16, 19, 16))
        a = brain_phantom(grid, seed=3, subject_variability=0.05)
        b = brain_phantom(grid, seed=3, subject_variability=0.05)
        np.testing.assert_array_equal(a, b)

    def test_different_subjects_differ(self):
        pair = brain_registration_pair(base_resolution=16, seed=11)
        assert isinstance(pair, BrainPhantomPair)
        assert pair.initial_residual > 0.0
        # but they still share gross anatomy (correlated images)
        corr = np.corrcoef(pair.reference.ravel(), pair.template.ravel())[0, 1]
        assert corr > 0.5

    def test_pair_masks(self):
        pair = brain_registration_pair(base_resolution=16, seed=5)
        mask_ref, mask_tmp = pair.masks()
        assert mask_ref.dtype == bool
        assert 0.05 < mask_ref.mean() < 0.9

    def test_isotropic_option_and_explicit_grid(self):
        pair = brain_registration_pair(base_resolution=16, isotropic=True)
        assert pair.grid.shape == (16, 16, 16)
        grid = Grid((12, 14, 12))
        pair2 = brain_registration_pair(grid=grid)
        assert pair2.grid is grid

    def test_warped_self_pair_has_known_structure(self):
        pair = warped_self_pair(base_resolution=16, seed=2, warp_amplitude=0.3)
        assert pair.initial_residual > 0.0
        assert pair.reference.shape == pair.template.shape


class TestIO:
    def test_save_and_load_round_trip(self, tmp_path, rng):
        reference = rng.standard_normal((6, 7, 8))
        template = rng.standard_normal((6, 7, 8))
        velocity = rng.standard_normal((3, 6, 7, 8))
        path = save_problem(
            tmp_path / "problem.npz",
            reference,
            template,
            velocity=velocity,
            metadata={"beta": 1e-2, "nt": 4},
        )
        data = load_problem(path)
        np.testing.assert_array_equal(data["reference"], reference)
        np.testing.assert_array_equal(data["template"], template)
        np.testing.assert_array_equal(data["velocity"], velocity)
        assert data["grid"].shape == (6, 7, 8)
        assert data["metadata"]["beta"] == pytest.approx(1e-2)

    def test_save_without_optional_fields(self, tmp_path, rng):
        image = rng.standard_normal((4, 4, 4))
        path = save_problem(tmp_path / "minimal.npz", image, image)
        data = load_problem(path)
        assert "velocity" not in data
        assert "metadata" not in data

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            save_problem(tmp_path / "bad.npz", np.zeros((4, 4, 4)), np.zeros((5, 4, 4)))
        with pytest.raises(ValueError):
            save_problem(
                tmp_path / "bad2.npz",
                np.zeros((4, 4, 4)),
                np.zeros((4, 4, 4)),
                velocity=np.zeros((2, 4, 4, 4)),
            )
        with pytest.raises(FileNotFoundError):
            load_problem(tmp_path / "missing.npz")
