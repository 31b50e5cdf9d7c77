"""Procedural multi-subject brain phantom (NIREP substitute).

The paper's real-world experiments register two T1-weighted MRI brain
volumes of *different individuals* from the NIREP repository (na01 and na02,
grid ``256 x 300 x 256``).  Those data are not available offline, so this
module synthesizes a pair of "subjects" that reproduces the properties that
matter for the solver:

* a compact head/brain geometry embedded in a zero background (the role
  the paper's zero padding plays for its MRI volumes; the sharp tissue
  edges exercise the spectral-smoothing pipeline),
* several tissue classes with distinct intensities (white matter, gray
  matter ribbon, CSF/ventricles, background),
* cortical-folding-like high-frequency structure,
* genuine *inter-subject* anatomical variability: the second subject is a
  smoothly warped and intensity-perturbed version of the base anatomy, with
  an unknown (non-affine) correspondence, which is exactly the situation of
  a multi-subject registration problem,
* optionally an anisotropic grid (the default mimics the NIREP aspect ratio
  ``256 : 300 : 256``).

The generator is deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.preprocessing import normalize_intensity
from repro.spectral.filters import gaussian_smooth
from repro.spectral.grid import Grid
from repro.transport.interpolation import PeriodicInterpolator

#: Aspect ratio of the NIREP na01/na02 volumes used in the paper.
NIREP_ASPECT = (256, 300, 256)


def nirep_like_shape(base_resolution: int = 64) -> Tuple[int, int, int]:
    """A grid shape with the NIREP aspect ratio scaled to *base_resolution*.

    ``base_resolution = 256`` reproduces the paper's ``256 x 300 x 256``.
    """
    if base_resolution < 8:
        raise ValueError(f"base_resolution must be >= 8, got {base_resolution}")
    scale = base_resolution / NIREP_ASPECT[0]
    return tuple(max(8, int(round(n * scale))) for n in NIREP_ASPECT)


def _smooth_random_field(grid: Grid, rng: np.random.Generator, correlation_cells: float) -> np.ndarray:
    """Zero-mean smooth random field with unit peak amplitude."""
    noise = rng.standard_normal(grid.shape)
    sigma = tuple(correlation_cells * h for h in grid.spacing)
    smooth = gaussian_smooth(noise, grid, sigma=sigma)
    smooth -= smooth.mean()
    peak = np.max(np.abs(smooth))
    if peak > 0:
        smooth /= peak
    return smooth.astype(grid.dtype)


def _normalized_coordinates(grid: Grid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordinates mapped to ``[-1, 1)`` per dimension (head-centered frame)."""
    coords = []
    for axis in range(3):
        x = grid.axis_coordinates(axis)
        coords.append(2.0 * x / grid.lengths[axis] - 1.0)
    return tuple(np.meshgrid(*coords, indexing="ij"))


def brain_phantom(
    grid: Grid,
    seed: int = 0,
    subject_variability: float = 0.0,
    folding_frequency: float = 9.0,
) -> np.ndarray:
    """Synthesize one brain-like 3D image on *grid*.

    Parameters
    ----------
    grid:
        Target grid (may be anisotropic).
    seed:
        Seed controlling the subject-independent random structures.
    subject_variability:
        Amplitude (in units of the head radius) of the smooth random warp
        and intensity perturbation that distinguishes one "subject" from the
        base anatomy.  0 yields the base anatomy itself.
    folding_frequency:
        Angular frequency of the cortical-folding-like texture.
    """
    rng = np.random.default_rng(seed)
    xi, yi, zi = _normalized_coordinates(grid)

    if subject_variability > 0.0:
        # smooth, subject-specific coordinate warp (anatomical variability)
        warp_scale = subject_variability
        xi = xi + warp_scale * _smooth_random_field(grid, rng, correlation_cells=6.0)
        yi = yi + warp_scale * _smooth_random_field(grid, rng, correlation_cells=6.0)
        zi = zi + warp_scale * _smooth_random_field(grid, rng, correlation_cells=6.0)
    else:
        # consume the same number of random draws so that the base anatomy is
        # reproducible regardless of the variability setting
        for _ in range(3):
            _smooth_random_field(grid, rng, correlation_cells=6.0)

    # head/brain ellipsoid occupying ~60% of the domain
    r2 = (xi / 0.62) ** 2 + (yi / 0.72) ** 2 + (zi / 0.62) ** 2
    brain = np.clip(1.0 - r2, 0.0, None)
    brain_mask = (r2 < 1.0).astype(grid.dtype)

    # white-matter core
    r2_core = (xi / 0.40) ** 2 + (yi / 0.48) ** 2 + (zi / 0.40) ** 2
    white = np.clip(1.0 - r2_core, 0.0, None)

    # ventricles: two small ellipsoids near the center, low intensity
    left = ((xi + 0.12) / 0.10) ** 2 + (yi / 0.22) ** 2 + (zi / 0.10) ** 2
    right = ((xi - 0.12) / 0.10) ** 2 + (yi / 0.22) ** 2 + (zi / 0.10) ** 2
    ventricles = ((left < 1.0) | (right < 1.0)).astype(grid.dtype)

    # cortical-folding-like texture confined to the gray-matter ribbon
    texture = (
        np.sin(folding_frequency * np.pi * xi)
        * np.sin(folding_frequency * np.pi * yi + 1.3)
        * np.sin(folding_frequency * np.pi * zi + 0.7)
    )
    ribbon = np.clip(brain - white, 0.0, None)

    image = (
        0.55 * brain_mask * brain
        + 0.35 * white
        + 0.18 * ribbon * (0.5 + 0.5 * texture)
        - 0.45 * ventricles
    )

    if subject_variability > 0.0:
        # mild subject-specific intensity in-homogeneity (bias-field like)
        bias = _smooth_random_field(grid, rng, correlation_cells=10.0)
        image = image * (1.0 + 0.08 * subject_variability / 0.05 * bias)

    image = np.clip(image, 0.0, None)
    # light smoothing so the phantom has the resolution-independent smooth
    # appearance of an MRI acquisition
    image = gaussian_smooth(image, grid, sigma=tuple(1.0 * h for h in grid.spacing))
    return normalize_intensity(image)


@dataclass
class BrainPhantomPair:
    """A multi-subject registration pair (our na01/na02 analogue)."""

    grid: Grid
    reference: np.ndarray
    template: np.ndarray
    seed: int

    @property
    def initial_residual(self) -> float:
        return self.grid.norm(self.reference - self.template)

    def masks(self, threshold: float = 0.15) -> Tuple[np.ndarray, np.ndarray]:
        """Foreground (head) masks of the two subjects."""
        return self.reference > threshold, self.template > threshold


def brain_registration_pair(
    base_resolution: int = 64,
    seed: int = 42,
    subject_variability: float = 0.05,
    grid: Optional[Grid] = None,
    isotropic: bool = False,
) -> BrainPhantomPair:
    """Generate a pair of distinct "subjects" for multi-subject registration.

    Parameters
    ----------
    base_resolution:
        First-dimension resolution; the other dimensions follow the NIREP
        aspect ratio unless *isotropic* is set.  256 reproduces the paper's
        grid size.
    seed:
        Base random seed; the two subjects use ``seed`` and ``seed + 1``.
    subject_variability:
        Amplitude of the inter-subject anatomical variability.
    grid:
        Optional explicit grid, overriding *base_resolution*.
    isotropic:
        Use a cubic grid instead of the NIREP aspect ratio.
    """
    if grid is None:
        shape = (
            (base_resolution,) * 3 if isotropic else nirep_like_shape(base_resolution)
        )
        grid = Grid(shape)
    reference = brain_phantom(grid, seed=seed, subject_variability=subject_variability)
    template = brain_phantom(grid, seed=seed + 1, subject_variability=subject_variability)
    return BrainPhantomPair(grid=grid, reference=reference, template=template, seed=seed)


def warped_self_pair(
    base_resolution: int = 32,
    seed: int = 7,
    warp_amplitude: float = 0.3,
    grid: Optional[Grid] = None,
) -> BrainPhantomPair:
    """A same-subject pair related by a known smooth warp.

    Useful for controlled validation: the template is the base anatomy and
    the reference is the same anatomy resampled through a smooth synthetic
    displacement, so a successful registration must drive the residual far
    below the initial mismatch.
    """
    if grid is None:
        grid = Grid((base_resolution,) * 3)
    rng = np.random.default_rng(seed)
    base = brain_phantom(grid, seed=seed, subject_variability=0.0)

    displacement = np.stack(
        [
            warp_amplitude * _smooth_random_field(grid, rng, correlation_cells=5.0)
            for _ in range(3)
        ],
        axis=0,
    )
    interpolator = PeriodicInterpolator(grid)
    points = grid.coordinate_stack() + displacement
    warped = interpolator(base, points)
    return BrainPhantomPair(grid=grid, reference=warped, template=base, seed=seed)
