"""Reading and writing registration problems and results.

Simple, dependency-free ``.npz`` persistence for image pairs, velocities and
deformation maps, so that examples and benchmarks can cache expensive data
generation and so that downstream users can run the solver on their own
volumes (any tool can produce an ``.npz`` with ``reference`` and
``template`` arrays).

:func:`load_problem` materializes every array in memory (compressed and
uncompressed archives alike).  A volume too large for that can be kept as a
``.npy`` file and opened with ``numpy.load(path, mmap_mode="r")``: the
solver gathers a read-only memory map like any other ``ndarray``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.spectral.grid import Grid

__all__ = ["save_problem", "load_problem"]


def save_problem(
    path: str | Path,
    reference: np.ndarray,
    template: np.ndarray,
    grid: Optional[Grid] = None,
    velocity: Optional[np.ndarray] = None,
    metadata: Optional[Dict[str, float]] = None,
    compress: bool = True,
) -> Path:
    """Save a registration problem (and optional velocity) to ``.npz``.

    ``compress=False`` writes a plain (stored, uncompressed) archive;
    compressed archives are the default.
    """
    path = Path(path)
    reference = np.asarray(reference)
    template = np.asarray(template)
    if reference.shape != template.shape:
        raise ValueError(
            f"reference and template must share a shape, got {reference.shape} and {template.shape}"
        )
    grid = grid or Grid(reference.shape)
    payload: Dict[str, np.ndarray] = {
        "reference": reference,
        "template": template,
        "grid_shape": np.asarray(grid.shape, dtype=np.int64),
        "grid_lengths": np.asarray(grid.lengths, dtype=np.float64),
    }
    if velocity is not None:
        velocity = np.asarray(velocity)
        if velocity.shape != (3, *reference.shape):
            raise ValueError(
                f"velocity must have shape {(3, *reference.shape)}, got {velocity.shape}"
            )
        payload["velocity"] = velocity
    if metadata:
        payload["metadata_keys"] = np.asarray(sorted(metadata), dtype="U64")
        payload["metadata_values"] = np.asarray(
            [float(metadata[k]) for k in sorted(metadata)], dtype=np.float64
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    if compress:
        np.savez_compressed(path, **payload)
    else:
        np.savez(path, **payload)
    return path


def load_problem(path: str | Path) -> Dict[str, object]:
    """Load a problem saved with :func:`save_problem`.

    Returns a dictionary with keys ``reference``, ``template``, ``grid`` and
    optionally ``velocity`` and ``metadata``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such problem file: {path}")
    with np.load(path, allow_pickle=False) as data:
        grid = Grid(
            tuple(int(n) for n in data["grid_shape"]),
            tuple(float(L) for L in data["grid_lengths"]),
        )
        out: Dict[str, object] = {
            "reference": np.asarray(data["reference"]),
            "template": np.asarray(data["template"]),
            "grid": grid,
        }
        if "velocity" in data:
            out["velocity"] = np.asarray(data["velocity"])
        if "metadata_keys" in data:
            keys = [str(k) for k in data["metadata_keys"]]
            values = [float(v) for v in data["metadata_values"]]
            out["metadata"] = dict(zip(keys, values))
    return out
