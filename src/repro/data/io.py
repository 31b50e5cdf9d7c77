"""Reading and writing registration problems and results.

Simple, dependency-free ``.npz`` persistence for image pairs, velocities and
deformation maps, so that examples and benchmarks can cache expensive data
generation and so that downstream users can run the solver on their own
volumes (any tool can produce an ``.npz`` with ``reference`` and
``template`` arrays).

Two loading modes are provided:

* :func:`load_problem` materializes every array in memory (the classic
  path, works for compressed and uncompressed archives alike);
* :func:`open_problem` returns **memory-mapped** arrays instead: nothing is
  read until a slice is touched (the solver gathers them like any other
  ``ndarray``).  Mappability requires the *uncompressed* ``.npz``
  variant — save with ``save_problem(..., compress=False)`` (a zip member
  can only be mapped when it is stored, not deflated).
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np
from numpy.lib import format as npy_format

from repro.spectral.grid import Grid

__all__ = [
    "save_problem",
    "load_problem",
    "open_problem",
    "memmap_npz_member",
]


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

    ``compress=False`` writes a plain (stored, uncompressed) archive whose
    members :func:`open_problem` can memory-map.  Compressed archives stay
    the default for
    portability; they simply cannot be mapped.
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


# --------------------------------------------------------------------------- #
# memory-mapped access
# --------------------------------------------------------------------------- #
def _member_array_offset(path: Path, handle, info: "zipfile.ZipInfo"):
    """Byte offset, dtype and shape of an ``.npy`` member's raw array data.

    ``numpy.load`` reads zip members through :class:`zipfile.ZipExtFile`,
    which cannot be memory-mapped.  A *stored* (uncompressed) member,
    however, sits byte-for-byte inside the archive file: we seek to its zip
    local file header (whose name/extra lengths may legitimately differ
    from the central directory's), skip it, parse the ``.npy`` header, and
    the file position is exactly where :func:`numpy.memmap` must start.
    """
    handle.seek(info.header_offset)
    local = handle.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ValueError(
            f"{path}: corrupt archive (bad local file header for member {info.filename!r})"
        )
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    handle.seek(info.header_offset + 30 + name_len + extra_len)
    version = npy_format.read_magic(handle)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(handle)
    else:
        raise ValueError(
            f"{path}: member {info.filename!r} uses .npy format version {version}, "
            "which this reader does not support"
        )
    if dtype.hasobject:
        raise ValueError(
            f"{path}: member {info.filename!r} has object dtype {dtype}; only plain "
            "numeric arrays can be memory-mapped"
        )
    if fortran_order:
        raise ValueError(
            f"{path}: member {info.filename!r} is stored in Fortran (column-major) "
            "order; only C-contiguous members can be mapped — "
            "re-save it with numpy's default (C) order"
        )
    return handle.tell(), dtype, shape


def memmap_npz_member(path: str | Path, key: str) -> np.ndarray:
    """Memory-map one array of an *uncompressed* ``.npz`` archive.

    Returns a read-only :class:`numpy.memmap` view of the member's data
    inside the archive file — no bytes are read until they are sliced.
    Raises a clear error when the member was saved compressed (use
    ``save_problem(..., compress=False)`` / plain :func:`numpy.savez`), has
    an object dtype, or is not C-contiguous on disk.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    member = key if key.endswith(".npy") else f"{key}.npy"
    with zipfile.ZipFile(path) as archive:
        try:
            info = archive.getinfo(member)
        except KeyError as exc:
            names = sorted(name[:-4] for name in archive.namelist() if name.endswith(".npy"))
            raise KeyError(f"{path} has no array {key!r}; available: {names}") from exc
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(
                f"{path}: member {key!r} is compressed and cannot be memory-mapped; "
                "save the archive uncompressed (save_problem(..., compress=False) "
                "or numpy.savez instead of numpy.savez_compressed)"
            )
    with open(path, "rb") as handle:
        offset, dtype, shape = _member_array_offset(path, handle, info)
    return np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=shape, order="C")


def open_problem(path: str | Path, mmap: bool = True) -> Dict[str, object]:
    """Open a problem with its volume arrays memory-mapped.

    The lazy twin of :func:`load_problem`: ``reference``, ``template`` and
    ``velocity`` come back as read-only memmap views (for ``.npz``: of the
    archive members in place), so opening a 512^3 problem costs a few kB —
    the field bytes are paged in as they are read.  The small arrays (grid geometry,
    metadata) are always materialized.

    ``mmap=False`` degrades to :func:`load_problem` exactly (compressed
    archives included); with ``mmap=True`` a compressed archive raises a
    clear error pointing at ``save_problem(..., compress=False)``.
    """
    if not mmap:
        return load_problem(path)
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such problem file: {path}")
    with np.load(path, allow_pickle=False) as data:
        names = set(data.files)
        grid = Grid(
            tuple(int(n) for n in data["grid_shape"]),
            tuple(float(L) for L in data["grid_lengths"]),
        )
        out: Dict[str, object] = {"grid": grid}
        if "metadata_keys" in names:
            keys = [str(k) for k in data["metadata_keys"]]
            values = [float(v) for v in data["metadata_values"]]
            out["metadata"] = dict(zip(keys, values))
    out["reference"] = memmap_npz_member(path, "reference")
    out["template"] = memmap_npz_member(path, "template")
    if "velocity" in names:
        out["velocity"] = memmap_npz_member(path, "velocity")
    return out
