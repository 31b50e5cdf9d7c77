"""Argument validation helpers.

Every public entry point validates its inputs through these helpers so that
misuse produces a clear ``ValueError``/``TypeError`` instead of a cryptic
numpy broadcasting failure three layers down.
"""

from __future__ import annotations

import numbers
from typing import Any, Sequence, Tuple

import numpy as np


def check_real(value: Any, name: str) -> float:
    """Raise ``TypeError`` unless *value* is a real number; return it as a float.

    Python and numpy integers and floats qualify; a ``bool``, a string or
    ``None`` does not, so a setting is never parsed or guessed from text.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    return float(value)


def check_bool(value: Any, name: str) -> bool:
    """Raise ``TypeError`` unless *value* is a ``bool`` or a ``np.bool_``."""
    if not isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a bool, got {type(value).__name__}")
    return bool(value)


def check_integer(value: Any, name: str) -> int:
    """Raise ``TypeError`` unless *value* is a Python or numpy integer (no ``bool``)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    return int(value)


def check_positive(value: float, name: str) -> float:
    """Ensure *value* is a finite, strictly positive real number."""
    value = check_real(value, name)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Ensure *value* is a finite real number ``>= 0``."""
    value = check_real(value, name)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Ensure *value* is a strictly positive integer."""
    value = check_integer(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_int(value: int, name: str) -> int:
    """Ensure *value* is an integer ``>= 0``."""
    value = check_integer(value, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_choice(value: Any, name: str, choices: Sequence[Any]) -> Any:
    """Ensure *value* is one of *choices*."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


def check_shape_3d(shape: Sequence[int], name: str = "shape") -> Tuple[int, int, int]:
    """Validate a 3D grid shape (three positive integers)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3:
        raise ValueError(f"{name} must have exactly 3 entries, got {len(shape)}")
    for s in shape:
        if s < 2:
            raise ValueError(f"every entry of {name} must be >= 2, got {shape}")
    return shape  # type: ignore[return-value]


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """Raise if *array* holds a NaN or an infinity, naming it and the count."""
    bad = array.size - int(np.count_nonzero(np.isfinite(array)))
    if bad:
        raise ValueError(
            f"{name} has {bad} non-finite value{'s' if bad > 1 else ''} (NaN or +-Inf)"
        )
    return array


def check_real_dtype(dtype: np.dtype, name: str) -> np.dtype:
    """Raise ``TypeError`` unless *dtype* is real floating-point or integer.

    Complex, bool, string and object arrays are rejected: casting them to
    ``float64`` would drop an imaginary part or accept a mask as an image.
    """
    dtype = np.dtype(dtype)
    if dtype.kind not in "fiu":
        raise TypeError(
            f"{name} must hold real floating-point or integer values, got dtype {dtype}"
        )
    return dtype


def check_same_shape(a: np.ndarray, b: np.ndarray, names: str = "arrays") -> None:
    """Raise if the two arrays do not share the same shape."""
    if a.shape != b.shape:
        raise ValueError(f"{names} must have identical shapes, got {a.shape} and {b.shape}")


def check_velocity_shape(v: np.ndarray, grid_shape: Sequence[int]) -> np.ndarray:
    """Validate a stacked velocity array of shape ``(3, N1, N2, N3)``."""
    v = np.asarray(v)
    expected = (3, *tuple(int(s) for s in grid_shape))
    if v.shape != expected:
        raise ValueError(f"velocity must have shape {expected}, got {v.shape}")
    return v
