"""Pluggable FFT backends for the spectral discretization.

The paper's per-iteration cost is dominated by 3D FFTs — its complexity model
counts ``8*nt`` transforms per Hessian matvec (Sec. III-C4) — so the choice
and configuration of the FFT engine is a first-order performance knob.  This
module provides a small registry of interchangeable backends behind one
protocol:

``"numpy"``
    :mod:`numpy.fft` (pocketfft); the reference backend.
``"scipy"``
    :mod:`scipy.fft` (the vectorized pocketfft C++ engine) with a pooled
    worker configuration (``workers=N`` multi-threading) resolved once per
    process and re-used by every transform.

Selection precedence (first match wins):

1. an explicit backend instance or name passed to the consumer
   (e.g. ``FourierTransform(grid, backend="scipy")`` or the CLI flag
   ``--fft-backend``),
2. the ``REPRO_FFT_BACKEND`` environment variable,
3. the ``"numpy"`` default.

Backends only perform transforms; transform *counting* stays in
:class:`repro.spectral.fft.FourierTransform`, which guarantees exact FFT
counter parity across backends — the paper's ``8*nt`` count verification is
backend independent by construction.
"""

from __future__ import annotations

import os
from typing import Dict, Protocol, Sequence, Tuple, Type, runtime_checkable

import numpy as np

from repro.runtime.workers import FFT_WORKERS_ENV_VAR
from repro.runtime.workers import resolve_workers as _resolve_runtime_workers

#: Environment variable selecting the default backend.
BACKEND_ENV_VAR = "REPRO_FFT_BACKEND"

#: Environment variable overriding the worker-pool size of threaded backends
#: (the per-subsystem override of the unified ``REPRO_WORKERS`` policy, see
#: :mod:`repro.runtime.workers`).
WORKERS_ENV_VAR = FFT_WORKERS_ENV_VAR

DEFAULT_BACKEND = "numpy"


@runtime_checkable
class FFTBackend(Protocol):
    """Minimal transform interface every backend implements.

    All n-dimensional entry points take explicit ``axes`` so that batched
    (stacked) transforms — e.g. all three components of a velocity field in
    one call — map onto a single library invocation.
    """

    name: str

    def rfftn(self, a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        """Real-to-complex transform over *axes*."""
        ...

    def irfftn(
        self, a: np.ndarray, s: Sequence[int], axes: Sequence[int]
    ) -> np.ndarray:
        """Complex-to-real inverse transform over *axes* with output sizes *s*."""
        ...

    def fft(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Complex 1-D transform along *axis* (used by the distributed FFT)."""
        ...

    def ifft(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Complex 1-D inverse transform along *axis*."""
        ...


def _resolve_workers(workers: int | None) -> int:
    """Worker-pool size under the unified runtime policy.

    Explicit argument > ``REPRO_FFT_WORKERS`` > the shared runtime default
    (``--workers`` / ``REPRO_WORKERS``) > all available cores — see
    :func:`repro.runtime.workers.resolve_workers`.
    """
    return _resolve_runtime_workers("fft", workers)


class NumpyFFTBackend:
    """Reference backend wrapping :mod:`numpy.fft`."""

    name = "numpy"

    def rfftn(self, a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        return np.fft.rfftn(a, axes=tuple(axes))

    def irfftn(self, a: np.ndarray, s: Sequence[int], axes: Sequence[int]) -> np.ndarray:
        return np.fft.irfftn(a, s=tuple(s), axes=tuple(axes))

    def fft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.fft(a, axis=axis)

    def ifft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.ifft(a, axis=axis)


class ScipyFFTBackend:
    """:mod:`scipy.fft` backend with a pooled ``workers`` configuration.

    ``scipy.fft`` uses the vectorized (SIMD) pocketfft C++ engine, which is
    measurably faster than :mod:`numpy.fft` even single-threaded, and it
    releases the GIL to thread large transforms over ``workers`` cores.  The
    worker count is resolved once at construction (argument > env var >
    ``os.cpu_count()``) and shared by every transform — the "pooled context"
    the registry hands out is a process-wide singleton per backend name.
    """

    name = "scipy"

    def __init__(self, workers: int | None = None) -> None:
        import scipy.fft as _scipy_fft

        self._fft = _scipy_fft
        self.workers = _resolve_workers(workers)

    def rfftn(self, a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        return self._fft.rfftn(a, axes=tuple(axes), workers=self.workers)

    def irfftn(self, a: np.ndarray, s: Sequence[int], axes: Sequence[int]) -> np.ndarray:
        return self._fft.irfftn(a, s=tuple(s), axes=tuple(axes), workers=self.workers)

    def fft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._fft.fft(a, axis=axis, workers=self.workers)

    def ifft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return self._fft.ifft(a, axis=axis, workers=self.workers)


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type] = {}
_INSTANCES: Dict[str, FFTBackend] = {}


def register_backend(name: str, cls: Type) -> Type:
    """Register a backend class under *name* (overwrites a prior entry)."""
    _REGISTRY[name.lower()] = cls
    _INSTANCES.pop(name.lower(), None)
    return cls


register_backend("numpy", NumpyFFTBackend)
register_backend("scipy", ScipyFFTBackend)


def registered_backends() -> Tuple[str, ...]:
    """Names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def default_backend_name() -> str:
    """Backend selected by the environment (``REPRO_FFT_BACKEND``) or the default.

    A name the registry does not know is rejected here with the valid
    choices and the variable that carried it — an environment typo must
    produce a clear error, never silently select something else.
    """
    raw = os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)
    name = raw.strip().lower() or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={raw!r} is not a registered FFT backend; "
            f"valid choices: {registered_backends()}"
        )
    return name


def get_backend(spec: "str | FFTBackend | None" = None) -> FFTBackend:
    """Resolve *spec* to a backend instance.

    Parameters
    ----------
    spec:
        ``None`` (environment variable or the ``"numpy"`` default), a
        registered backend name, or an already-constructed backend instance
        (returned unchanged, enabling custom engines without registration).
    """
    if spec is None:
        spec = default_backend_name()
    if not isinstance(spec, str):
        if not isinstance(spec, FFTBackend):
            raise TypeError(
                f"fft backend must be a registered name or an object implementing "
                f"the FFTBackend protocol, got {type(spec).__name__}"
            )
        return spec
    name = spec.strip().lower()
    if name in _INSTANCES:
        return _INSTANCES[name]
    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown FFT backend {spec!r}; registered backends: {registered_backends()}"
        ) from exc
    instance = cls()
    _INSTANCES[name] = instance
    return instance
