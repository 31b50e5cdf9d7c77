"""LRU plan pool with byte-accurate memory accounting.

The pool holds what crosses solves: the distributed scatter plans
(``scatter-plan``) that the service's micro-batched transport jobs share —
every batch that transports with the same velocity reuses the first one's
owner map, point counts and per-owner gather operators.  Per-velocity
planning data of a registration is *not* pooled: its owner holds it (the
stepper its departure points, the problem's interpolator its at most two
gather operators, the iterate its gradient stack) and it dies with its
solve.  The pool's budget
(``REPRO_PLAN_POOL_BYTES`` or the CLI flag ``--plan-pool-bytes``) is also
the residency budget those owners decide against: the live operator pair
must fit half of it, a gradient stack all of it.

The pool itself is a process-wide LRU cache keyed by content, with

* **byte-accurate accounting** — every entry reports its ``nbytes``
  (the exact array payload), the pool tracks the running total, and
* a **configurable budget** — least-recently-used entries are evicted when
  an insert exceeds it, entries larger than the whole budget are handed to
  the caller but never stored, and a budget of ``0`` disables caching
  entirely (every lookup builds), plus
* pool-wide **hit/miss/eviction statistics** (:class:`PoolStats`) so
  the service, tests and benchmarks can observe warm-plan reuse.

Keys are content fingerprints (:func:`array_fingerprint`), never object
identities, so two jobs that transport with the same velocity on the same
grid share one plan no matter which solver instance asks.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.observability.trace import trace_span
from repro.utils.validation import check_nonnegative_int

#: Environment variable with the pool budget in bytes.
POOL_BYTES_ENV_VAR = "REPRO_PLAN_POOL_BYTES"

#: Default budget (512 MiB): keeps the live gather-operator pair resident up
#: to about 83^3 and the gradient stack beyond 128^3; production 128^3+ runs
#: should size the budget explicitly (see the README's memory table).
DEFAULT_POOL_BYTES = 512 * 2**20


def env_pool_budget() -> int:
    """The pool budget ``REPRO_PLAN_POOL_BYTES`` resolves to right now.

    Empty or unset means :data:`DEFAULT_POOL_BYTES`.  A value that is not a
    non-negative integer raises :class:`ValueError` naming the variable —
    entry points call this to fail early and cleanly, before lazy pool
    creation would.
    """
    value = os.environ.get(POOL_BYTES_ENV_VAR, "").strip()
    if not value:
        return DEFAULT_POOL_BYTES
    try:
        budget = int(value)
    except ValueError as exc:
        raise ValueError(
            f"{POOL_BYTES_ENV_VAR} must be an integer byte count, got {value!r}"
        ) from exc
    if budget < 0:
        raise ValueError(f"{POOL_BYTES_ENV_VAR} must be non-negative, got {budget}")
    return budget


def array_fingerprint(*arrays: np.ndarray) -> str:
    """Content fingerprint (BLAKE2b) of one or more arrays.

    Hashes dtype, shape and raw bytes, so any numerical change — including
    sign flips — yields a different key.
    """
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        # hash the array's buffer directly — tobytes() would copy the whole
        # payload (~50 MB per 128^3 velocity) on every pool lookup
        digest.update(array.data)
    return digest.hexdigest()


@dataclass(frozen=True)
class PoolStats:
    """Snapshot of one pool's statistics.

    ``hits``/``misses``/``evictions``/``oversize_rejections`` are cumulative
    *counters*; ``current_bytes``/``peak_bytes``/``entries`` are point-in-time
    *gauges* of the whole pool.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    oversize_rejections: int = 0
    current_bytes: int = 0
    peak_bytes: int = 0
    entries: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "oversize_rejections": self.oversize_rejections,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "entries": self.entries,
        }


@dataclass
class _Entry:
    value: Any
    nbytes: int


class _InflightBuild:
    """Hand-off slot of one in-progress plan build (single-flight).

    The first thread to miss a key becomes the *owner* and runs the
    builder; every other thread that asks for the same key while the build
    is in flight waits on :attr:`event` and receives the shared product —
    under the concurrent workers of the job service, N transport batches
    scattering with the same velocity perform one build instead of N
    redundant ones.
    """

    __slots__ = ("event", "value", "success")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.success = False


class PlanPool:
    """LRU cache of execution plans with a byte budget.

    Parameters
    ----------
    max_bytes:
        Storage budget, an integer ``>= 0``.  ``None`` resolves
        ``REPRO_PLAN_POOL_BYTES`` (falling back to :data:`DEFAULT_POOL_BYTES`);
        ``0`` disables storage (every :meth:`get` builds and returns without
        caching).
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            max_bytes = env_pool_budget()
        self.max_bytes = check_nonnegative_int(max_bytes, "max_bytes")
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._inflight: Dict[Hashable, _InflightBuild] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._oversize = 0
        self._current_bytes = 0
        self._peak_bytes = 0

    def get(
        self,
        key: Hashable,
        builder: Callable[[], Any],
        nbytes: Optional[Callable[[Any], int]] = None,
    ) -> Any:
        """Return the cached value for *key*, building (and storing) on miss.

        Builds are **single-flight**: when several threads miss the same key
        concurrently (a multi-worker job service planning one shared
        velocity), exactly one runs the builder — charged the miss — and the
        others wait for the shared product, each charged a *hit* (they
        received a warm plan without building; this also holds when the
        built plan is too large to store).  A failed build releases the
        waiters, which then retry (one of them becomes the next owner).

        Parameters
        ----------
        key:
            Hashable content key (include every input the plan depends on).
        builder:
            Zero-argument callable producing the plan; runs outside the pool
            lock (plan builds are expensive).
        nbytes:
            Size accessor; defaults to the value's ``nbytes`` attribute.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry.value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InflightBuild()
                    self._misses += 1
                    owner = True
                else:
                    owner = False
            if owner:
                try:
                    with trace_span("plan_pool.build"):
                        value = builder()
                    size = int(nbytes(value) if nbytes is not None else value.nbytes)
                except BaseException:
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.event.set()
                    raise
                self._store(key, value, size)
                with self._lock:
                    flight.value = value
                    flight.success = True
                    self._inflight.pop(key, None)
                flight.event.set()
                return value
            flight.event.wait()
            if not flight.success:
                continue  # the owner's build failed; retry from scratch
            with self._lock:
                self._hits += 1
                entry = self._entries.get(key)
                if entry is None:
                    # built but never stored (oversize plan, or already
                    # evicted by concurrent inserts): the shared build still
                    # served us
                    return flight.value
                self._entries.move_to_end(key)
                return entry.value

    def _evict_to_fit(self) -> None:
        """Drop least-recently-used entries until the budget holds (locked)."""
        while self._current_bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._current_bytes -= evicted.nbytes
            self._evictions += 1

    def _store(self, key: Hashable, value: Any, size: int) -> None:
        with self._lock:
            if size > self.max_bytes:
                # would evict the whole pool and still not fit: hand the
                # plan to the caller but keep the pool contents intact
                self._oversize += 1
                return
            if key in self._entries:  # concurrent build of the same key
                return
            self._entries[key] = _Entry(value, size)
            self._current_bytes += size
            self._evict_to_fit()
            self._peak_bytes = max(self._peak_bytes, self._current_bytes)

    def set_max_bytes(self, max_bytes: int) -> None:
        """Change the budget, evicting LRU entries if it shrinks below use."""
        max_bytes = check_nonnegative_int(max_bytes, "max_bytes")
        with self._lock:
            self.max_bytes = max_bytes
            self._evict_to_fit()

    def reset(self) -> None:
        """Drop every entry and zero all statistics."""
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = self._oversize = 0
            self._current_bytes = self._peak_bytes = 0

    def keys(self) -> Tuple[Hashable, ...]:
        """Current keys in LRU order (least recently used first)."""
        with self._lock:
            return tuple(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current_bytes

    @property
    def stats(self) -> PoolStats:
        with self._lock:
            return PoolStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                oversize_rejections=self._oversize,
                current_bytes=self._current_bytes,
                peak_bytes=self._peak_bytes,
                entries=len(self._entries),
            )

    def validate_accounting(self) -> Dict[str, int]:
        """Cross-check the byte/entry counters against the stored entries.

        Recomputes ``current_bytes`` from the actual entries under the lock
        and compares it to the incrementally maintained counter; raises
        :class:`RuntimeError` on any mismatch.
        Used by the concurrency hammer tests (and available to servers as a
        cheap health check): after any interleaving of gets, inserts,
        evictions and budget changes, ``current_bytes`` must equal the sum
        of the stored entries' ``nbytes`` and never exceed the budget.
        """
        with self._lock:
            actual_bytes = sum(entry.nbytes for entry in self._entries.values())
            problems = []
            if actual_bytes != self._current_bytes:
                problems.append(
                    f"current_bytes={self._current_bytes} but stored entries "
                    f"sum to {actual_bytes}"
                )
            if self._current_bytes > self.max_bytes:
                problems.append(
                    f"current_bytes={self._current_bytes} exceeds the budget "
                    f"({self.max_bytes})"
                )
            if problems:
                raise RuntimeError(
                    "plan pool accounting is inconsistent: " + "; ".join(problems)
                )
            return {"current_bytes": actual_bytes, "entries": len(self._entries)}


# --------------------------------------------------------------------------- #
# process-wide pool
# --------------------------------------------------------------------------- #
_global_pool: Optional[PlanPool] = None
_global_lock = threading.Lock()


def get_plan_pool() -> PlanPool:
    """The shared process-wide plan pool (created lazily from the env)."""
    global _global_pool
    with _global_lock:
        if _global_pool is None:
            _global_pool = PlanPool()
        return _global_pool


def configure_plan_pool(max_bytes: Optional[int]) -> PlanPool:
    """Set the budget of the shared pool (``None`` re-reads the environment).

    A budget that is not an integer ``>= 0`` raises, naming ``max_bytes``.
    Shrinking below the current contents evicts least-recently-used entries
    immediately, so the accounting stays exact after a reconfiguration.
    """
    pool = get_plan_pool()
    pool.set_max_bytes(env_pool_budget() if max_bytes is None else max_bytes)
    return pool


def reset_plan_pool() -> PlanPool:
    """Clear the shared pool and zero its statistics (tests, benchmarks)."""
    pool = get_plan_pool()
    pool.reset()
    return pool

