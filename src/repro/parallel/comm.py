"""Simulated MPI communicator with a communication ledger.

The distributed kernels in this package are written in SPMD style against a
small communicator interface (all-to-all-v and point-to-point exchange).  :class:`SimulatedCommunicator` provides that interface for a
set of ranks living in one Python process: "sending" moves numpy arrays
between per-rank slots, and every transfer is recorded in a
:class:`CommunicationLedger` (message count, payload bytes, per category).

The ledger measures what the executable distributed transport moves: the
ghost exchange (``ghost_exchange``), the scatter plan's point scatter
(``interp_scatter``) and its value return (``interp_return``).  It does not
feed the latency / bandwidth machine model
(:mod:`repro.parallel.performance`): Tables I-IV are closed form, and the
ledger's volumes and the model's charges are not reconciled (README.md,
"Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.observability.metrics import get_metrics_registry
from repro.observability.trace import trace_span
from repro.utils.validation import check_positive_int

_comm_registry = get_metrics_registry()
_COMM_MESSAGES = _comm_registry.counter(
    "comm.messages", "simulated MPI messages by category"
)
_COMM_BYTES = _comm_registry.counter(
    "comm.bytes", "simulated MPI payload bytes by category"
)
_COMM_CALLS = _comm_registry.counter(
    "comm.calls", "simulated MPI collective calls by category"
)


@dataclass
class LedgerEntry:
    """Aggregate record of one category of communication."""

    messages: int = 0
    bytes: int = 0
    calls: int = 0

    def add(self, messages: int, payload_bytes: int) -> None:
        self.messages += int(messages)
        self.bytes += int(payload_bytes)
        self.calls += 1


@dataclass
class CommunicationLedger:
    """Per-category accounting of every simulated message."""

    entries: Dict[str, LedgerEntry] = field(default_factory=dict)

    def record(self, category: str, messages: int, payload_bytes: int) -> None:
        if category not in self.entries:
            self.entries[category] = LedgerEntry()
        self.entries[category].add(messages, payload_bytes)
        # mirror into the process-wide metrics registry; every ledger
        # (there is one per simulated communicator) feeds the same series
        _COMM_MESSAGES.inc(int(messages), category=category)
        _COMM_BYTES.inc(int(payload_bytes), category=category)
        _COMM_CALLS.inc(1, category=category)

    def messages(self, category: str | None = None) -> int:
        if category is not None:
            return self.entries[category].messages if category in self.entries else 0
        return sum(e.messages for e in self.entries.values())

    def bytes(self, category: str | None = None) -> int:
        if category is not None:
            return self.entries[category].bytes if category in self.entries else 0
        return sum(e.bytes for e in self.entries.values())

    def reset(self) -> None:
        self.entries.clear()

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {"messages": e.messages, "bytes": e.bytes, "calls": e.calls}
            for name, e in sorted(self.entries.items())
        }


@dataclass
class SimulatedCommunicator:
    """A *p*-rank communicator executed inside one process.

    All collective operations take and return **lists indexed by rank**: the
    caller iterates over ranks itself (SPMD emulation), and the communicator
    only moves data between the per-rank slots while book-keeping the traffic.

    Parameters
    ----------
    size:
        Number of ranks ``p``.
    ledger:
        Communication ledger (a fresh one is created when omitted).
    """

    size: int
    ledger: CommunicationLedger = field(default_factory=CommunicationLedger)

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")

    # ------------------------------------------------------------------ #
    def ranks(self) -> range:
        return range(self.size)

    @staticmethod
    def _payload_bytes(array: np.ndarray) -> int:
        return int(np.asarray(array).nbytes)

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def alltoallv(
        self, send: Sequence[Sequence[np.ndarray]], category: str = "alltoallv"
    ) -> List[List[np.ndarray]]:
        """All-to-all-v exchange.

        ``send[i][j]`` is the array rank *i* sends to rank *j*; the result
        ``recv[j][i]`` is that same array as received by rank *j*.  Self
        messages (``i == j``) are moved but not charged to the ledger, which
        matches how an MPI implementation short-circuits them through shared
        memory.
        """
        if len(send) != self.size:
            raise ValueError(f"send must have one entry per rank ({self.size}), got {len(send)}")
        for i, row in enumerate(send):
            if len(row) != self.size:
                raise ValueError(
                    f"send[{i}] must have one entry per destination rank, got {len(row)}"
                )
        recv: List[List[np.ndarray]] = [[None] * self.size for _ in range(self.size)]
        with trace_span("comm.alltoallv", category=category, ranks=self.size) as span:
            messages = 0
            payload = 0
            for i in range(self.size):
                for j in range(self.size):
                    data = np.asarray(send[i][j])
                    recv[j][i] = data
                    if i != j and data.size:
                        messages += 1
                        payload += self._payload_bytes(data)
            self.ledger.record(category, messages, payload)
            span.set_attr("messages", messages)
            span.set_attr("bytes", payload)
        return recv

    def exchange(
        self,
        messages: Sequence[tuple[int, int, np.ndarray]],
        category: str = "point_to_point",
    ) -> List[List[tuple[int, np.ndarray]]]:
        """Batch of point-to-point messages ``(source, destination, data)``.

        Returns, for every destination rank, the list of ``(source, data)``
        pairs it received (in submission order).
        """
        inbox: List[List[tuple[int, np.ndarray]]] = [[] for _ in range(self.size)]
        with trace_span("comm.exchange", category=category, ranks=self.size) as span:
            count = 0
            payload = 0
            for source, destination, data in messages:
                if not (0 <= source < self.size and 0 <= destination < self.size):
                    raise ValueError(
                        f"invalid ranks ({source} -> {destination}) for communicator of size {self.size}"
                    )
                data = np.asarray(data)
                inbox[destination].append((source, data))
                if source != destination and data.size:
                    count += 1
                    payload += self._payload_bytes(data)
            self.ledger.record(category, count, payload)
            span.set_attr("messages", count)
            span.set_attr("bytes", payload)
        return inbox
