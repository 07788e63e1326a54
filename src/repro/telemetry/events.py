"""Structured event log: per-interval samples and check findings as JSONL.

Each event is one flat dict with a ``kind``, a monotone sequence number,
an optional simulated ``time``, and free-form fields.  The log holds
only facts no other stream records; decisions, actions and faults go to
the causal chronicle (:mod:`repro.telemetry.causal`) and wall time to
spans (:mod:`repro.telemetry.tracing`).

The kinds (see docs/OBSERVABILITY.md for schemas):

``interval`` / ``interval.gap``
    one closed measurement interval (``slot``, ``tps``) / a run of empty
    intervals (``first_slot``, ``intervals``);
``machines``
    per-slot allocation sample: ``slot``, ``machines``, ``migrating``;
``sweep.cell``
    one executed sweep cell: ``label``, ``key``, ``seconds``, ``worker``;
``check.divergence`` / ``invariant.violation``
    findings of the differential checks and runtime invariants.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class EventLog:
    """In-memory append-only list of structured events."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._seq = 0

    def emit(self, kind: str, time: Optional[float] = None, **fields) -> dict:
        """Append one event; returns the stored dict (already sequenced)."""
        self._seq += 1
        event = {"seq": self._seq, "kind": kind, "time": time}
        event.update(fields)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> List[dict]:
        return [e for e in self.events if e["kind"] == kind]

    def __len__(self) -> int:
        return len(self.events)

    def snapshot(self) -> List[dict]:
        return list(self.events)


class NullEventLog:
    """Event log that drops everything; shared by disabled telemetry."""

    events: Tuple[dict, ...] = ()

    def emit(self, kind: str, time: Optional[float] = None, **fields) -> dict:
        return {}

    def by_kind(self, kind: str) -> List[dict]:
        return []

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> List[dict]:
        return []


NULL_EVENTS = NullEventLog()
