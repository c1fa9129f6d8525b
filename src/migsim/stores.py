"""In-process legacy store with change stream, and target store with faults.

The legacy store is the reference: always available, one sequence number
per commit, full per-key history so snapshots can be cut at any past tick.  The
target store injects unavailability from a seeded fault profile and guards
every write with a freshness check, which is what lets repair and dual
writes race without transactions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Callable, Mapping, NamedTuple

import numpy as np

from .domain import (
    Key,
    SourceRecord,
    StoreUnavailable,
    TargetRecord,
    VersionStamp,
    provenance_covers,
)
from .metrics import EventLog

EMPTY_TIME = -1  # last_update_time of an empty snapshot


class PutResult(str, Enum):
    ACCEPTED = "accepted"
    STALE_REJECTED = "stale_rejected"


@dataclass
class Clock:
    """Shared virtual clock, in ticks (1 tick = 1 simulated minute)."""

    now: int = 0


# A duration or point in time, in ticks.  To type checkers it is an int; the
# scenario codec reads the mark and accepts "90m" / "10h" / "3d" for it.
Ticks = Annotated[int, "ticks"]


class ChangeEvent(NamedTuple):
    seq: int
    key: Key
    new_version: VersionStamp
    op: str  # "write" | "delete"


@dataclass(frozen=True)
class FaultProfile:
    """Time-scheduled unavailability and change-stream degradation."""

    availability_p: float = 1.0
    outage_windows: tuple[tuple[Ticks, Ticks], ...] = ()
    stream_lag: Ticks = 0
    stream_drop_p: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_p <= 1.0:
            raise ValueError("availability_p must be in (0, 1]")
        spans = sorted(self.outage_windows)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ValueError("outage windows must not overlap")
        if self.stream_lag < 0 or not 0.0 <= self.stream_drop_p <= 1.0:
            raise ValueError("invalid stream fault parameters")

    def in_outage(self, now: int) -> bool:
        return any(start <= now < end for start, end in self.outage_windows)


class Snapshot:
    """Immutable copy of the legacy store as of a past tick."""

    def __init__(self, taken_at: int, records: Mapping[Key, SourceRecord]):
        self.taken_at = taken_at
        self.records: dict[Key, SourceRecord] = dict(records)
        self.last_update_time = max(
            (r.version.commit_time for r in self.records.values()), default=EMPTY_TIME
        )

    def __len__(self) -> int:
        return len(self.records)


class LegacyStore:
    """Source of truth.  Always available; every version is kept."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.records: dict[Key, SourceRecord] = {}
        self._seq = 0  # sequence number of the latest commit
        # Superseded versions per key, oldest first; the current version
        # is `records[key]`.
        self._history: dict[Key, list[SourceRecord]] = {}

    def commit(self, key: Key, value: Mapping[str, str] | None) -> ChangeEvent:
        """Store a new version (value=None deletes) and return its change event.

        The caller hands the event downstream only after the commit is fully
        recorded, so the legacy write path never observes replication outcomes.
        """
        prev = self.records.get(key)
        counter = (prev.version.counter if prev else 0) + 1
        stamp = VersionStamp(counter, self.clock.now)
        if value is None:
            rec = SourceRecord(key, {}, stamp, True)
            op = "delete"
        else:
            rec = SourceRecord(key, dict(value), stamp, False)
            op = "write"
        if prev is not None:
            self._history.setdefault(key, []).append(prev)
        self.records[key] = rec
        self._seq += 1
        return ChangeEvent(self._seq, key, stamp, op)

    def read(self, key: Key) -> SourceRecord | None:
        return self.records.get(key)

    def take_snapshot(self, now: int) -> Snapshot:
        """Frozen copy of everything committed at or before `now`."""
        records: dict[Key, SourceRecord] = {}
        history = self._history
        for key, rec in self.records.items():
            if rec.version.commit_time > now:
                # Versions are committed in time order: walk back to the
                # newest one committed by `now`, if any.
                for rec in reversed(history.get(key, ())):
                    if rec.version.commit_time <= now:
                        break
                else:
                    continue
            records[key] = rec
        return Snapshot(now, records)


class TargetStore:
    """Destination store with freshness-guarded conditional writes.

    Availability is decided per operation from a seeded stream, so the k-th
    store operation of a run always sees the same draw for the same seed.
    Tombstones are never compacted away within a run.
    """

    def __init__(self, clock: Clock, fault: FaultProfile, rng: np.random.Generator):
        self.clock = clock
        self.fault = fault
        self._rng = rng
        self.records: dict[Key, TargetRecord] = {}
        self.op_count = 0
        self.on_accept: list[Callable[[TargetRecord, int], None]] = []
        self.event_log: EventLog | None = None
        self.writer_class = "live"  # which pipeline is writing; set per phase

    def _check_available(self) -> bool:
        self.op_count += 1
        draw = self._rng.random()
        if self.fault.in_outage(self.clock.now):
            return False
        return draw < self.fault.availability_p

    def _log_put(self, record: TargetRecord, outcome: str) -> None:
        if self.event_log is None:
            return
        if outcome == PutResult.ACCEPTED.value:
            # The stored record's value and provenance maps are shared, not
            # copied (see EventLog).
            self.event_log.append(
                self.clock.now,
                "put",
                record.key,
                cls=self.writer_class,
                out=outcome,
                prov=record.provenance,
                tomb=record.tombstone,
                val=record.value,
            )
        else:
            self.event_log.append(
                self.clock.now, "put", record.key, cls=self.writer_class, out=outcome
            )

    def put_if_fresher(self, record: TargetRecord) -> PutResult:
        """Accept unless the write would regress any stored provenance entry.

        Raises StoreUnavailable on a fault; the stored value is untouched and
        the attempt is still audited.
        """
        if not self._check_available():
            self._log_put(record, "unavailable")
            raise StoreUnavailable(f"put {record.key}")
        stored = self.records.get(record.key)
        if stored is not None and not provenance_covers(record.provenance, stored.provenance):
            self._log_put(record, PutResult.STALE_REJECTED.value)
            return PutResult.STALE_REJECTED
        self.records[record.key] = record
        self._log_put(record, PutResult.ACCEPTED.value)
        for hook in self.on_accept:
            hook(record, self.clock.now)
        return PutResult.ACCEPTED

    def put_native(self, record: TargetRecord) -> None:
        """Unconditional write used once this store is the source of truth."""
        if not self._check_available():
            raise StoreUnavailable(f"native put {record.key}")
        self.records[record.key] = record
        if self.event_log is not None:
            self.event_log.append(
                self.clock.now, "put", record.key, cls="native", out="accepted"
            )

    def get(self, key: Key) -> TargetRecord | None:
        if not self._check_available():
            raise StoreUnavailable(f"get {key}")
        return self.records.get(key)

    def peek(self, key: Key) -> TargetRecord | None:
        """Monitoring read: no availability draw, never fails."""
        return self.records.get(key)


class ChangeStream:
    """Ordered change-event delivery to one consumer, with fixed lag and
    seeded drops.

    Events are fed in sequence order and all wait the same lag, so the
    pending ones form a FIFO queue that delivers in sequence order.
    Delivery is at-most-once: a dropped event is gone (offline verification
    is the catch-all for those).  With no consumer, due events are
    discarded.
    """

    def __init__(
        self,
        fault: FaultProfile,
        rng: np.random.Generator,
        consumer: Callable[[ChangeEvent, int], None] | None = None,
    ):
        self.fault = fault
        self._rng = rng
        self._consumer = consumer
        self._pending: deque[tuple[int, ChangeEvent]] = deque()
        self.dropped: int = 0

    def feed(self, event: ChangeEvent, now: int) -> None:
        if self.fault.stream_drop_p > 0 and self._rng.random() < self.fault.stream_drop_p:
            self.dropped += 1
            return
        self._pending.append((now + self.fault.stream_lag, event))

    def deliver_due(self, now: int) -> int:
        """Dispatch every delivery due by `now`, in sequence order."""
        pending, consumer = self._pending, self._consumer
        delivered = 0
        while pending and pending[0][0] <= now:
            _, event = pending.popleft()
            delivered += 1
            if consumer is not None:
                consumer(event, now)
        return delivered

    def pending_count(self) -> int:
        return len(self._pending)
