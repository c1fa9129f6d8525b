"""In-process legacy store with change stream, and target store with faults.

The legacy store is the reference: always available, one sequence number
per commit, and the current version of every key, which a snapshot copies.
The target store injects unavailability from a seeded fault profile and
guards every write with a freshness check, which is what lets repair and
dual writes race without transactions.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Callable, Mapping, NamedTuple

import numpy as np

from .domain import (
    InvariantError,
    Key,
    SourceRecord,
    StoreUnavailable,
    TargetRecord,
    VersionStamp,
    provenance_covers,
)
from .metrics import EventLog
from .rng import uniforms


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
        # The sorted windows' starts and ends, for `in_outage`; attributes,
        # not fields, so scenario files and equality never see them.
        object.__setattr__(self, "_starts", tuple(start for start, _ in spans))
        object.__setattr__(self, "_ends", tuple(end for _, end in spans))

    def in_outage(self, now: int) -> bool:
        """Whether `now` falls in an outage window.  Windows do not overlap,
        so only the last one that starts at or before `now` can hold it."""
        starts = self._starts
        if not starts:
            return False
        i = bisect_right(starts, now) - 1
        return i >= 0 and now < self._ends[i]


class Snapshot:
    """Immutable copy of the legacy store as of the tick it was taken."""

    def __init__(self, taken_at: int, records: Mapping[Key, SourceRecord]):
        self.taken_at = taken_at
        self.records: dict[Key, SourceRecord] = dict(records)

    def __len__(self) -> int:
        return len(self.records)


class LegacyStore:
    """Source of truth.  Always available; keeps each key's current version."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.records: dict[Key, SourceRecord] = {}
        self._seq = 0  # sequence number of the latest commit
        # Time of the latest commit, -1 before the first.  Records are never
        # removed, so this is also their newest commit time.
        self.last_update_time = -1
        self._first_stamp = VersionStamp(1, -1)  # see `commit`

    def commit(self, key: Key, value: Mapping[str, str] | None) -> ChangeEvent:
        """Store a new version (value=None deletes) and return its change event.

        The caller hands the event downstream only after the commit is fully
        recorded, so the legacy write path never observes replication outcomes.

        Every first commit of a key at one tick shares one `VersionStamp(1,
        now)` object.  Stamps are NamedTuples, which the cyclic GC tracks
        for as long as they live, so a seed of n records would otherwise
        keep n equal stamps for every full collection to scan.
        """
        now = self.clock.now
        prev = self.records.get(key)
        if prev is not None:
            stamp = VersionStamp(prev.version.counter + 1, now)
        else:
            stamp = self._first_stamp
            if stamp.commit_time != now:
                stamp = self._first_stamp = VersionStamp(1, now)
        if value is None:
            rec = SourceRecord(key, {}, stamp, True)
            op = "delete"
        else:
            rec = SourceRecord(key, dict(value), stamp, False)
            op = "write"
        self.records[key] = rec
        self.last_update_time = stamp.commit_time
        self._seq += 1
        return ChangeEvent(self._seq, key, stamp, op)

    def read(self, key: Key) -> SourceRecord | None:
        return self.records.get(key)

    def take_snapshot(self, now: int) -> Snapshot:
        """Frozen copy of the current versions, taken at `now`.

        Superseded versions are not kept, so `now` must not be earlier than
        the newest commit.
        """
        if self.last_update_time > now:
            raise InvariantError(f"snapshot at {now} after a commit at {self.last_update_time}")
        return Snapshot(now, self.records)


class TargetStore:
    """Destination store with freshness-guarded conditional writes.

    Availability is decided per operation from a seeded stream, so the k-th
    store operation of a run always sees the same draw for the same seed.
    The store owns that stream and draws only uniforms from it, so it takes
    them in blocks.  Tombstones are never compacted away within a run.
    """

    def __init__(self, clock: Clock, fault: FaultProfile, rng: np.random.Generator, log: EventLog):
        self.clock = clock
        self.fault = fault
        self._draws = uniforms(rng)
        self.log = log
        self.records: dict[Key, TargetRecord] = {}
        self.op_count = 0
        self.on_accept: list[Callable[[TargetRecord, int], None]] = []
        self._cls = "live"  # the class of the put in progress; see `put`

    def _check_available(self) -> bool:
        self.op_count += 1
        draw = next(self._draws)
        if self.fault.in_outage(self.clock.now):
            return False
        return draw < self.fault.availability_p

    def _log_put(self, record: TargetRecord, outcome: str, **stored) -> None:
        """Log a put; an accepted one also passes what was `stored`."""
        self.log.append(self.clock.now, "put", record.key, cls=self._cls, out=outcome, **stored)

    def put(self, record: TargetRecord, cls: str) -> PutResult:
        """A writer's put: `put_if_fresher`, with `cls` naming the writer in
        the put row ("dual", "repair" or "backfill").

        The class rides on the store for the length of the one call, not as
        an argument of `put_if_fresher`, because the benchmark tracer
        (`bench/tracing.py`) wraps that method with a one-record signature.
        """
        self._cls = cls
        try:
            return self.put_if_fresher(record)
        finally:
            self._cls = "live"

    def put_if_fresher(self, record: TargetRecord) -> PutResult:
        """Accept unless the write would regress any stored provenance entry.

        Raises StoreUnavailable on a fault; the stored value is untouched and
        the attempt is still audited.  Called directly, not through `put`,
        its row's class is "live".
        """
        if not self._check_available():
            self._log_put(record, "unavailable")
            raise StoreUnavailable(f"put {record.key}")
        stored = self.records.get(record.key)
        if stored is not None and not provenance_covers(record.provenance, stored.provenance):
            self._log_put(record, PutResult.STALE_REJECTED.value)
            return PutResult.STALE_REJECTED
        self.records[record.key] = record
        # The stored record's value and provenance maps are shared, not
        # copied (see EventLog).
        self._log_put(
            record, PutResult.ACCEPTED.value,
            prov=record.provenance, tomb=record.tombstone, val=record.value,
        )
        for hook in self.on_accept:
            hook(record, self.clock.now)
        return PutResult.ACCEPTED

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
    is the catch-all for those).  Drops draw from a stream only the change
    stream uses, in blocks.  With no consumer, due events are discarded.
    """

    def __init__(
        self,
        fault: FaultProfile,
        rng: np.random.Generator,
        consumer: Callable[[ChangeEvent, int], None] | None = None,
    ):
        self.fault = fault
        self._draws = uniforms(rng)
        self._consumer = consumer
        self._pending: deque[tuple[int, ChangeEvent]] = deque()
        self.dropped: int = 0

    def feed(self, event: ChangeEvent, now: int) -> None:
        if self.fault.stream_drop_p > 0 and next(self._draws) < self.fault.stream_drop_p:
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
