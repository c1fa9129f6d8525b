"""Self-healing queue: coalescing enqueue, idempotent repair, dead letters.

The repair primitive never trusts the triggering payload.  It re-reads the
latest source records, maps them, and reconciles the target against that,
which is what makes running it any number of times safe: either the target
already matches and nothing is written, or the freshness-guarded write
moves it strictly forward.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .domain import (
    DiscrepancyClass,
    InvariantError,
    Key,
    Schema,
    TargetRecord,
    compare_records,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    read_group,
)
from .metrics import EventLog
from .stores import LegacyStore, PutResult, StoreUnavailable, TargetStore, Ticks


class Trigger(str, Enum):
    DUALWRITE = "dualwrite"
    NEARLINE = "nearline"
    SHADOWREAD = "shadowread"
    OFFLINE = "offline"
    BOOTSTRAP = "bootstrap"


# A validate-and-fix outcome is the word its log row carries: one of the two
# successes, a `dequeue` row's `res`, or else the failure's reason, a `retry`
# or `dead_letter` row's `reason`.
FIXED = "fixed"
CONSISTENT = "consistent"
# Why a fix failed after its check found the key inconsistent.  A check that
# could not judge fails with "unavailable" or the bug's reason instead.
FIX_UNAVAILABLE = "fix_unavailable"
MISSING_PARENT = "missing_parent"
FIX_FAILURES = (FIX_UNAVAILABLE, MISSING_PARENT)


@dataclass
class ValidationEvent:
    """One pending unit of repair work, keyed by target record.  When it is
    due lives only in its `SelfHealingQueue` heap entry."""

    target_key: Key
    trigger: Trigger
    source_update_time: int
    attempts: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 10
    backoff_base: Ticks = 1
    backoff_cap: Ticks = 64
    rate_limit: int = 100  # events processed per tick

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, attempts: int) -> int:
        return min(self.backoff_base * (2**attempts), self.backoff_cap)


@dataclass
class ProcessReport:
    """How many events one `Healer.process` call took off the queue; each
    one's outcome is its `dequeue`, `retry` or `dead_letter` row."""

    processed: int = 0


class SelfHealingQueue:
    """At most one pending event per target key, ordered by due time."""

    def __init__(self, log: EventLog):
        self.log = log
        self._by_key: dict[Key, ValidationEvent] = {}
        self._heap: list[tuple[int, int, Key]] = []
        self._seq = 0
        self._dead: dict[Key, ValidationEvent] = {}
        self._in_flight: dict[Key, ValidationEvent] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def pending(self) -> Iterable[ValidationEvent]:
        return self._by_key.values()

    def enqueue(self, key: Key, trigger: Trigger, now: int, source_update_time: int) -> None:
        """Queue a validation event for `key`, or fold the trigger into the
        event already pending or in flight; logs `enqueue` or `coalesce`."""
        # A key being processed right now coalesces too; its fix already
        # reads the latest source state, so the new trigger adds nothing.
        existing = self._by_key.get(key) or self._in_flight.get(key)
        if existing is not None:
            existing.source_update_time = max(existing.source_update_time, source_update_time)
            self.log.append(now, "coalesce", key, trig=trigger.value, sut=source_update_time)
            return
        self._seq += 1
        self._by_key[key] = ValidationEvent(key, trigger, source_update_time)
        heapq.heappush(self._heap, (now, self._seq, key))
        self.log.append(now, "enqueue", key, trig=trigger.value, sut=source_update_time)

    def pop_due(self, now: int, limit: int) -> list[ValidationEvent]:
        """Remove up to `limit` events due by `now`, FIFO by due time.

        Popped events stay tracked as in-flight until settled back via
        finish / reschedule / dead_letter, so concurrent enqueues of the
        same key coalesce instead of double-inserting.  Each pending event
        has exactly one heap entry: only `enqueue` (for a key neither
        pending nor in flight) and `reschedule` (for an in-flight one) push,
        and only this method pops.
        """
        heap = self._heap
        out: list[ValidationEvent] = []
        while heap and heap[0][0] <= now and len(out) < limit:
            key = heapq.heappop(heap)[2]
            event = self._in_flight[key] = self._by_key.pop(key)
            out.append(event)
        return out

    def finish(self, event: ValidationEvent) -> None:
        self._in_flight.pop(event.target_key, None)

    def reschedule(self, event: ValidationEvent, due: int) -> None:
        self._in_flight.pop(event.target_key, None)
        self._seq += 1
        self._by_key[event.target_key] = event
        heapq.heappush(self._heap, (due, self._seq, event.target_key))

    def dead_letter(self, event: ValidationEvent, reason: str, now: int) -> None:
        """Give up on `event`; its `dead_letter` row states the reason.
        Re-surfacing the same key replaces the earlier entry, so the list
        names each stuck key exactly once."""
        self._in_flight.pop(event.target_key, None)
        self._dead[event.target_key] = event
        self.log.append(now, "dead_letter", event.target_key, reason=reason)

    def dead_letters(self) -> list[ValidationEvent]:
        return list(self._dead.values())

    def requeue_dead_letters(self, now: int) -> int:
        """Operator action after a bug fix: feed every dead letter back in."""
        letters = list(self._dead.values())
        self._dead.clear()
        for event in letters:
            self.log.append(now, "requeue", event.target_key)
            self.enqueue(event.target_key, event.trigger, now, event.source_update_time)
        return len(letters)


class ParentGate:
    """Which parent target record a group's live outputs still wait for.

    A positive cache over `TargetStore.get`: target records are never
    compacted away within a run, so a record seen once stays present.  Each
    writer keeps its own gate; a shared one would skip reads, and every
    read draws from the target's fault stream.
    """

    def __init__(self, schema: Schema, target: TargetStore):
        self.schema = schema
        self.target = target
        self._present: set[Key] = set()

    def missing(self, sources) -> Key | None:
        """First parent target record the group needs that is absent, if
        any, read in key order, which fixes the reads' fault draws; raises
        StoreUnavailable when a read fails."""
        for pkey in sorted(self.schema.parent_target_keys(sources)):
            if pkey in self._present:
                continue
            if self.target.get(pkey) is None:
                return pkey
            self._present.add(pkey)
        return None

    def note(self, key: Key) -> None:
        """Record a live write of `key`."""
        self._present.add(key)


class Healer:
    """Runs validate-and-fix against the current store pair."""

    def __init__(
        self,
        schema: Schema,
        legacy: LegacyStore,
        target: TargetStore,
        queue: SelfHealingQueue,
        log: EventLog,
        policy: RetryPolicy,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.log = log
        self.policy = policy
        self._parents = ParentGate(schema, target)

    def validate_and_fix(self, key: Key, now: int) -> str:
        """Reconcile one target key against the latest source state; the
        outcome is FIXED, CONSISTENT or the reason the attempt failed.

        Never leaves the target older than it was: the only write path is
        the freshness-guarded conditional put, and a rejection there means
        somebody fresher already won.
        """
        rule = self.schema.rule_for_target(key.etype)
        sources = read_group(rule, key.id, self.legacy.read)
        expected, verdicts, bug = self.schema.check_group(
            rule, sources, self.target.get, (key,), now
        )
        verdict = verdicts[key]
        if bug or verdict is None:
            return bug or "unavailable"
        if verdict is DiscrepancyClass.CONSISTENT:
            return CONSISTENT

        fix = expected.get(key)
        if fix is None:
            # Live data with no surviving source: bury it in place.  The
            # peek sees the record the check just read.
            actual = self.target.peek(key)
            if actual is None:
                raise InvariantError(f"{key}: absent on both sides yet inconsistent")
            fix = TargetRecord(key, {}, actual.provenance, True)

        try:
            missing = None if fix.tombstone else self._parents.missing(sources)
            if missing is not None:
                self.queue.enqueue(missing, Trigger.DUALWRITE, now, fix_source_time(sources))
                return f"{MISSING_PARENT}: {missing}"
            result = self.target.put(fix, "repair")
        except StoreUnavailable:
            return FIX_UNAVAILABLE
        if not fix.tombstone:
            self._parents.note(key)
        if result is PutResult.STALE_REJECTED:
            # Freshness race resolved in the target's favor.
            return CONSISTENT
        return FIXED

    def process(self, now: int) -> ProcessReport:
        """Drain due events up to the rate limit; retry or dead-letter failures."""
        events = self.queue.pop_due(now, self.policy.rate_limit)
        for event in events:
            outcome = self.validate_and_fix(event.target_key, now)
            if outcome in (FIXED, CONSISTENT):
                self.queue.finish(event)
                self.log.append(now, "dequeue", event.target_key, res=outcome)
                continue
            event.attempts += 1
            if event.attempts >= self.policy.max_attempts:
                self.queue.dead_letter(event, outcome, now)
            else:
                due = now + self.policy.backoff(event.attempts)
                self.queue.reschedule(event, due)
                self.log.append(
                    now, "retry", event.target_key,
                    attempts=event.attempts, due=due, reason=outcome,
                )
        return ProcessReport(len(events))


def fix_source_time(sources) -> int:
    """Age anchor for an event derived from a set of source records."""
    if not sources:
        return 0
    return max(rec.version.commit_time for rec in sources.values())


class Latency(NamedTuple):
    """Count, mean and largest value of one latency, in ticks."""

    count: int
    mean: float
    max: int

    @classmethod
    def of(cls, values: list[int]) -> Latency:
        mean = sum(values) / len(values) if values else 0.0
        return cls(len(values), mean, max(values, default=0))


@dataclass(frozen=True)
class RepairCounts:
    """The repair loop's counters, as `simulation.fold_log` reads them from a log."""

    enqueued: int
    coalesced: int
    dequeued: int
    dead_lettered: int
    requeued: int
    validation_success: int
    validation_failure: int
    fix_success: int
    fix_failure: int
    retries: int
    attempts_total: int
    in_queue_latency: Latency
    pipeline_latency: Latency

    def as_dict(self) -> dict:
        """The report's `counters`: these and the queue length."""
        queue_length = self.enqueued - self.dequeued - self.dead_lettered
        counters = dict(vars(self), queue_length=queue_length)
        for name in ("in_queue_latency", "pipeline_latency"):
            counters[name] = {**counters[name]._asdict(), "mean": round(counters[name].mean, 3)}
        return counters
