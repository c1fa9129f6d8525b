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
from typing import Iterable

from .domain import (
    DiscrepancyClass,
    InvariantError,
    Key,
    Schema,
    TargetRecord,
    compare_records,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    read_group,
)
from .metrics import EventLog, MetricsRegistry
from .stores import Clock, LegacyStore, PutResult, StoreUnavailable, TargetStore, Ticks


class Trigger(str, Enum):
    DUALWRITE = "dualwrite"
    NEARLINE = "nearline"
    SHADOWREAD = "shadowread"
    OFFLINE = "offline"
    BOOTSTRAP = "bootstrap"


class EnqueueResult(str, Enum):
    ENQUEUED = "enqueued"
    COALESCED = "coalesced"


class FixStatus(str, Enum):
    ALREADY_CONSISTENT = "already_consistent"
    FIXED = "fixed"
    FAILED = "failed"


@dataclass
class FixOutcome:
    status: FixStatus
    reason: str = ""


@dataclass
class ValidationEvent:
    """One pending unit of repair work, keyed by target record."""

    target_key: Key
    trigger: Trigger
    enqueued_at: int
    source_update_time: int
    attempts: int = 0
    due: int = 0
    seq: int = 0


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
class DeadLetter:
    event: ValidationEvent
    last_error: str
    surfaced_at: int


@dataclass
class ProcessReport:
    processed: int = 0
    consistent: int = 0
    fixed: int = 0
    failed: int = 0
    dead_lettered: int = 0


class SelfHealingQueue:
    """At most one pending event per target key, ordered by due time."""

    def __init__(self, registry: MetricsRegistry, log: EventLog):
        self.registry = registry
        self.log = log
        self._by_key: dict[Key, ValidationEvent] = {}
        self._heap: list[tuple[int, int, Key]] = []
        self._seq = 0
        self._dead: dict[Key, DeadLetter] = {}
        self._in_flight: dict[Key, ValidationEvent] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def pending(self) -> Iterable[ValidationEvent]:
        return self._by_key.values()

    def enqueue(
        self, key: Key, trigger: Trigger, now: int, source_update_time: int
    ) -> EnqueueResult:
        # A key being processed right now coalesces too; its fix already
        # reads the latest source state, so the new trigger adds nothing.
        existing = self._by_key.get(key) or self._in_flight.get(key)
        if existing is not None:
            existing.source_update_time = max(
                existing.source_update_time, source_update_time
            )
            existing.enqueued_at = min(existing.enqueued_at, now)
            self.registry.coalesced += 1
            self.log.append(now, "coalesce", key, trig=trigger.value, sut=source_update_time)
            return EnqueueResult.COALESCED
        self._seq += 1
        event = ValidationEvent(
            key, trigger, now, source_update_time, attempts=0, due=now, seq=self._seq
        )
        self._by_key[key] = event
        heapq.heappush(self._heap, (event.due, event.seq, key))
        self.registry.enqueued += 1
        self.log.append(now, "enqueue", key, trig=trigger.value, sut=source_update_time)
        return EnqueueResult.ENQUEUED

    def pop_due(self, now: int, limit: int) -> list[ValidationEvent]:
        """Remove up to `limit` events due by `now`, FIFO by due time.

        Popped events stay tracked as in-flight until settled back via
        finish / reschedule / dead_letter, so concurrent enqueues of the
        same key coalesce instead of double-inserting.
        """
        out: list[ValidationEvent] = []
        while self._heap and len(out) < limit:
            due, seq, key = self._heap[0]
            if due > now:
                break
            heapq.heappop(self._heap)
            event = self._by_key.get(key)
            if event is None or event.seq != seq or event.due != due:
                continue  # superseded heap entry
            del self._by_key[key]
            self._in_flight[key] = event
            out.append(event)
        return out

    def finish(self, event: ValidationEvent) -> None:
        self._in_flight.pop(event.target_key, None)

    def reschedule(self, event: ValidationEvent, due: int) -> None:
        self._in_flight.pop(event.target_key, None)
        event.due = due
        self._seq += 1
        event.seq = self._seq
        self._by_key[event.target_key] = event
        heapq.heappush(self._heap, (due, event.seq, event.target_key))

    def dead_letter(self, event: ValidationEvent, error: str, now: int) -> None:
        # Re-surfacing the same key replaces the earlier entry, so the list
        # names each stuck key exactly once.
        self._in_flight.pop(event.target_key, None)
        self._dead[event.target_key] = DeadLetter(event, error, now)
        self.registry.dead_lettered += 1
        self.log.append(now, "dead_letter", event.target_key, reason=error)

    def dead_letters(self) -> list[DeadLetter]:
        return list(self._dead.values())

    def requeue_dead_letters(self, now: int) -> int:
        """Operator action after a bug fix: feed every dead letter back in."""
        letters = list(self._dead.values())
        self._dead.clear()
        for letter in letters:
            self.registry.requeued += 1
            self.log.append(now, "requeue", letter.event.target_key)
            self.enqueue(
                letter.event.target_key,
                letter.event.trigger,
                now,
                letter.event.source_update_time,
            )
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
        any; raises StoreUnavailable when a read fails."""
        for pkey in self.schema.parent_target_keys(sources):
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
        registry: MetricsRegistry,
        log: EventLog,
        clock: Clock,
        policy: RetryPolicy,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.registry = registry
        self.log = log
        self.clock = clock
        self.policy = policy
        self._parents = ParentGate(schema, target)

    def validate_and_fix(self, key: Key, now: int | None = None) -> FixOutcome:
        """Reconcile one target key against the latest source state.

        Never leaves the target older than it was: the only write path is
        the freshness-guarded conditional put, and a rejection there means
        somebody fresher already won.
        """
        now = self.clock.now if now is None else now
        self.registry.attempts_total += 1
        rule = self.schema.rule_for_target(key.etype)
        sources = read_group(rule, key.id, self.legacy.read)
        expected, verdicts, bug = self.schema.check_group(
            rule, sources, self.target.get, (key,), now
        )
        verdict = verdicts[key]
        if bug or verdict is None:
            self.registry.validation_failure += 1
            return FixOutcome(FixStatus.FAILED, bug or "unavailable")
        if verdict is DiscrepancyClass.CONSISTENT:
            self.registry.validation_success += 1
            return FixOutcome(FixStatus.ALREADY_CONSISTENT)
        self.registry.validation_failure += 1

        fix = expected.get(key)
        if fix is None:
            # Live data with no surviving source: bury it in place.  The
            # peek sees the record the check just read.
            actual = self.target.peek(key)
            if actual is None:
                raise InvariantError(f"{key}: absent on both sides yet inconsistent")
            fix = TargetRecord(key, {}, actual.provenance, True)

        if not fix.tombstone:
            try:
                missing = self._parents.missing(sources)
            except StoreUnavailable:
                self.registry.fix_failure += 1
                return FixOutcome(FixStatus.FAILED, "unavailable")
            if missing is not None:
                self.queue.enqueue(
                    missing, Trigger.DUALWRITE, now, fix_source_time(sources)
                )
                self.registry.fix_failure += 1
                return FixOutcome(FixStatus.FAILED, f"missing_parent: {missing}")

        try:
            result = self.target.put_if_fresher(fix)
        except StoreUnavailable:
            self.registry.fix_failure += 1
            return FixOutcome(FixStatus.FAILED, "unavailable")
        if not fix.tombstone:
            self._parents.note(key)
        if result is PutResult.STALE_REJECTED:
            # Freshness race resolved in the target's favor.
            self.registry.validation_success += 1
            return FixOutcome(FixStatus.ALREADY_CONSISTENT)
        self.registry.fix_success += 1
        return FixOutcome(FixStatus.FIXED)

    def process(self, now: int) -> ProcessReport:
        """Drain due events up to the rate limit; retry or dead-letter failures."""
        report = ProcessReport()
        for event in self.queue.pop_due(now, self.policy.rate_limit):
            report.processed += 1
            outcome = self.validate_and_fix(event.target_key, now)
            if outcome.status is FixStatus.FAILED:
                event.attempts += 1
                report.failed += 1
                if event.attempts >= self.policy.max_attempts:
                    self.queue.dead_letter(event, outcome.reason, now)
                    report.dead_lettered += 1
                else:
                    self.registry.retries += 1
                    due = now + self.policy.backoff(event.attempts)
                    self.queue.reschedule(event, due)
                    self.log.append(
                        now, "retry", event.target_key, attempts=event.attempts, due=due
                    )
                continue
            self.queue.finish(event)
            self.registry.dequeued += 1
            self.registry.in_queue_latency.add(now - event.enqueued_at)
            self.registry.pipeline_latency.add(now - event.source_update_time)
            if outcome.status is FixStatus.FIXED:
                report.fixed += 1
                self.log.append(now, "dequeue", event.target_key, res="fixed")
            else:
                report.consistent += 1
                self.log.append(now, "dequeue", event.target_key, res="consistent")
        return report


def fix_source_time(sources) -> int:
    """Age anchor for an event derived from a set of source records."""
    if not sources:
        return 0
    return max(rec.version.commit_time for rec in sources.values())
