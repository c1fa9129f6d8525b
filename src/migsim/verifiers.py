"""The four ingestion/verification triggers feeding the repair loop.

Bootstrap replays a snapshot at a controlled rate; nearline checks every
change-stream delivery; shadow reads piggyback on live reads; offline bulk
verification sweeps every settled rule group and catches whatever the
online paths missed.  Each judges a group with `Schema.check_group`, which
also decides what a group that fails to map means (bootstrap maps only; the
offline sweep reads the verdicts `ConsistencyTracker` keeps), and acts on
the outcome.  All four feed the same validate-and-fix primitive, so the
eventual repaired state never depends on which trigger noticed first.

A trigger's outcome is recorded only in the event log (`verify`,
`enqueue`/`coalesce`, `bootstrap`, `put` and `offline_done` rows).
Bootstrap's `BootstrapReport` reaches `report.json`; the offline sweep
returns the two counts its `offline_done` row carries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass

from .domain import (
    BOOTSTRAP_COUNTER,
    DiscrepancyClass,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    VersionStamp,
    compare_records,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    map_source,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    read_group,
)
from .healing import SelfHealingQueue, Trigger, fix_source_time
from .metrics import ConsistencyTracker, EventLog, NoteWritten, iter_groups
from .stores import ChangeEvent, LegacyStore, PutResult, Snapshot, StoreUnavailable, TargetStore


class RateLimiter:
    """Per-tick capacity ledger with live traffic strictly above backfill.

    Live operations are recorded but never throttled here; backfill (and
    repair, which rides the same class) may only consume whatever the live
    class left unused in the current tick.
    """

    def __init__(self, capacity_per_tick: int):
        self.capacity_per_tick = capacity_per_tick
        self._tick = -1
        self.used_live = 0
        self.used_backfill = 0
        self.usage_trace: list[tuple[int, int, int]] = []

    def begin_tick(self, now: int) -> None:
        if self._tick >= 0 and (self.used_live or self.used_backfill):
            self.usage_trace.append((self._tick, self.used_live, self.used_backfill))
        self._tick = now
        self.used_live = 0
        self.used_backfill = 0

    def note_live(self, n: int = 1) -> None:
        self.used_live += n

    def spare(self) -> int:
        return max(0, self.capacity_per_tick - self.used_live - self.used_backfill)

    def try_backfill(self, cost: int) -> bool:
        """All-or-nothing backfill grant against the tick's spare capacity."""
        if cost > self.spare():
            return False
        self.used_backfill += cost
        return True

    def note_backfill(self, n: int) -> None:
        """Account repair operations, which ride the backfill class."""
        self.used_backfill += n

    def finish(self) -> None:
        if self._tick >= 0 and (self.used_live or self.used_backfill):
            self.usage_trace.append((self._tick, self.used_live, self.used_backfill))


@dataclass
class BootstrapReport:
    mode: str
    started_at: int | None = None
    finished_at: int | None = None
    groups_total: int = 0
    groups_processed: int = 0
    puts: int = 0
    put_failures: int = 0
    events_enqueued: int = 0

    @property
    def duration_ticks(self) -> int:
        if self.started_at is None or self.finished_at is None:
            return 0
        return self.finished_at - self.started_at + 1

    def as_dict(self) -> dict:
        return {**asdict(self), "duration_ticks": self.duration_ticks}


class BootstrapJob:
    """Rate-limited historical backfill from one snapshot.

    Groups are replayed in dependency order of their source types.  In
    direct mode each produced record is written with a snapshot-time
    default provenance stamp, so any later repair or dual write supersedes
    it; failed writes and groups that fail to map fall through to the
    queue.  A direct-mode group whose every record was accepted is passed
    to `note_written` (`ConsistencyTracker.note_written`) as of the
    snapshot: its default stamp covers every source version committed by
    then, so the group is as consistent as a dual write would leave it.  In
    queue mode every group just enqueues a validation event and the queue
    does the writing.
    """

    def __init__(
        self,
        schema: Schema,
        snapshot: Snapshot,
        target: TargetStore,
        queue: SelfHealingQueue,
        log: EventLog,
        note_written: NoteWritten,
        mode: str = "direct",
    ):
        if mode not in ("direct", "queue"):
            raise ValueError(f"unknown bootstrap mode {mode!r}")
        self.schema = schema
        self.snapshot = snapshot
        self.target = target
        self.queue = queue
        self.log = log
        self.note_written = note_written
        self.mode = mode
        self.report = BootstrapReport(mode=mode)
        # The snapshot and the group list are dropped once the job is done.
        self._groups: list[tuple] | None = self._ordered_groups()
        self.report.groups_total = len(self._groups)
        self._cursor = 0
        # Every direct-mode put carries this one bulk-load stamp.
        self._default_stamp = VersionStamp(BOOTSTRAP_COUNTER, snapshot.taken_at)
        # Source keys whose target projection may be incomplete: their own
        # put failed or they descend from one that did.  Their dependants
        # are routed through the queue, which gates writes on parents.
        self._failed_sources: set[Key] = set()

    def _ordered_groups(self) -> list[tuple]:
        rank = {st: i for i, st in enumerate(self.schema.source_order)}
        groups = list(iter_groups(self.schema, self.snapshot.records))
        groups.sort(key=lambda g: (min(rank[st] for st in g[0].source_types), g[1], g[0].name))
        return groups

    @property
    def done(self) -> bool:
        return self._cursor >= self.report.groups_total

    def step(self, now: int, limiter: RateLimiter) -> int:
        """Process as many groups as spare capacity covers; returns ops used."""
        if self.done:
            return 0
        if self.report.started_at is None:
            self.report.started_at = now
            self.log.append(now, "bootstrap", phase="start", groups=len(self._groups))
        used = 0
        while not self.done:
            rule, gid = self._groups[self._cursor]
            cost = len(rule.target_types) if self.mode == "direct" else 1
            if not limiter.try_backfill(cost):
                break
            self._cursor += 1
            self.report.groups_processed += 1
            used += cost
            sources = read_group(rule, gid, self.snapshot.records.get)
            if self.mode == "direct":
                self._direct_load(rule, gid, sources, now)
            else:
                self._enqueue_group(rule, gid, sources, now)
        if self.done and self.report.finished_at is None:
            self.report.finished_at = now
            self.log.append(
                now, "bootstrap", phase="end", groups=self.report.groups_processed,
                puts=self.report.puts, failures=self.report.put_failures,
            )
            self.snapshot = None
            self._groups = None
        return used

    def _direct_load(self, rule, gid: str, sources, now: int) -> None:
        parent_refs = set()
        for rec in sources.values():
            if not rec.tombstone:
                parent_refs.update(self.schema.parent_source_keys(rec))
        # A parent whose load is incomplete could let a live child land
        # ahead of it, and a group that fails to map has nothing to write:
        # either way the group goes through the queue.
        blocked = bool(parent_refs & self._failed_sources)
        if not blocked:
            expected, bug = self.schema.map_group(rule, sources, now)
            blocked = bool(bug)
        if blocked:
            self._failed_sources.update(sources)
            self._enqueue_group(rule, gid, sources, now)
            return
        default_stamp = self._default_stamp
        provenance = {rec.key: default_stamp for rec in sources.values()}
        accepted = 0
        for record in expected.values():
            stale_record = TargetRecord(record.key, record.value, provenance, record.tombstone)
            self.report.puts += 1
            try:
                accepted += self.target.put(stale_record, "backfill") is PutResult.ACCEPTED
            except StoreUnavailable:
                self._failed_sources.update(sources)
                self.report.put_failures += 1
                self.report.events_enqueued += 1
                self.queue.enqueue(
                    record.key, Trigger.BOOTSTRAP, now, fix_source_time(sources)
                )
        if accepted == len(rule.target_types):
            self.note_written(rule, gid, self.snapshot.taken_at)

    def _enqueue_group(self, rule, gid: str, sources, now: int) -> None:
        sut = fix_source_time(sources)
        for tkey in rule.target_keys(gid):
            self.report.events_enqueued += 1
            self.queue.enqueue(tkey, Trigger.BOOTSTRAP, now, sut)


class NearlineVerifier:
    """Checks each streamed change once the dual write has had time to land.

    Deliveries arrive in tick order and, within a tick, in sequence order,
    and all wait the same `settle_delay`, so the pending checks form a FIFO
    queue that comes due in delivery order.
    """

    def __init__(
        self,
        schema: Schema,
        legacy: LegacyStore,
        target: TargetStore,
        queue: SelfHealingQueue,
        log: EventLog,
        settle_delay: int,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.log = log
        self.settle_delay = settle_delay
        self._due: deque[tuple[int, ChangeEvent]] = deque()

    def on_delivery(self, event: ChangeEvent, now: int) -> None:
        self._due.append((now + self.settle_delay, event))

    def run_due(self, now: int) -> None:
        due = self._due
        while due and due[0][0] <= now:
            _, event = due.popleft()
            self.verify(event, now)

    def pending_count(self) -> int:
        return len(self._due)

    def verify(self, event: ChangeEvent, now: int) -> None:
        """Compare every affected target key against freshly mapped sources;
        log a verify row and enqueue every key not found consistent."""
        skey = event.key
        commit_time = event.new_version.commit_time
        bad: list[Key] = []
        for rule in self.schema.rules_for_source(skey.etype):
            sources = read_group(rule, skey.id, self.legacy.read)
            _expected, verdicts, _bug = self.schema.check_group(
                rule, sources, self.target.get, rule.target_keys(skey.id), now
            )
            for tkey, verdict in verdicts.items():
                # A key whose read failed is bad too: it cannot be confirmed,
                # so the queue looks at it.
                if verdict is not DiscrepancyClass.CONSISTENT:
                    bad.append(tkey)
        if not bad:
            self.log.append(now, "verify", skey, src="nearline", res="ok")
            return
        self.log.append(now, "verify", skey, src="nearline", res="enqueued", n=len(bad))
        for tkey in sorted(set(bad)):
            self.queue.enqueue(tkey, Trigger.NEARLINE, now, commit_time)


class ShadowReader:
    """Dry run of the switched read path, driven by live legacy reads."""

    def __init__(
        self,
        schema: Schema,
        legacy: LegacyStore,
        target: TargetStore,
        queue: SelfHealingQueue,
        log: EventLog,
        alarm_interval: int = 10,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.log = log
        self.alarm_interval = alarm_interval
        self._last_alarm: dict[Key, int] = {}

    def _may_alarm(self, skey: Key, now: int) -> bool:
        last = self._last_alarm.get(skey)
        if last is not None and now - last < self.alarm_interval:
            return False
        self._last_alarm[skey] = now
        return True

    def on_read(self, skey: Key, observed: SourceRecord, now: int) -> None:
        """Compare the mapped view of an observed read against the target; a
        mismatch logs a verify row naming its reasons and, at most once per
        alarm interval and key, enqueues the bad keys."""
        bad: list[tuple[Key, str]] = []
        for rule in self.schema.rules_for_source(skey.etype):
            def read(k: Key, _observed=observed) -> SourceRecord | None:
                return _observed if k == _observed.key else self.legacy.read(k)

            _expected, verdicts, bug = self.schema.check_group(
                rule, read_group(rule, skey.id, read), self.target.get,
                rule.target_keys(skey.id), now,
            )
            for tkey, verdict in verdicts.items():
                if verdict is not DiscrepancyClass.CONSISTENT:
                    reason = bug or ("unavailable" if verdict is None else verdict.value)
                    bad.append((tkey, reason))
        if not bad:
            return
        detail = ",".join(sorted({reason for _, reason in bad}))
        self.log.append(now, "verify", skey, src="shadow", res=detail)
        if self._may_alarm(skey, now):
            sut = observed.version.commit_time
            for tkey, _ in sorted(set(bad)):
                self.queue.enqueue(tkey, Trigger.SHADOWREAD, now, sut)


@dataclass
class OfflineReport:
    """What one sweep did, as its `offline_done` row also records it."""

    scanned_keys: int
    enqueued: int


class OfflineVerifier:
    """Bulk verification of every settled rule group against the target,
    read from the run's `ConsistencyTracker`; misses go back to the queue."""

    def __init__(self, tracker: ConsistencyTracker, queue: SelfHealingQueue, log: EventLog):
        self.tracker = tracker
        self.queue = queue
        self.log = log

    def run(self, now: int, cutoff: int) -> OfflineReport:
        """Enqueue each inconsistent key of the groups whose newest update is
        at or before `now - cutoff`; the cutoff keeps in-flight updates from
        being flagged, and a key's source update time is its group's newest
        update.  Every key of a group that fails to map is inconsistent and
        logs no `verify` row.  The sweep ends with one `offline_done` row."""
        scanned, groups = self.tracker.settled_inconsistencies(now, now - cutoff)
        enqueued = 0
        for newest, pairs, bug in groups:
            for tkey, verdict in pairs:
                enqueued += 1
                self.queue.enqueue(tkey, Trigger.OFFLINE, now, newest)
                if not bug:
                    self.log.append(now, "verify", tkey, src="offline", res=verdict.value)
        rate = (scanned - enqueued) / scanned if scanned else 1.0
        self.log.append(
            now, "offline_done", scanned=scanned, enqueued=enqueued, rate=round(rate, 6)
        )
        return OfflineReport(scanned, enqueued)
