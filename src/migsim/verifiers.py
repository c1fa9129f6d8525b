"""The four ingestion/verification triggers feeding the repair loop.

Bootstrap replays a snapshot at a controlled rate; nearline checks every
change-stream delivery; shadow reads piggyback on live reads; offline bulk
verification sweeps a source snapshot against the target and catches
whatever the online paths missed.  Each one maps and judges a rule group with `Schema.check_group`
(bootstrap uses its map step alone), which also decides what a group that
fails to map means; the trigger only acts on the outcome.  All four feed
the same validate-and-fix primitive, so the eventual repaired state never
depends on which trigger noticed first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Mapping

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
from .metrics import EventLog, MetricsRegistry, iter_groups
from .stores import ChangeEvent, LegacyStore, Snapshot, StoreUnavailable, TargetStore


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
    queue.  In queue mode every group just enqueues a validation event and
    the queue does the writing.
    """

    def __init__(
        self,
        schema: Schema,
        snapshot: Snapshot,
        target: TargetStore,
        queue: SelfHealingQueue,
        registry: MetricsRegistry,
        log: EventLog,
        mode: str = "direct",
        start_at: int = 0,
    ):
        if mode not in ("direct", "queue"):
            raise ValueError(f"unknown bootstrap mode {mode!r}")
        self.schema = schema
        self.snapshot = snapshot
        self.target = target
        self.queue = queue
        self.registry = registry
        self.log = log
        self.mode = mode
        self.start_at = start_at
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
        rank = {st: i for i, st in enumerate(self.schema.topo_order())}
        groups = list(iter_groups(self.schema, self.snapshot.records))
        groups.sort(key=lambda g: (min(rank[st] for st in g[0].source_types), g[1], g[0].name))
        return groups

    @property
    def done(self) -> bool:
        return self._cursor >= self.report.groups_total

    def step(self, now: int, limiter: RateLimiter) -> int:
        """Process as many groups as spare capacity covers; returns ops used."""
        if self.done or now < self.start_at:
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
        for record in expected.values():
            stale_record = TargetRecord(record.key, record.value, provenance, record.tombstone)
            self.registry.attempts_total += 1
            self.report.puts += 1
            try:
                self.target.put_if_fresher(stale_record)
            except StoreUnavailable:
                self._failed_sources.update(sources)
                self.report.put_failures += 1
                self.report.events_enqueued += 1
                self.queue.enqueue(
                    record.key, Trigger.BOOTSTRAP, now, fix_source_time(sources)
                )

    def _enqueue_group(self, rule, gid: str, sources, now: int) -> None:
        sut = fix_source_time(sources)
        for tkey in rule.target_keys(gid):
            self.report.events_enqueued += 1
            self.queue.enqueue(tkey, Trigger.BOOTSTRAP, now, sut)


class NearlineResult(str, Enum):
    VERIFIED = "verified"
    ENQUEUED = "enqueued"


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
        self.checked = 0
        self.mismatches = 0

    def on_delivery(self, event: ChangeEvent, now: int) -> None:
        self._due.append((now + self.settle_delay, event))

    def run_due(self, now: int) -> None:
        due = self._due
        while due and due[0][0] <= now:
            _, event = due.popleft()
            self.verify(event, now)

    def pending_count(self) -> int:
        return len(self._due)

    def verify(self, event: ChangeEvent, now: int) -> NearlineResult:
        """Compare every affected target key against freshly mapped sources."""
        self.checked += 1
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
            return NearlineResult.VERIFIED
        self.mismatches += 1
        self.log.append(now, "verify", skey, src="nearline", res="enqueued", n=len(bad))
        for tkey in sorted(set(bad)):
            self.queue.enqueue(tkey, Trigger.NEARLINE, now, commit_time)
        return NearlineResult.ENQUEUED


class ShadowOutcome(str, Enum):
    MATCH = "match"
    DISCREPANCY = "discrepancy"


@dataclass
class ShadowResult:
    outcome: ShadowOutcome
    detail: str = ""


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
        self.reads = 0
        self.discrepancies = 0

    def _may_alarm(self, skey: Key, now: int) -> bool:
        last = self._last_alarm.get(skey)
        if last is not None and now - last < self.alarm_interval:
            return False
        self._last_alarm[skey] = now
        return True

    def on_read(self, skey: Key, observed: SourceRecord, now: int) -> ShadowResult:
        """Compare the mapped view of an observed read against the target."""
        self.reads += 1
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
            return ShadowResult(ShadowOutcome.MATCH)
        self.discrepancies += 1
        detail = ",".join(sorted({reason for _, reason in bad}))
        self.log.append(now, "verify", skey, src="shadow", res=detail)
        if self._may_alarm(skey, now):
            sut = observed.version.commit_time
            for tkey, _ in sorted(set(bad)):
                self.queue.enqueue(tkey, Trigger.SHADOWREAD, now, sut)
        return ShadowResult(ShadowOutcome.DISCREPANCY, detail)


@dataclass
class OfflineReport:
    run_at: int
    snapshot_time: int
    cutoff: int
    scanned_groups: int = 0
    scanned_keys: int = 0
    skipped_recent_groups: int = 0
    counts: dict = field(default_factory=dict)
    enqueued: int = 0

    @property
    def consistency_rate(self) -> float:
        if not self.scanned_keys:
            return 1.0
        return self.counts.get(DiscrepancyClass.CONSISTENT.value, 0) / self.scanned_keys

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "counts": dict(sorted(self.counts.items())),
            "consistency_rate": self.consistency_rate,
        }

    def to_text(self) -> str:
        lines = [
            f"offline verification at t={self.run_at} "
            f"(snapshot t={self.snapshot_time}, cutoff {self.cutoff})",
            f"  scanned {self.scanned_keys} keys in {self.scanned_groups} groups, "
            f"skipped {self.skipped_recent_groups} recent groups",
        ]
        for name, count in sorted(self.counts.items()):
            lines.append(f"  {name:>16}: {count}")
        lines.append(f"  consistency rate: {self.consistency_rate:.6f}")
        return "\n".join(lines)


class OfflineVerifier:
    """Full sweep of a source snapshot against the target, feeding misses
    back to the queue."""

    def __init__(self, schema: Schema, queue: SelfHealingQueue, log: EventLog):
        self.schema = schema
        self.queue = queue
        self.log = log

    def run(
        self,
        source_snapshot: Snapshot,
        target_view: Mapping[Key, TargetRecord],
        cutoff: int,
        now: int,
    ) -> OfflineReport:
        """Scan groups whose newest update is older than the cutoff.

        The cutoff exists so an in-flight update racing the snapshot is
        never flagged; everything genuinely settled and wrong is enqueued.
        `target_view` may be the live target records: nothing writes the
        target during a sweep.  A group that fails to map counts its keys
        as "transform_error" and logs no verify line for them.
        """
        report = OfflineReport(now, source_snapshot.taken_at, cutoff)
        counts: dict[str, int] = {}
        horizon = source_snapshot.taken_at - cutoff
        read = source_snapshot.records.get
        get = target_view.get
        for rule, gid in iter_groups(self.schema, source_snapshot.records):
            # The horizon is checked before mapping: recent groups cost one
            # read per input key, not a transform.
            sources = read_group(rule, gid, read)
            newest = fix_source_time(sources)
            if newest > horizon:
                report.skipped_recent_groups += 1
                continue
            report.scanned_groups += 1
            _expected, verdicts, bug = self.schema.check_group(
                rule, sources, get, rule.target_keys(gid), now
            )
            for tkey, verdict in verdicts.items():
                report.scanned_keys += 1
                name = "transform_error" if bug else verdict.value
                counts[name] = counts.get(name, 0) + 1
                if verdict is not DiscrepancyClass.CONSISTENT:
                    report.enqueued += 1
                    self.queue.enqueue(tkey, Trigger.OFFLINE, now, newest)
                    if not bug:
                        self.log.append(now, "verify", tkey, src="offline", res=name)
        report.counts = counts
        self.log.append(
            now,
            "offline_done",
            scanned=report.scanned_keys,
            enqueued=report.enqueued,
            rate=round(report.consistency_rate, 6),
        )
        return report
