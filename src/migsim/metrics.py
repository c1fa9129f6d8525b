"""Convergence metrics: counters, the event log, settlement and TTC math.

Two measurement paths exist on purpose.  The registry and trackers here are
updated online while a run executes; the oracle recomputes the same numbers
from the event log alone after the fact, and any disagreement is a bug.

Definitions used throughout:

* settlement time of an update: earliest tick at which every target key the
  update affects holds provenance for that source key at least as fresh as
  the update itself.
* snapshot settlement at instant s: latest settlement time over all updates
  committed at or before s.
* time to converge (TTC) at s: snapshot settlement at s minus the last
  update time at s; over a window, the maximum across instants.
"""

from __future__ import annotations

import functools
import hashlib
import json
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import count
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .domain import (
    DiscrepancyClass,
    InvariantError,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    UnknownTypeError,
    VersionStamp,
    at_least_as_fresh,
    compare_records,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    read_group,
)

NOT_SETTLED = None  # sentinel spelled out where a settlement is still open


# One encoder for every exported line; `json.dumps` with keyword arguments
# would build a new encoder per call.  No circular-reference check: see
# `EventLog`.
_encode_line = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
).encode


@functools.cache
def _row_class(kind: str, fields: tuple[str, ...]) -> type:
    """The row class of one entry shape; `kind` is a class attribute."""
    cls = namedtuple("Row", fields)
    cls.kind = kind
    return cls


@functools.cache
def _row_shape(kind: str, has_key: bool, *names: str) -> tuple[type, Callable | None]:
    """The row class of an `append` call with keywords `names`, and the
    getter that lists its keyword values in the class's field order (None
    when the call already passes them in that order).

    A row holds "t", then "key" when the entry has one, then the data fields
    sorted by name, so a shape has one class whatever order its keywords
    come in.  Both caches hold a few dozen entries per run.
    """
    fields = sorted(names)
    cls = _row_class(kind, ("t", "key", *fields) if has_key else ("t", *fields))
    return cls, None if fields == list(names) else itemgetter(*fields)


def _as_entry(seq: int, row) -> dict:
    """One row as its exported entry: "seq", "t", "k", "key" and the data.

    A put's provenance map becomes its wire rows, (type, id, counter, commit
    time) each, sorted.
    """
    entry = dict(zip(row._fields, row), seq=seq, k=row.kind)
    prov = entry.get("prov")
    if prov is not None:
        entry["prov"] = sorted([k + v for k, v in prov.items()])
    return entry


def _frozen(value):
    """A parsed JSON value with its arrays as the tuples `append` is given."""
    return tuple(map(_frozen, value)) if type(value) is list else value


class _EntryView(Sequence):
    """Read-only view of a log's rows, each decoded into its entry dict when
    read.  For tests and debugging; the run reads rows."""

    def __init__(self, rows: list):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> dict:
        return _as_entry(range(len(self._rows))[index] + 1, self._rows[index])

    def __iter__(self) -> Iterator[dict]:
        return map(_as_entry, count(1), self._rows)


class EventLog:
    """Append-only, totally ordered record of everything a run did.

    Each entry is one row: a per-shape named tuple (see `_row_shape`) of its
    tick, its key if it has one and its data fields.  An entry's "seq" is its
    row index + 1 and its "k" is its row class's `kind`, so neither is
    stored.  The oracle reads `rows` in place; `entries` decodes them one at
    a time for tests and debugging.

    The export is one compact, sorted-key JSON object per entry and line,
    each ending in a newline; the digest is over that export, so two runs
    with equal digests did byte-identical things.  Rows stay unserialized
    until the run ends and are then decoded and serialized one at a time:
    `digest(path)` writes the export to `path` in the same pass that hashes
    it.

    Rows share the run's own immutable objects instead of copying them: the
    `Key` under "key", a commit's `VersionStamp` under "ver", record value
    maps under "val", and a put's provenance under "prov" as the stored
    record's own `{Key: VersionStamp}` map.  Keys and stamps are tuples, so
    they export as the same JSON arrays a copy would; `_as_entry` flattens a
    provenance map to its wire rows, and this module is the only one that
    knows that layout.  Value and provenance maps are never mutated after
    creation, so a shared map exports the bytes it had when it was logged.
    The guard is the copy `LegacyStore.commit` makes of the value it is
    given: every value the run maps or logs descends from such a copy, and
    transforms may pass one through but never change it.  Callers pass
    tuples, never lists, so no row holds a mutable sequence.

    Exported entries are acyclic by construction: they hold only strings,
    numbers, tuples, provenance lists and flat value maps.  So the export
    encoder skips the circular-reference check, which would otherwise keep
    an identity dict of every container it enters.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def append(self, t: int, kind: str, key: Key | None = None, **data) -> None:
        cls, pick = _row_shape(kind, key is not None, *data)
        values = data.values() if pick is None else pick(data)
        self.rows.append(
            tuple.__new__(cls, (t, *values) if key is None else (t, key, *values))
        )

    @property
    def entries(self) -> Sequence[dict]:
        """The entries as their export dicts, decoded when read; no run code
        reads them."""
        return _EntryView(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def export_lines(self) -> Iterable[str]:
        return map(_encode_line, map(_as_entry, count(1), self.rows))

    def digest(self, path: str | Path | None = None) -> str:
        """sha256 of the export; the exported bytes also go to `path` if given."""
        h = hashlib.sha256()
        with open(path, "wb") if path is not None else nullcontext() as fh:
            for line in self.export_lines():
                data = (line + "\n").encode("utf-8")
                h.update(data)
                if fh is not None:
                    fh.write(data)
        return h.hexdigest()

    @staticmethod
    def parse_lines(lines: Iterable[str]) -> "EventLog":
        """Rows rebuilt through `append`, shaped as the run built them: a
        `Key` under "key", a `VersionStamp` under "ver", a `{Key:
        VersionStamp}` map under "prov" and tuples for other arrays.  Raises
        ValueError on a line that is not a JSON entry of that shape or whose
        "seq" is not its entry's position."""
        log = EventLog()
        for line in lines:
            if not line.strip():
                continue
            seq = len(log.rows) + 1
            entry = json.loads(line)
            try:
                found = entry.pop("seq")
                t, kind, key = entry.pop("t"), entry.pop("k"), entry.pop("key", None)
                data = {name: _frozen(value) for name, value in entry.items()}
                if "ver" in data:
                    data["ver"] = VersionStamp(*data["ver"])
                if "prov" in data:
                    data["prov"] = {
                        Key(et, gid): VersionStamp(c, ct) for et, gid, c, ct in data["prov"]
                    }
                log.append(t, kind, None if key is None else Key(*key), **data)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"entry {seq} is malformed: {exc!r}") from exc
            if found != seq:
                raise ValueError(f"entry {seq} is out of sequence")
        return log


@dataclass
class Histogram:
    count: int = 0
    total: int = 0
    max_value: int = 0

    def add(self, value: int) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {"count": self.count, "mean": round(self.mean, 3), "max": self.max_value}


@dataclass
class MetricsRegistry:
    """Online counters and latency histograms for the repair loop."""

    enqueued: int = 0
    coalesced: int = 0
    dequeued: int = 0
    dead_lettered: int = 0
    requeued: int = 0
    validation_success: int = 0
    validation_failure: int = 0
    fix_success: int = 0
    fix_failure: int = 0
    retries: int = 0
    attempts_total: int = 0
    in_queue_latency: Histogram = field(default_factory=Histogram)
    pipeline_latency: Histogram = field(default_factory=Histogram)

    @property
    def queue_length(self) -> int:
        return self.enqueued - self.dequeued - self.dead_lettered

    def check_algebra(self) -> None:
        """Raise InvariantError unless the counters are mutually consistent."""
        if self.dequeued > self.enqueued:
            raise InvariantError(f"dequeued {self.dequeued} > enqueued {self.enqueued}")
        if self.queue_length < 0:
            raise InvariantError(f"queue length {self.queue_length} < 0")
        settled = self.fix_success + self.fix_failure + self.validation_success
        if settled < self.dequeued:
            raise InvariantError(
                f"fix_success + fix_failure + validation_success {settled}"
                f" < dequeued {self.dequeued}"
            )

    def counters_dict(self) -> dict:
        counters = {name: value for name, value in vars(self).items() if isinstance(value, int)}
        counters["queue_length"] = self.queue_length
        counters["in_queue_latency"] = self.in_queue_latency.as_dict()
        counters["pipeline_latency"] = self.pipeline_latency.as_dict()
        return counters


class SettlementTracker:
    """Streaming settlement times for every source update.

    Fed with commits and accepted target writes as they happen; answers
    settlement, unsettled counts, and window TTC questions at any point.
    Updates live in parallel lists, one slot per update in commit order;
    commits must arrive in nondecreasing commit time, as the virtual clock
    gives them.
    """

    def __init__(self, affected_targets: Callable[[Key], tuple[Key, ...]]):
        self._affected = affected_targets
        self._keys: list[Key] = []
        self._stamps: list[VersionStamp] = []
        self._commit_times: list[int] = []
        self._settle_times: list[int | None] = []
        self._waiting: list[int] = []  # affected targets not yet caught up
        # Open update slots per target key; a key is dropped once none is open.
        self._open_by_target: dict[Key, list[int]] = {}
        self._unsettled = 0
        # (source key, counter) -> slot, extended on lookup to the first
        # `_indexed` updates.
        self._index: dict[tuple[Key, int], int] = {}
        self._indexed = 0

    def on_commit(self, key: Key, stamp: VersionStamp) -> None:
        commit_time = stamp.commit_time
        if self._commit_times and commit_time < self._commit_times[-1]:
            raise InvariantError(
                f"commit of {key} at {commit_time} after one at {self._commit_times[-1]}"
            )
        targets = self._affected(key)
        idx = len(self._keys)
        self._keys.append(key)
        self._stamps.append(stamp)
        self._commit_times.append(commit_time)
        self._waiting.append(len(targets))
        if not targets:
            self._settle_times.append(commit_time)
            return
        self._settle_times.append(NOT_SETTLED)
        self._unsettled += 1
        open_by_target = self._open_by_target
        for tkey in targets:
            open_here = open_by_target.get(tkey)
            if open_here is None:
                open_by_target[tkey] = [idx]
            else:
                open_here.append(idx)

    def on_accepted_put(self, record: TargetRecord, now: int) -> None:
        open_here = self._open_by_target.get(record.key)
        if open_here is None:
            return
        provenance = record.provenance
        keys, stamps, waiting = self._keys, self._stamps, self._waiting
        still_open = []
        for idx in open_here:
            have = provenance.get(keys[idx])
            if have is None or not at_least_as_fresh(have, stamps[idx]):
                still_open.append(idx)
                continue
            waiting[idx] -= 1
            if waiting[idx] == 0:
                self._settle_times[idx] = now
                self._unsettled -= 1
        if still_open:
            self._open_by_target[record.key] = still_open
        else:
            del self._open_by_target[record.key]

    def settlement_time(self, key: Key, stamp: VersionStamp) -> int | None:
        """Ticks at which the update settled, or None if it never did."""
        for idx in range(self._indexed, len(self._keys)):
            self._index[(self._keys[idx], self._stamps[idx].counter)] = idx
        self._indexed = len(self._keys)
        idx = self._index.get((key, stamp.counter))
        if idx is None:
            raise KeyError(f"unknown update {key} v{stamp.counter}")
        return self._settle_times[idx]

    def unsettled_count(self) -> int:
        return self._unsettled

    def updates_as_pairs(self) -> list[tuple[int, int | None]]:
        """(commit_time, settle_time) per update, in commit order."""
        return list(zip(self._commit_times, self._settle_times))

    def window_ttc(self, t0: int, t1: int) -> int | None:
        return time_to_converge(self.updates_as_pairs(), t0, t1)

    def settled_latency_max(self, t0: int, t1: int) -> int:
        """Largest settle-commit gap over settled updates committed in (t0, t1].

        Causal staleness-bound input: unlike window TTC it ignores updates
        that have not settled yet, so stragglers do not inflate the bound
        (their failure to settle is exactly what the bound must expose).
        """
        commit_times = self._commit_times
        lo = bisect_right(commit_times, t0)
        hi = bisect_right(commit_times, t1, lo)
        worst = 0
        for commit, settle in zip(commit_times[lo:hi], self._settle_times[lo:hi]):
            if settle is not None and settle - commit > worst:
                worst = settle - commit
        return worst


def time_to_converge(
    updates: Iterable[tuple[int, int | None]], t0: int, t1: int
) -> int | None:
    """`window_ttcs` for the one window (t0, t1); None when unsettled."""
    return window_ttcs(updates, [(t0, t1)])[0]


def window_ttcs(
    updates: Iterable[tuple[int, int | None]], windows: Iterable[tuple[int, int]]
) -> list[int | None]:
    """Window TTC for every (t0, t1) window, t0 <= t1, from one pass over updates.

    After a stable sort by commit time, the TTC at instant s is the gap
    (latest settlement so far minus commit time) at the last update committed
    at or before s.  Within a run of equal commit times the last update has
    the largest gap, so a window's TTC is the largest gap from the update
    that t0 sees through the last update committed at or before t1.
    """
    pairs = sorted(updates, key=itemgetter(0))
    commits = [c for c, _ in pairs]
    gaps: list[int] = []  # one per update before the first unsettled one
    best = 0
    for c, s in pairs:
        if s is None:
            break
        if s > best:
            best = s
        gaps.append(best - c)
    out: list[int | None] = []
    for t0, t1 in windows:
        end = bisect_right(commits, t1)
        if end == 0:
            out.append(0)
        elif end > len(gaps):
            out.append(NOT_SETTLED)
        else:
            start = max(bisect_right(commits, t0, 0, end) - 1, 0)
            out.append(max(0, max(gaps[start:end])))
    return out


@dataclass
class ConsistencyReport:
    """One sampled view of convergence health."""

    at: int
    phase: str
    overall_rate: float
    settled_rate: float
    queue_length: int
    max_in_loop_age: int
    staleness_bound: int
    window_ttc: int | None = None
    expected_keys: int = 0
    inconsistent_keys: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def consistency_rate(
    schema: Schema,
    source_view: Mapping[Key, SourceRecord],
    target_view: Mapping[Key, TargetRecord],
    at: int,
    staleness_bound: int,
) -> tuple[float, float, dict[DiscrepancyClass, int]]:
    """Full-scan consistency over paired frozen views.

    Returns (overall, settled_only, per-class counts) where overall is the
    fraction of mapped expected target keys whose comparison is consistent
    and settled_only restricts to keys whose every contributing update is
    older than the staleness bound.  Empty expectations rate 1.0.  The
    schema's fault is applied as of `at`.
    """
    counts: dict[DiscrepancyClass, int] = {c: 0 for c in DiscrepancyClass}
    total = 0
    consistent = 0
    settled_total = 0
    settled_consistent = 0
    read = source_view.get
    get = target_view.get
    for rule, gid in iter_groups(schema, source_view):
        sources = read_group(rule, gid, read)
        _expected, verdicts, _bug = schema.check_group(
            rule, sources, get, rule.target_keys(gid), at
        )
        newest = max(rec.version.commit_time for rec in sources.values())
        settled = at - newest > staleness_bound
        for verdict in verdicts.values():
            counts[verdict] += 1
            total += 1
            ok = verdict is DiscrepancyClass.CONSISTENT
            consistent += ok
            if settled:
                settled_total += 1
                settled_consistent += ok
    overall = consistent / total if total else 1.0
    settled_only = settled_consistent / settled_total if settled_total else 1.0
    return overall, settled_only, counts


def iter_groups(
    schema: Schema, source_view: Mapping[Key, SourceRecord]
) -> Iterable[tuple]:
    """Distinct (rule, group id) pairs present in a source view, ordered."""
    seen: set[tuple[str, str]] = set()
    out = []
    for key in source_view:
        for rule in schema.rules_for_source(key.etype):
            tag = (rule.name, key.id)
            if tag not in seen:
                seen.add(tag)
                out.append((rule, key.id))
    out.sort(key=lambda pair: (pair[0].name, pair[1]))
    return out


class ConsistencyTracker:
    """Incremental consistency bookkeeping for cheap per-sample reports.

    Caches a verdict per rule group and re-evaluates only groups whose
    sources or targets changed since the last refresh, plus every group of
    the fault's rule whenever the fault switches on or off.  Produces
    exactly the numbers the full scan would, per-class counts included;
    tests hold it to that.  `mark_source` expects commit times in
    nondecreasing order, as the virtual clock gives them.
    """

    def __init__(self, schema: Schema, read_source, peek_target):
        self.schema = schema
        self._read = read_source
        self._peek = peek_target
        self._dirty: set[tuple[str, str]] = set()
        self._group_rule: dict[tuple[str, str], object] = {}
        self._expected_count: dict[tuple[str, str], int] = {}
        # The classes of each group's inconsistent keys, for groups that
        # have any; a group that fails to map counts as corrupt, as in the
        # full scan.
        self._bad_classes: dict[tuple[str, str], tuple[DiscrepancyClass, ...]] = {}
        self._class_totals: dict[DiscrepancyClass, int] = {c: 0 for c in DiscrepancyClass}
        # Newest commit time per group, kept in commit order so that the
        # groups still inside any staleness bound form a suffix.
        self._last_update: dict[tuple[str, str], int] = {}
        self._total_expected = 0
        self._total_bad = 0
        # The instant of the last refresh, and whether the fault was active
        # then: cached verdicts of its rule hold only while that lasts.
        self._at = 0
        self._fault_active = False

    def mark_source(self, skey: Key, commit_time: int) -> None:
        for rule in self.schema.rules_for_source(skey.etype):
            tag = (rule.name, skey.id)
            self._group_rule[tag] = rule
            self._dirty.add(tag)
            self._last_update.pop(tag, None)
            self._last_update[tag] = commit_time

    def mark_target(self, tkey: Key) -> None:
        try:
            rule = self.schema.rule_for_target(tkey.etype)
        except UnknownTypeError:
            return
        tag = (rule.name, tkey.id)
        self._group_rule[tag] = rule
        self._dirty.add(tag)

    def _refresh(self, at: int) -> None:
        self._at = at
        fault = self.schema.fault
        if fault is not None and fault.active_at(at) != self._fault_active:
            self._fault_active = not self._fault_active
            self._dirty.update(tag for tag in self._group_rule if tag[0] == fault.rule)
        consistent = DiscrepancyClass.CONSISTENT
        totals = self._class_totals
        for tag in sorted(self._dirty):
            rule = self._group_rule[tag]
            gid = tag[1]
            sources = read_group(rule, gid, self._read)
            if sources:
                _expected, verdicts, _bug = self.schema.check_group(
                    rule, sources, self._peek, rule.target_keys(gid), at
                )
                n_expected = len(verdicts)
                bad = [verdict for verdict in verdicts.values() if verdict is not consistent]
            else:
                n_expected, bad = 0, []  # a group with no source expects nothing
            self._total_expected += n_expected - self._expected_count.get(tag, 0)
            self._expected_count[tag] = n_expected
            old = self._bad_classes.pop(tag, ())
            for verdict in old:
                totals[verdict] -= 1
            for verdict in bad:
                totals[verdict] += 1
            if bad:
                self._bad_classes[tag] = tuple(bad)
            self._total_bad += len(bad) - len(old)
        self._dirty.clear()

    def rates(self, at: int, staleness_bound: int) -> tuple[float, float, int, int]:
        """(overall, settled_only, expected_total, inconsistent_total) at `at`."""
        self._refresh(at)
        # A group is settled once at - last_update > staleness_bound, the
        # same test consistency_rate applies to its newest source.  The bound
        # moves between samples, so nothing is pruned.
        cutoff = at - staleness_bound
        recent_expected = recent_bad = 0
        for tag, last_update in reversed(self._last_update.items()):
            if last_update < cutoff:
                break
            recent_expected += self._expected_count.get(tag, 0)
            recent_bad += len(self._bad_classes.get(tag, ()))
        overall = (
            (self._total_expected - self._total_bad) / self._total_expected
            if self._total_expected
            else 1.0
        )
        settled_total = self._total_expected - recent_expected
        settled_bad = self._total_bad - recent_bad
        settled = (settled_total - settled_bad) / settled_total if settled_total else 1.0
        return overall, settled, self._total_expected, self._total_bad

    def class_counts(self) -> dict[DiscrepancyClass, int]:
        """Expected target keys per class, as `consistency_rate` counts them,
        as of the last `rates` call (or tick 0 before any)."""
        self._refresh(self._at)
        counts = dict(self._class_totals)
        counts[DiscrepancyClass.CONSISTENT] = self._total_expected - self._total_bad
        return counts


def loop_gauges(queue, now: int) -> tuple[int, int]:
    """(queue length, age of the oldest data point still in the loop)."""
    length = len(queue)
    if length == 0:
        return 0, 0
    oldest = min(event.source_update_time for event in queue.pending())
    return length, now - oldest
