"""Convergence metrics: the event log, settlement and TTC math.

Two measurement paths exist on purpose.  The trackers here are updated
online while a run executes; the oracle recomputes the same numbers from
the event log alone after the fact, and any disagreement is a bug.  In the
run, samples and the offline sweep read one `ConsistencyTracker`.  The
tracker maps a rule group again only when something may have changed its
verdict; a writer that has just left a group consistent says so with
`note_written`, so the group is not mapped twice.  The report's repair
counters and its `bootstrap`, `switch` and `dead_letters` figures come from
one pass over the log, `simulation.fold_log`.  Its samples stay online: they
keep full-precision rates and get their window TTC after the run, while a
`sample` row rounds its rates to 9 places.

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
from collections import Counter, namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import count, islice
from operator import add, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .domain import (
    DiscrepancyClass,
    InvariantError,
    Key,
    MappingRule,
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


# The export's JSON encoder: compact, sorted keys, ASCII only, and no
# circular-reference check (see `EventLog`).  The line writers below use it
# for what they do not spell themselves, and `_encode_line` spells a whole
# entry dict with it, the reference the writers are held to.
# `JSONEncoder.encode` builds a new C encoder on every call, so the C
# encoder it would build is made here once; where the C accelerator is
# missing, `iterencode` stands in for it and gives the same bytes.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
if json.encoder.c_make_encoder is None:
    def _c_encode(value, _level: int) -> Iterable[str]:
        return _LINE_ENCODER.iterencode(value)
else:
    _c_encode = json.encoder.c_make_encoder(
        None, _LINE_ENCODER.default, json.encoder.encode_basestring_ascii, None,
        _LINE_ENCODER.key_separator, _LINE_ENCODER.item_separator,
        _LINE_ENCODER.sort_keys, _LINE_ENCODER.skipkeys, _LINE_ENCODER.allow_nan,
    )


def _encode_line(entry: dict) -> str:
    return "".join(_c_encode(entry, 0))


# Lines the export hashes and writes at a time: few enough that the pass
# holds only a small slice of the export, many enough to amortise the hash
# and write calls.
EXPORT_BLOCK = 512


# The event-log format, declared once.  Per kind of row: whether it has a
# "key", then its required and its optional data fields, each with the type
# its rows hold.  A field is required when every row of the kind carries it.
_PROV, _STRINGS = dict[Key, VersionStamp], tuple[str, ...]
ROW_KINDS: dict[str, tuple[bool, dict, dict]] = {
    "commit": (True, {"cseq": int, "op": str, "ver": VersionStamp}, {"val": dict}),
    "put": (True, {"cls": str, "out": str}, {"prov": _PROV, "tomb": bool, "val": dict}),
    "reject_write": (True, {}, {}),
    "snapshot": (False, {"lut": int, "n": int, "taken": int}, {}),
    "sample": (False, {"age": int, "bound": int, "overall": float, "phase": str,
                       "qlen": int, "settled": float}, {}),
    "enqueue": (True, {"sut": int, "trig": str}, {}),
    "coalesce": (True, {"sut": int, "trig": str}, {}),
    "requeue": (True, {}, {}),
    "retry": (True, {"attempts": int, "due": int, "reason": str}, {}),
    "dequeue": (True, {"res": str}, {}),
    "dead_letter": (True, {"reason": str}, {}),
    "verify": (True, {"res": str, "src": str}, {"n": int}),
    "offline_done": (False, {"enqueued": int, "rate": float, "scanned": int}, {}),
    "bootstrap": (False, {"groups": int, "phase": str}, {}),  # groups to load, then loaded
    # Per act: "clearance" has cleared and reasons, "abort" why, and "flip"
    # discrepancies, lost, mode and window.
    "ramp": (False, {"act": str}, {"cleared": bool, "discrepancies": int, "lost": int,
                                   "mode": str, "reasons": _STRINGS, "why": str, "window": int}),
}


def _exact(value, cls: type):
    """`value` if its type is exactly `cls`: JSON `true` is not an int here."""
    if type(value) is not cls:
        raise TypeError(f"{value!r} is not {cls.__name__}")
    return value


def _typed(value, *types: type) -> tuple:
    """`value` if it is an array of one item of each of `types`, in order."""
    if type(value) not in (list, tuple) or tuple(map(type, value)) != types:
        raise TypeError(f"{value!r} is not an array of {', '.join(t.__name__ for t in types)}")
    return value


# The row value of each JSON array; a provenance map exports as its sorted
# (type, id, counter, commit time) rows.
_DECODE = {
    Key: lambda v: Key(*_typed(v, str, str)),
    VersionStamp: lambda v: VersionStamp(*_typed(v, int, int)),
    _PROV: lambda rows: {
        Key(et, gid): VersionStamp(c, ct)
        for et, gid, c, ct in (_typed(r, str, str, int, int) for r in _exact(rows, list))
    },
    _STRINGS: lambda v: tuple(_exact(s, str) for s in _exact(v, list)),
}


def _row_class(kind: str, keyed: bool, required: dict, optional: dict) -> type:
    """A kind's row class: a named tuple of "t", "key" if the kind has one,
    the required fields and the optional ones (None when absent), each sorted
    by name; with the `kind`, `optional` names, field `decoders` and its
    `line` writer."""
    fields = {"t": int} | ({"key": Key} if keyed else {})
    fields |= dict(sorted(required.items())) | dict(sorted(optional.items()))
    cls = namedtuple(kind, fields, defaults=(None,) * len(optional))
    cls.kind = kind
    cls.optional = tuple(sorted(optional))
    cls.decoders = {
        name: _DECODE.get(tp) or functools.partial(_exact, cls=tp) for name, tp in fields.items()
    }
    cls.line = _line_writer(cls, fields)
    return cls


# How a line writer spells a field of each declared type, as the export
# encoder would: Python source for the items it joins, over the field's
# variable `{v}`.  Keys, stamps, ints, bools and strings are spelled out;
# value maps, provenance rows, string tuples and floats (whose NaN and
# infinities JSON spells its own way) go through the C encoder.
_SPELLING = {
    int: "_int({v})",
    bool: "_BOOL[{v}]",
    str: "_esc({v})",
    Key: "'[', _esc({v}[0]), ',', _esc({v}[1]), ']'",
    VersionStamp: "'[', _int({v}[0]), ',', _int({v}[1]), ']'",
    float: "_join(_c_encode({v}, 0))",
    dict: "_join(_c_encode({v}, 0))",
    _STRINGS: "_join(_c_encode({v}, 0))",
    _PROV: "_join(_c_encode(sorted(map(_add, {v}, {v}.values())), 0))",
}
_WRITER_GLOBALS = {
    "_BOOL": ("false", "true"), "_EMPTY": "", "_add": add, "_c_encode": _c_encode,
    "_esc": json.encoder.encode_basestring_ascii, "_int": int.__repr__, "_join": "".join,
}


def _line_writer(cls: type, fields: dict) -> Callable[[tuple, int], str]:
    """The row class's line writer: `row.line(seq)` is the row's exported
    line, the same text as `_encode_line(_as_entry(seq, row))`.

    It is generated once per kind as one join of the fields in sorted name
    order, with "k" and "seq" in their places, each field's `"name":` label
    a constant and an optional field left out while it is None.  An
    optional field that sorts before every field a row always has carries
    its comma after it, not before."""
    types = fields | {"k": str, "seq": int}
    items, opened = ["'{'"], False
    for name in sorted(types):
        label = _LINE_ENCODER.encode(name) + ":"
        if name == "k":
            value = repr(_LINE_ENCODER.encode(cls.kind))
        else:
            value = _SPELLING[types[name]].format(v=name)
        if name not in cls.optional:
            items += [repr("," + label if opened else label), value]
            opened = True
        elif opened:
            items.append(f"(_EMPTY if {name} is None else _join(({',' + label!r}, {value})))")
        else:
            items.append(f"(_EMPTY if {name} is None else _join(({label!r}, {value}, ',')))")
    items.append("'}'")
    source = (
        f"def line(row, seq):\n"
        f"    {', '.join(cls._fields)}, = row\n"
        f"    return _join(({', '.join(items)}))\n"
    )
    namespace: dict = {}
    exec(source, dict(_WRITER_GLOBALS), namespace)
    return namespace["line"]


_ROW_CLASSES = {kind: _row_class(kind, *spec) for kind, spec in ROW_KINDS.items()}


def _as_entry(seq: int, row) -> dict:
    """One row as its entry dict: "seq", "t", "k", "key", the data, and a
    put's provenance map as its wire rows; absent optional fields are left
    out.  `EventLog.entries` decodes with it; the export spells each row
    with its class's `line` writer instead."""
    entry = dict(zip(row._fields, row), seq=seq, k=row.kind)
    for name in row.optional:
        if entry[name] is None:
            del entry[name]
    prov = entry.get("prov")
    if prov is not None:
        entry["prov"] = sorted([k + v for k, v in prov.items()])
    return entry


def _missing_conditional(row) -> list[str]:
    """The optional fields a row lacks that it must carry: "val" on a commit
    that is not a delete, "prov", "tomb" and "val" on an accepted put."""
    need = ()
    if row.kind == "commit" and row.op != "delete":
        need = ("val",)
    elif row.kind == "put" and row.out == "accepted":
        need = ("prov", "tomb", "val")
    return [name for name in need if getattr(row, name) is None]


class EventLog:
    """Append-only, totally ordered record of everything a run did.

    `ROW_KINDS` declares the format, and `append`, the export (each row
    class's `line` writer) and `parse_lines` all read it.  Each entry is one
    row of its kind's named tuple class: its tick, its key if the kind has
    one, then the kind's data fields.  So an unknown kind, an undeclared field or a missing required
    one raises at the `append` that makes it.  An entry's "seq" is its row
    index + 1 and its "k" is its row class's `kind`, so neither is stored.
    The oracle reads `rows` in place; `entries` decodes them for tests and
    debugging.

    The export is one compact, sorted-key JSON object per entry and line,
    each ending in a newline, without the optional fields a row lacks; the
    digest is over that export, so two runs with equal digests did
    byte-identical things.  Rows are decoded and serialized when the run
    ends, a block of lines at a time: `digest(path)` writes the export to
    `path` in the same pass that hashes it.  The runner makes that call in
    a helper process it forks after the last tick, while it runs the
    oracle itself (`simulation._exported`); no row changes after that tick.

    Rows share the run's own immutable objects instead of copying them: the
    `Key` under "key", a commit's `VersionStamp` under "ver", record value
    maps under "val", and a put's provenance under "prov" as the stored
    record's own `{Key: VersionStamp}` map.  Keys and stamps are tuples, so
    they export as the same JSON arrays a copy would; a put's `line` writer
    spells a provenance map as its sorted wire rows, and this module is the
    only one that knows that layout.  Value and provenance maps are never
    mutated after creation, so a shared map exports the bytes it had when it
    was logged.
    The guard is the copy `LegacyStore.commit` makes of the value it is
    given: every value the run maps or logs descends from such a copy, and
    transforms may pass one through but never change it.  Callers pass
    tuples, never lists, so no row holds a mutable sequence.

    Exported entries are acyclic by construction: they hold only strings,
    numbers, tuples, provenance lists and flat value maps.  So the encoder
    that spells value maps, provenance rows and string tuples skips the
    circular-reference check, which would otherwise keep an identity dict of
    every container it enters.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def append(self, t: int, kind: str, key: Key | None = None, **data) -> None:
        """Log one row; the field types are not checked here, where it is hot."""
        cls = _ROW_CLASSES[kind]
        self.rows.append(cls(t, **data) if key is None else cls(t, key, **data))

    @property
    def entries(self) -> list[dict]:
        """The entries as their export dicts, decoded when read; no run code
        reads them."""
        return list(map(_as_entry, count(1), self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def export_lines(self) -> Iterable[str]:
        return (row.line(seq) for seq, row in enumerate(self.rows, 1))

    def digest(self, path: str | Path | None = None) -> str:
        """sha256 of the export; the exported bytes also go to `path` if given.

        The export is hashed and written `EXPORT_BLOCK` lines at a time.  A
        run calls this in its export helper process, not in the process
        that ran the ticks; the result is the same in either."""
        h = hashlib.sha256()
        lines = self.export_lines()
        with open(path, "wb") if path is not None else nullcontext() as fh:
            while block := list(islice(lines, EXPORT_BLOCK)):
                block.append("")
                data = "\n".join(block).encode("utf-8")
                h.update(data)
                if fh is not None:
                    fh.write(data)
        return h.hexdigest()

    @staticmethod
    def parse_lines(lines: Iterable[str]) -> "EventLog":
        """Rows rebuilt as the run built them, each checked against its
        kind's declaration in `ROW_KINDS`.  Raises ValueError on a line that
        is not a JSON entry, whose kind is unknown, that has an undeclared
        field (a "key" on a keyless kind included), lacks a required field
        or has one of the wrong type, that lacks "val" on a commit that is
        not a delete or "prov", "tomb" or "val" on an accepted put, or whose
        "seq" is not its entry's position."""
        log = EventLog()
        for line in lines:
            if not line.strip():
                continue
            seq = len(log.rows) + 1
            entry = json.loads(line)
            try:
                found, kind = entry.pop("seq"), entry.pop("k")
                cls = _ROW_CLASSES[kind]
                decoders = cls.decoders
                row = cls(**{name: decoders[name](value) for name, value in entry.items()})
                missing = _missing_conditional(row)
                if missing:
                    raise KeyError(f"{kind} row without {', '.join(missing)}")
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"entry {seq} is malformed: {exc!r}") from exc
            if found != seq:
                raise ValueError(f"entry {seq} is out of sequence")
            log.rows.append(row)
        return log


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

    def unsettled_count(self) -> int:
        return self._unsettled

    def updates_as_pairs(self) -> list[tuple[int, int | None]]:
        """(commit_time, settle_time) per update, in commit order."""
        return list(zip(self._commit_times, self._settle_times))

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
    """Distinct (rule, group id) pairs present in a source view, in (rule
    name, group id) order."""
    by_tag = {(r.name, k.id): r for k in source_view for r in schema.rules_for_source(k.etype)}
    return [(by_tag[tag], tag[1]) for tag in sorted(by_tag)]


# `ConsistencyTracker.note_written` as the writers that call it see it:
# (rule, group id, as_of).
NoteWritten = Callable[[MappingRule, str, int], None]


class ConsistencyTracker:
    """Incremental consistency bookkeeping for samples and offline sweeps.

    Caches a verdict per rule group and re-evaluates only groups whose
    sources or targets changed since the last refresh, plus every group of
    the fault's rule whenever the fault switches on or off.  Produces
    exactly the numbers the full scan would, per-class counts included;
    tests hold it to that.  `peek_target` must draw no fault.  `mark_source`
    must see every commit, in nondecreasing commit time.  A group expects
    one key per target type of its rule from its first commit on, since
    sources are never removed, and none before.

    The dual writer and the direct-mode bootstrap have just mapped each
    group they write.  Once every output of a group came back accepted, the
    writer calls `note_written`, and the group's verdict is CONSISTENT
    without mapping it again.  That is exact: the store holds the very
    records the mapping produced, so `compare_records` finds equal values
    and tombstones.  A dual write's provenance is the sources' own
    versions.  A bootstrap record's default stamp `(BOOTSTRAP_COUNTER,
    taken_at)` is at least as fresh as every version committed by
    `taken_at`, as `at_least_as_fresh` orders a default against a commit.
    The healer writes one key of a group at a time and sends no note.
    """

    def __init__(self, schema: Schema, read_source, peek_target):
        self.schema = schema
        self._read = read_source
        self._peek = peek_target
        self._rules = {rule.name: rule for rule in schema.rules}
        self._dirty: set[tuple[str, str]] = set()
        # (inconsistent (target key, class) pairs in `target_keys` order, bug)
        # per group with any; a group that fails to map has all keys corrupt.
        self._bad: dict[tuple[str, str], tuple[list, str]] = {}
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
            self._dirty.add(tag)
            if self._last_update.pop(tag, None) is None:
                # The group's first commit: it expects every target key of
                # its rule from now on, since sources are never removed.
                self._total_expected += len(rule.target_types)
            self._last_update[tag] = commit_time

    def mark_target(self, tkey: Key) -> None:
        try:
            rule = self.schema.rule_for_target(tkey.etype)
        except UnknownTypeError:
            return
        self._dirty.add((rule.name, tkey.id))

    def note_written(self, rule: MappingRule, gid: str, as_of: int) -> None:
        """Take a writer's word that group `gid` of `rule` is consistent.

        The contract: every target key of the group now holds, accepted by
        the store, the record the group's sources map to as they stood at
        `as_of`, after every commit of that tick.  The group leaves the
        dirty set and its inconsistent keys are dropped; nothing is mapped.
        A note is refused, and the group stays dirty, when the group has a
        commit later than `as_of` (the writer's sources are stale) or
        belongs to the fault's rule, whose verdict depends on the instant
        it is mapped at.  Any later commit or accepted put marks the group
        dirty again.
        """
        tag = (rule.name, gid)
        fault = self.schema.fault
        if self._last_update[tag] > as_of or (fault is not None and fault.rule == rule.name):
            return
        self._dirty.discard(tag)
        old = self._bad.pop(tag, None)
        if old is not None:
            self._total_bad -= len(old[0])

    def _refresh(self, at: int) -> None:
        self._at = at
        fault = self.schema.fault
        if fault is not None and fault.active_at(at) != self._fault_active:
            self._fault_active = not self._fault_active
            # A group with no commit has no source, so no verdict to redo.
            self._dirty.update(tag for tag in self._last_update if tag[0] == fault.rule)
        consistent = DiscrepancyClass.CONSISTENT
        for tag in sorted(self._dirty):
            rule = self._rules[tag[0]]
            gid = tag[1]
            sources = read_group(rule, gid, self._read)
            if sources:
                _expected, verdicts, bug = self.schema.check_group(
                    rule, sources, self._peek, rule.target_keys(gid), at
                )
                bad = [pair for pair in verdicts.items() if pair[1] is not consistent]
            else:
                bad, bug = [], ""  # a group with no source expects nothing
            old, _bug = self._bad.pop(tag, ((), ""))
            if bad:
                self._bad[tag] = (bad, bug)
            self._total_bad += len(bad) - len(old)
        self._dirty.clear()

    def _recent(self, since: int) -> tuple[list[tuple[str, str]], int]:
        """Groups updated at or after `since`, and their expected keys in all."""
        recent, expected = [], 0
        rules = self._rules
        for tag, last_update in reversed(self._last_update.items()):
            if last_update < since:
                break
            recent.append(tag)
            expected += len(rules[tag[0]].target_types)
        return recent, expected

    def rates(self, at: int, staleness_bound: int) -> tuple[float, float, int, int]:
        """(overall, settled_only, expected_total, inconsistent_total) at `at`."""
        self._refresh(at)
        # A group is settled once at - last_update > staleness_bound, the
        # same test consistency_rate applies to its newest source.  The bound
        # moves between samples, so nothing is pruned.
        recent, recent_expected = self._recent(at - staleness_bound)
        recent_bad = sum(len(self._bad[tag][0]) for tag in recent if tag in self._bad)
        overall = (
            (self._total_expected - self._total_bad) / self._total_expected
            if self._total_expected
            else 1.0
        )
        settled_total = self._total_expected - recent_expected
        settled_bad = self._total_bad - recent_bad
        settled = (settled_total - settled_bad) / settled_total if settled_total else 1.0
        return overall, settled, self._total_expected, self._total_bad

    def settled_inconsistencies(self, at: int, horizon: int) -> tuple[int, list[tuple]]:
        """As of `at`, over the groups last updated at or before `horizon`:
        their expected keys in all, and (newest update, inconsistent (target
        key, class) pairs, bug) of each with any, by (rule name, group id)."""
        self._refresh(at)
        recent, recent_expected = self._recent(horizon + 1)
        bad = [(self._last_update[t], *self._bad[t]) for t in sorted(self._bad.keys() - recent)]
        return self._total_expected - recent_expected, bad

    def class_counts(self) -> dict[DiscrepancyClass, int]:
        """Expected target keys per class, as `consistency_rate` counts them,
        as of the last refresh (or tick 0 before any)."""
        self._refresh(self._at)
        counts = dict.fromkeys(DiscrepancyClass, 0)
        counts.update(Counter(verdict for pairs, _ in self._bad.values() for _, verdict in pairs))
        counts[DiscrepancyClass.CONSISTENT] = self._total_expected - self._total_bad
        return counts


def loop_gauges(queue, now: int) -> tuple[int, int]:
    """(queue length, age of the oldest data point still in the loop)."""
    length = len(queue)
    if length == 0:
        return 0, 0
    oldest = min(event.source_update_time for event in queue.pending())
    return length, now - oldest
