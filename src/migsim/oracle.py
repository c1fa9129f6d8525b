"""Brute-force recomputation of a run's claims from its event log alone.

The oracle replays the log from scratch: final source and target states,
per-update settlement times, window TTC at every sample, the queue length
trajectory, lost updates at the flip, and dependency-order violations.  It
shares only the definitional primitives with the online path: the schema's
rules and key relations, `map_source`, freshness order and record compare.
Every aggregate is derived independently and any disagreement with the run
report is flagged.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import domain
from .domain import (
    DiscrepancyClass,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    VersionStamp,
    at_least_as_fresh,
    compare_records,
    read_group,
)
from .scenario import Scenario

if TYPE_CHECKING:
    from .metrics import EventLog


@dataclass
class OracleCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class OracleReport:
    checks: list[OracleCheck] = field(default_factory=list)
    final_counts: dict = field(default_factory=dict)
    lost_updates: int | None = None
    ordering_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(OracleCheck(name, ok, detail))

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "final_counts": dict(sorted(self.final_counts.items())),
            "lost_updates": self.lost_updates,
            "ordering_violations": self.ordering_violations[:20],
        }

    def to_text(self) -> str:
        lines = [f"oracle: {'PASS' if self.ok else 'FAIL'}"]
        for check in self.checks:
            mark = "ok " if check.ok else "BAD"
            detail = f"  ({check.detail})" if check.detail else ""
            lines.append(f"  [{mark}] {check.name}{detail}")
        if self.final_counts:
            lines.append(f"  final diff counts: {dict(sorted(self.final_counts.items()))}")
        return "\n".join(lines)


def _source_record(row) -> SourceRecord:
    """The source record a commit row wrote."""
    if row.op == "delete":
        return SourceRecord(row.key, {}, row.ver, True)
    return SourceRecord(row.key, row.val, row.ver, False)


def _target_record(row) -> TargetRecord:
    """The target record an accepted put row wrote."""
    return TargetRecord(row.key, row.val, row.prov, row.tomb)


def _is_migration_put(row) -> bool:
    """An accepted freshness-guarded put: native writes after a flip are not
    migration writes."""
    return row.kind == "put" and row.out == "accepted" and row.cls != "native"


class _TargetView(Mapping):
    """Read-only target state over the last accepted put row per key.

    Each lookup wraps the row's own value and provenance maps in a fresh
    `TargetRecord`, so records live only as long as the check that reads
    them.
    """

    def __init__(self, last: dict[Key, tuple]):
        self._last = last

    def __getitem__(self, key: Key) -> TargetRecord:
        return _target_record(self._last[key])

    def get(self, key: Key, default=None):
        row = self._last.get(key)
        return default if row is None else _target_record(row)

    def __iter__(self):
        return iter(self._last)

    def __len__(self) -> int:
        return len(self._last)

    def keys(self):
        return self._last.keys()


class LogReplay:
    """Order-preserving index into an event log's rows.

    Commits and migration puts stay the log's own rows and are decoded only
    where a check reads them.
    """

    def __init__(self, log: EventLog):
        self.rows = log.rows
        self.commits: list[tuple] = []
        self.migration_puts: list[tuple] = []
        self.flip_time: int | None = None
        for row in self.rows:
            kind = row.kind
            if kind == "commit":
                self.commits.append(row)
            elif _is_migration_put(row):
                self.migration_puts.append(row)
            elif kind == "ramp" and row.act == "flip":
                self.flip_time = row.t

    def source_state(self, before: int | None = None) -> dict[Key, SourceRecord]:
        """The last commit per key before `before`, decoded."""
        last: dict[Key, tuple] = {}
        for row in self.commits:
            if before is None or row.t < before:
                last[row.key] = row
        return {key: _source_record(row) for key, row in last.items()}

    def target_state(self, before: int | None = None) -> Mapping[Key, TargetRecord]:
        """The last accepted migration put per key before `before`."""
        last: dict[Key, tuple] = {}
        for row in self.migration_puts:
            if before is None or row.t < before:
                last[row.key] = row
        return _TargetView(last)


def _first_covering_put(puts: list[tuple], skey: Key, stamp: VersionStamp) -> int | None:
    """Time of the first put whose provenance for `skey` is at least as
    fresh as `stamp`."""
    for row in puts:
        have = row.prov.get(skey)
        if have is not None and at_least_as_fresh(have, stamp):
            return row.t
    return None


def settlement_times(
    replay: LogReplay, schema: Schema
) -> dict[tuple[str, str, int], int | None]:
    """Per-update settlement, recomputed by scanning accepted puts.

    An update settles when every affected target key first holds provenance
    for that source key at least as fresh as the update; an update with no
    affected targets settles at its own commit.
    """
    puts_by_target: dict[Key, list[tuple]] = {}
    for row in replay.migration_puts:
        puts_by_target.setdefault(row.key, []).append(row)
    out: dict[tuple[str, str, int], int | None] = {}
    for row in replay.commits:
        skey, stamp = row.key, row.ver
        worst: int | None = stamp.commit_time
        for tkey in schema.affected_targets(skey):
            found = _first_covering_put(puts_by_target.get(tkey, ()), skey, stamp)
            if found is None:
                worst = None
                break
            worst = max(worst, found)
        out[(skey.etype, skey.id, stamp.counter)] = worst
    return out


def settlement_prefix(
    pairs: Iterable[tuple[int, int | None]],
) -> tuple[list[int], list[int]]:
    """Commit times in commit order, and the latest settlement over each
    prefix, up to (not including) the first unsettled update."""
    relevant = sorted(pairs, key=lambda p: p[0])
    commits = [c for c, _ in relevant]
    prefix: list[int] = []
    best = 0
    for _, s in relevant:
        if s is None:
            break
        best = max(best, s)
        prefix.append(best)
    return commits, prefix


def window_ttc_per_tick(
    commits: list[int], prefix: list[int], t0: int, t1: int
) -> int | None:
    """Per-tick evaluation of the window TTC definition.

    For every instant s in [t0, t1]: snapshot settlement (latest settlement
    over updates committed at or before s) minus last update time at s.
    Undefined (None) when any update committed by t1 never settled.
    """
    end = bisect_right(commits, t1)
    if end == 0:
        return 0
    if end > len(prefix):
        return None
    worst = 0
    for s_at in range(t0, t1 + 1):
        idx = bisect_right(commits, s_at, 0, end)
        if idx == 0:
            continue
        worst = max(worst, prefix[idx - 1] - commits[idx - 1])
    return worst


def window_ttc_bruteforce(
    pairs: list[tuple[int, int | None]], t0: int, t1: int
) -> int | None:
    """Window TTC of (commit_time, settle_time) pairs, evaluated per tick."""
    return window_ttc_per_tick(*settlement_prefix(pairs), t0, t1)


def ordering_violations(replay: LogReplay, schema: Schema) -> list[dict]:
    """Live child target writes whose parent target record did not exist yet.

    One pass over the rows in log order: each commit updates the source
    state, each migration put is judged against the targets written before
    it.
    """
    violations: list[dict] = []
    source: dict[Key, SourceRecord] = {}
    target_present: set[Key] = set()
    for row in replay.rows:
        if row.kind == "commit":
            source[row.key] = _source_record(row)
            continue
        if not _is_migration_put(row):
            continue
        tkey = row.key
        if not row.tomb:
            rule = schema.rule_for_target(tkey.etype)
            inputs = {
                k: rec
                for k in rule.input_keys(tkey.id)
                if (rec := source.get(k)) is not None
            }
            for pkey in schema.parent_target_keys(inputs):
                if pkey not in target_present:
                    violations.append(
                        {"t": row.t, "child": list(tkey), "missing_parent": list(pkey)}
                    )
        target_present.add(tkey)
    return violations


def final_diff(
    schema: Schema,
    source_state: Mapping[Key, SourceRecord],
    target_state: Mapping[Key, TargetRecord],
) -> tuple[dict[str, int], int]:
    """Classify every expected key; count live target-only extras separately.

    A group's expected records are its rule applied to its present sources,
    without the schema's fault.  Groups are walked in no particular order:
    the counts do not depend on it.
    """
    gids: dict[str, set[str]] = {rule.name: set() for rule in schema.rules}
    for skey in source_state:
        for rule in schema.rules_for_source(skey.etype):
            gids[rule.name].add(skey.id)
    counts: dict[str, int] = {}
    expected_keys: set[Key] = set()
    read = source_state.get
    for rule in schema.rules:
        for gid in gids[rule.name]:
            # Through the module, so that bench/tracing.py, which wraps
            # `domain.map_source`, counts these calls too.
            for exp in domain.map_source(rule, read_group(rule, gid, read)):
                expected_keys.add(exp.key)
                verdict = compare_records(exp, target_state.get(exp.key)).value
                counts[verdict] = counts.get(verdict, 0) + 1
    extras = sum(
        1 for tkey in target_state.keys() - expected_keys if not target_state[tkey].tombstone
    )
    return counts, extras


def queue_lengths_at_samples(replay: LogReplay) -> list[tuple[int, int, int]]:
    """(sample time, sampled length, replayed length) per sample row."""
    out = []
    length = 0
    for row in replay.rows:
        kind = row.kind
        if kind == "enqueue":
            length += 1
        elif kind == "dequeue" or kind == "dead_letter":
            length -= 1
        elif kind == "sample":
            out.append((row.t, row.qlen, length))
    return out


def oracle_verify(
    log: EventLog, scenario: Scenario, report: dict | None = None
) -> OracleReport:
    """Recompute everything checkable from the log; flag report disagreements."""
    schema = scenario.build_schema()
    replay = LogReplay(log)
    result = OracleReport()

    cutoff = replay.flip_time
    source_state = replay.source_state(before=cutoff)
    target_state = replay.target_state(before=cutoff)
    counts, extras = final_diff(schema, source_state, target_state)
    result.final_counts = dict(counts)
    if extras:
        result.final_counts["live_extras"] = extras
    bad = sum(n for cls, n in counts.items() if cls != DiscrepancyClass.CONSISTENT.value)

    resurrections = counts.get(DiscrepancyClass.RESURRECTION.value, 0)
    result.add(
        "no final resurrections", resurrections == 0, f"resurrections={resurrections}"
    )
    result.add("no live unexpected extras", extras == 0, f"extras={extras}")

    settles = settlement_times(replay, schema)
    commit_pairs = []
    for row in replay.commits:
        etype, sid = row.key
        counter, commit_time = row.ver
        commit_pairs.append((commit_time, settles[(etype, sid, counter)]))

    # Sampled window TTC, recomputed per tick.
    if report is not None:
        commits, prefix = settlement_prefix(commit_pairs)
        mismatches = []
        for sample in report.get("samples", []):
            got = window_ttc_per_tick(
                commits,
                prefix,
                sample["at"] - scenario.metrics.ttc_window,
                sample["at"],
            )
            if got != sample["window_ttc"]:
                mismatches.append((sample["at"], sample["window_ttc"], got))
        result.add(
            "window TTC matches report",
            not mismatches,
            f"{len(mismatches)} mismatches" + (f", first {mismatches[0]}" if mismatches else ""),
        )

    # Queue length trajectory vs sampled gauge.
    qlen_rows = queue_lengths_at_samples(replay)
    qlen_bad = [(t, sampled, replayed) for t, sampled, replayed in qlen_rows if sampled != replayed]
    result.add(
        "queue length matches log replay",
        not qlen_bad,
        f"{len(qlen_bad)} mismatches" + (f", first {qlen_bad[0]}" if qlen_bad else ""),
    )

    # Dependency ordering over the whole trace.
    violations = ordering_violations(replay, schema)
    result.ordering_violations = violations
    result.add("dependency order respected", not violations, f"{len(violations)} violations")

    if replay.flip_time is not None:
        lost = sum(1 for s in settles.values() if s is None or s > replay.flip_time)
        result.lost_updates = lost
        if report is not None and report.get("switch"):
            claimed = report["switch"]["lost_updates"]
            result.add(
                "lost updates match report", lost == claimed, f"oracle={lost} report={claimed}"
            )
            claimed_disc = report["switch"]["post_switch_discrepancies"]
            result.add(
                "post-switch diff matches report",
                bad == claimed_disc,
                f"oracle={bad} report={claimed_disc}",
            )
    elif report is not None:
        total = sum(counts.values())
        overall = (total - bad) / total if total else 1.0
        claimed_overall = report.get("final_overall", 1.0)
        result.add(
            "final consistency matches report",
            abs(overall - claimed_overall) < 1e-12,
            f"oracle={overall:.9f} report={claimed_overall:.9f}",
        )

    return result
