"""Brute-force recomputation of a run's claims from its event log alone.

`LogReplay` reads the log's rows once, in log order, and keeps what every
check needs: the commits, the final source and target states, the accepted
puts per target key, the replayed queue length at each sample and the
dependency-order violations.  From those the oracle recomputes the final
diff, per-update settlement times, window TTC at every sample, and lost
updates at the flip.  It shares only the definitional primitives with the
online path: the schema's rules and key relations, the injected bug's
`broken_source`, `map_source`, freshness order and record compare.  Every
aggregate is derived independently and any disagreement with the run report
is flagged.  That includes the validate-and-fix attempts and the downtime
the switch-over claims: writes may be rejected only while they are frozen,
and the report must state that window and those writes.
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
    MappingRule,
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

# Builds a named tuple from its fields without the Python-level `__new__`.
_tuple_new = tuple.__new__


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


class LogReplay:
    """The oracle's one pass over an event log's rows, in log order.

    It keeps the commit rows; the accepted puts per target key; `source`,
    the last commit per key decoded into a `SourceRecord`; `target`, the
    last accepted put row per key; `queue_lengths`, a (time, sampled,
    replayed) queue length per sample row; `queue_below_zero`, the first
    (time, replayed length) at which that length fell below zero, if it
    ever did; and `ordering_violations`, each live child put whose parent
    target key no earlier put wrote, judged against the source as committed
    by then.  The flip ends a run, so the end state is the state at the flip.

    Of the switch-over it keeps `write_freeze`, the tick of the write
    freeze; `ramp_end`, the tick of the flip or abort; and `rejected_at`,
    the tick of each rejected write.  `attempts` counts the validate-and-fix
    attempts: each direct bootstrap load ends in one `backfill` put, and
    each queued attempt in one `dequeue`, `retry` or `dead_letter` row.
    """

    def __init__(self, log: EventLog, schema: Schema):
        self.commits: list[tuple] = []
        self.puts: dict[Key, list[tuple]] = {}
        self.source: dict[Key, SourceRecord] = {}
        self.target: dict[Key, tuple] = {}
        self.queue_lengths: list[tuple[int, int, int]] = []
        self.queue_below_zero: tuple[int, int] | None = None
        self.ordering_violations: list[dict] = []
        self.flip_time: int | None = None
        self.write_freeze: int | None = None
        self.ramp_end: int | None = None
        self.rejected_at: list[int] = []
        commits, puts, source, target = self.commits, self.puts, self.source, self.target
        check_parents = self._check_parents
        attempts = qlen = 0
        for row in log.rows:
            kind = row.kind
            if kind == "commit":
                commits.append(row)
                key = row.key
                if row.op == "delete":
                    source[key] = _tuple_new(SourceRecord, (key, {}, row.ver, True))
                else:
                    source[key] = _tuple_new(SourceRecord, (key, row.val, row.ver, False))
            elif kind == "put":
                attempts += row.cls == "backfill"
                if row.out == "accepted":
                    key = row.key
                    if not row.tomb:
                        check_parents(row, schema)
                    target[key] = row
                    have = puts.get(key)
                    if have is None:
                        puts[key] = [row]
                    else:
                        have.append(row)
            elif kind == "enqueue":
                qlen += 1
            elif kind == "dequeue" or kind == "dead_letter":
                attempts += 1
                qlen -= 1
                if qlen < 0 and self.queue_below_zero is None:
                    self.queue_below_zero = (row.t, qlen)
            elif kind == "retry":
                attempts += 1
            elif kind == "sample":
                self.queue_lengths.append((row.t, row.qlen, qlen))
            elif kind == "reject_write":
                self.rejected_at.append(row.t)
            elif kind == "ramp":
                act = row.act
                if act == "write_freeze":
                    self.write_freeze = row.t
                elif act == "flip" or act == "abort":
                    self.ramp_end = row.t
                    if act == "flip":
                        self.flip_time = row.t
        self.attempts = attempts

    def _check_parents(self, row, schema: Schema) -> None:
        """Note the parent target keys of a live put that no earlier put
        wrote.  Each parent is looked up straight from the input records'
        references; only a put with one missing is derived again, as
        `parent_target_keys` orders its parents."""
        gid = row.key.id
        source, target = self.source, self.target
        # A plain (type, id) tuple finds the `Key` equal to it.
        for stype, field_name, ttypes in schema.parent_refs(row.key.etype):
            rec = source.get((stype, gid))
            if rec is None or rec.tombstone:
                continue
            ref = rec.value.get(field_name)
            if ref is not None:
                for tt in ttypes:
                    if (tt, ref) not in target:
                        self._note_missing_parents(row, schema)
                        return

    def _note_missing_parents(self, row, schema: Schema) -> None:
        tkey = row.key
        source = self.source
        inputs = {
            k: rec
            for k in schema.rule_for_target(tkey.etype).input_keys(tkey.id)
            if (rec := source.get(k)) is not None
        }
        for pkey in schema.parent_target_keys(inputs):
            if pkey not in self.target:
                self.ordering_violations.append(
                    {"t": row.t, "child": list(tkey), "missing_parent": list(pkey)}
                )


def _first_covering_put(puts: list[tuple], skey: Key, stamp: VersionStamp) -> int | None:
    """Time of the first put whose provenance for `skey` is at least as
    fresh as `stamp`."""
    for row in puts:
        have = row.prov.get(skey)
        if have is not None and at_least_as_fresh(have, stamp):
            return row.t
    return None


def settlement_times(replay: LogReplay, schema: Schema) -> list[int | None]:
    """Per-update settlement in commit order, recomputed by scanning puts.

    An update settles when every affected target key first holds provenance
    for that source key at least as fresh as the update; an update with no
    affected targets settles at its own commit.
    """
    out: list[int | None] = []
    for row in replay.commits:
        skey, stamp = row.key, row.ver
        worst: int | None = stamp.commit_time
        for tkey in schema.affected_targets(skey):
            found = _first_covering_put(replay.puts.get(tkey, ()), skey, stamp)
            if found is None:
                worst = None
                break
            worst = max(worst, found)
        out.append(worst)
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


def _final_groups(
    schema: Schema, source: Mapping[Key, SourceRecord]
) -> Iterable[tuple[MappingRule, str, dict[Key, SourceRecord]]]:
    """Each (rule, group id, present sources) group of the final source
    state once: a group of a one-input rule straight from its one record,
    any other through `read_group` once all its ids are known."""
    several: dict[MappingRule, set[str]] = {}
    for skey, rec in source.items():
        for rule in schema.rules_for_source(skey.etype):
            if len(rule.source_types) == 1:
                yield rule, skey.id, {skey: rec}
            else:
                several.setdefault(rule, set()).add(skey.id)
    read = source.get
    for rule, gids in several.items():
        for gid in gids:
            yield rule, gid, read_group(rule, gid, read)


def final_diff(
    schema: Schema,
    source: Mapping[Key, SourceRecord],
    target: Mapping[Key, tuple],
    last: int,
) -> tuple[dict[str, int], int, dict[str, int]]:
    """Classify every expected key against the last put row per target key;
    count live target-only extras separately; and count the keys as the run
    classifies them at its `last` tick.

    A group's expected records are its rule applied to its present sources,
    without the schema's fault.  The run cannot map a group that the fault
    breaks at its last tick, so it counts every target key of that group
    corrupt, as `consistency_rate` does; its other groups it classifies as
    here.  Groups are walked in no particular order: the counts do not
    depend on it.  A put row is judged as the record it wrote, by
    `compare_records`.  Each expected key is its own target key, so the
    extras are the live target rows less those under an expected key.
    """
    counts: dict[str, int] = {}
    run_counts: dict[str, int] = {}
    corrupt = DiscrepancyClass.CORRUPT.value
    live_expected = 0
    fault = schema.fault
    for rule, gid, sources in _final_groups(schema, source):
        broken = fault is not None and fault.broken_source(rule.name, sources, last) is not None
        if broken:
            run_counts[corrupt] = run_counts.get(corrupt, 0) + len(rule.target_keys(gid))
        # Through the module, so that bench/tracing.py, which wraps
        # `domain.map_source`, counts these calls too.
        for exp in domain.map_source(rule, sources):
            row = target.get(exp.key)
            if row is None:
                actual = None
            else:
                actual = _tuple_new(TargetRecord, (row.key, row.val, row.prov, row.tomb))
                live_expected += not row.tomb
            verdict = compare_records(exp, actual).value
            counts[verdict] = counts.get(verdict, 0) + 1
            if not broken:
                run_counts[verdict] = run_counts.get(verdict, 0) + 1
    extras = sum(1 for row in target.values() if not row.tomb) - live_expected
    return counts, extras, run_counts


def oracle_verify(
    log: EventLog, scenario: Scenario, report: dict | None = None
) -> OracleReport:
    """Recompute everything checkable from the log; flag report disagreements."""
    schema = scenario.build_schema()
    replay = LogReplay(log, schema)
    result = OracleReport()

    # The run's last tick: the flip's, or the scenario's `duration`.
    last = scenario.duration if replay.flip_time is None else replay.flip_time
    counts, extras, run_counts = final_diff(schema, replay.source, replay.target, last)
    result.final_counts = dict(counts)
    if extras:
        result.final_counts["live_extras"] = extras
    # The report's final figures are the run's classification.
    bad = sum(n for cls, n in run_counts.items() if cls != DiscrepancyClass.CONSISTENT.value)

    resurrections = counts.get(DiscrepancyClass.RESURRECTION.value, 0)
    result.add(
        "no final resurrections", resurrections == 0, f"resurrections={resurrections}"
    )
    result.add("no live unexpected extras", extras == 0, f"extras={extras}")

    settles = settlement_times(replay, schema)

    # Sampled window TTC, recomputed per tick.
    if report is not None:
        commits, prefix = settlement_prefix(
            zip([row.ver.commit_time for row in replay.commits], settles)
        )
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

    # Queue length trajectory vs sampled gauge; it never goes below zero.
    qlen_bad = [q for q in replay.queue_lengths if q[1] != q[2]]
    below = replay.queue_below_zero
    result.add(
        "queue length matches log replay",
        not qlen_bad and below is None,
        f"{len(qlen_bad)} mismatches" + (f", first {qlen_bad[0]}" if qlen_bad else "")
        + (f", replayed length {below[1]} at t={below[0]}" if below else ""),
    )

    # Dependency ordering over the whole trace.
    violations = replay.ordering_violations
    result.ordering_violations = violations
    result.add("dependency order respected", not violations, f"{len(violations)} violations")

    if replay.flip_time is not None:
        lost = sum(1 for s in settles if s is None or s > replay.flip_time)
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
    _check_downtime(result, replay, scenario, report)

    if report is not None:
        claimed_attempts = report["attempts_total"]
        result.add(
            "attempts total matches report",
            replay.attempts == claimed_attempts,
            f"oracle={replay.attempts} report={claimed_attempts}",
        )
        total = sum(run_counts.values())
        overall = (total - bad) / total if total else 1.0
        claimed_overall = report["final_overall"]
        result.add(
            "final consistency matches report",
            abs(overall - claimed_overall) < 1e-12,
            f"oracle={overall:.9f} report={claimed_overall:.9f}",
        )
        claimed_counts = report["final_counts"]
        result.add(
            "final counts match report",
            run_counts == claimed_counts,
            f"oracle={dict(sorted(run_counts.items()))} "
            f"report={dict(sorted(claimed_counts.items()))}",
        )

    return result


def _check_downtime(
    result: OracleReport, replay: LogReplay, scenario: Scenario, report: dict | None
) -> None:
    """Writes are rejected only in [write freeze, end), where `end` is the
    flip or abort that lifted the freeze, or the tick after the scenario's
    last; the report's switch states that window as `end - ramp.time`, 0
    without a freeze, and counts every rejected write."""
    start = replay.write_freeze
    if start is None:
        start = end = window = 0
    else:
        end = scenario.duration + 1 if replay.ramp_end is None else replay.ramp_end
        window = end - scenario.ramp.time
    outside = [t for t in replay.rejected_at if not start <= t < end]
    ok = not outside
    detail = f"{len(outside)} rejected writes outside the freeze" + (
        f", first at t={outside[0]}" if outside else ""
    )
    switch = report.get("switch") if report is not None else None
    if switch:
        rejected = len(replay.rejected_at)
        ok = ok and window == switch["unavailability_window"]
        ok = ok and rejected == switch["rejected_writes"]
        detail += (
            f", window oracle={window} report={switch['unavailability_window']}"
            f", rejected writes oracle={rejected} report={switch['rejected_writes']}"
        )
    result.add("no downtime outside the write freeze", ok, detail)
