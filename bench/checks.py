"""Output checks for one benchmark run, computed apart from the program.

Nothing here imports `migsim`: the expected target state comes from the
benchmark's own identity, split and merge mapping over the final legacy
records, and the event log is re-read from the exported `eventlog.jsonl`.
Each check judges the migration method, never a stored copy of earlier
output.  `check_run` returns a list of failure messages; empty means pass.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# A bulk-load stamp has no per-key commit counter; freshness then falls
# back to commit time (the paper's default-provenance rule).
BOOTSTRAP_COUNTER = 0

# Log entry kinds the checks read; every other line is only hashed.
_WANTED = ('"k":"put"', '"k":"dequeue"', '"k":"retry"', '"k":"dead_letter"',
           '"k":"enqueue"', '"k":"requeue"', '"k":"ramp"')


def fresh_enough(have: tuple[int, int], want: tuple[int, int]) -> bool:
    """Is stamp `have` (counter, commit time) at least as fresh as `want`?"""
    if have[0] > BOOTSTRAP_COUNTER and want[0] > BOOTSTRAP_COUNTER:
        return have[0] >= want[0]
    return have[1] >= want[1]


def covers(actual: dict, wanted: dict) -> bool:
    return all(k in actual and fresh_enough(actual[k], v) for k, v in wanted.items())


def expected_target(rules: list[dict], legacy: dict) -> dict:
    """Target state implied by the source: {(type, id): (value, prov, tomb)}.

    `legacy` maps (type, id) to (value, (counter, commit time), tombstone).
    A group whose present sources are all deleted maps to tombstones on
    every target; otherwise live sources are translated by the rule kind.
    """
    by_source: dict[str, list[dict]] = {}
    for rule in rules:
        for st in rule["sources"]:
            by_source.setdefault(st, []).append(rule)
    groups = {(rule["name"], gid): rule for (st, gid) in legacy for rule in by_source.get(st, ())}
    out: dict = {}
    for (_, gid), rule in groups.items():
        present = [(st, legacy[(st, gid)]) for st in rule["sources"] if (st, gid) in legacy]
        prov = {(st, gid): rec[1] for st, rec in present}
        live = [(st, rec[0]) for st, rec in present if not rec[2]]
        if not live:
            for tt in rule["targets"]:
                out[(tt, gid)] = ({}, prov, True)
            continue
        kind = rule["kind"]
        if kind == "identity":
            out[(rule["targets"][0], gid)] = (dict(live[0][1]), prov, False)
        elif kind == "split":
            value = live[0][1]
            for tt, fields in rule["split_fields"]:
                out[(tt, gid)] = ({f: value[f] for f in fields if f in value}, prov, False)
        elif kind == "merge":
            merged = {f"{st}_{f}": v for st, value in live for f, v in value.items()}
            out[(rule["targets"][0], gid)] = (merged, prov, False)
        else:
            raise ValueError(f"unknown rule kind {kind!r}")
    return out


def diff_target(expected: dict, actual: dict) -> list[str]:
    """Every way `actual` falls short of `expected`; empty when it matches."""
    bad: list[str] = []
    for key, (value, prov, tomb) in expected.items():
        got = actual.get(key)
        if tomb:
            if got is not None and not (got[2] and covers(got[1], prov)):
                bad.append(f"{key}: deleted at source, target {'live' if not got[2] else 'stale'}")
        elif got is None:
            bad.append(f"{key}: missing")
        elif got[2]:
            bad.append(f"{key}: tombstone where source is live")
        elif not covers(got[1], prov):
            bad.append(f"{key}: provenance does not cover the source versions")
        elif got[0] != value:
            bad.append(f"{key}: value differs")
    for key, got in actual.items():
        if key not in expected and not got[2]:
            bad.append(f"{key}: live unexpected extra")
    return bad


class LogFacts:
    """What the checks need from one exported event log, read in one pass."""

    def __init__(self, path: Path):
        sha = hashlib.sha256()
        self.lines = 0
        self.replay: dict = {}  # migration puts accepted before any flip
        self.regressions: list[str] = []
        self.backfill_puts = 0
        self.healer_attempts = 0  # dequeue + retry + dead_letter entries
        self.queue_length = 0
        self.dead: set = set()
        self.flip_t: int | None = None
        self.native_keys: set = set()
        with open(path, "rb") as fh:
            for raw in fh:
                sha.update(raw)
                self.lines += 1
                line = raw.decode("utf-8")
                if any(tag in line for tag in _WANTED):
                    self._read(json.loads(line))
        self.sha256 = sha.hexdigest()

    def _read(self, e: dict) -> None:
        kind = e["k"]
        if kind == "put":
            key = tuple(e["key"])
            if e["cls"] == "native":
                self.native_keys.add(key)
                return
            if e["cls"] == "backfill":
                self.backfill_puts += 1
            if e["out"] != "accepted" or self.flip_t is not None:
                return
            prov = {(et, gid): (c, ct) for et, gid, c, ct in e["prov"]}
            before = self.replay.get(key)
            if before is not None and not covers(prov, before[1]):
                self.regressions.append(f"{key} at seq {e['seq']}")
            self.replay[key] = (e["val"], prov, e["tomb"])
        elif kind in ("dequeue", "retry", "dead_letter"):
            self.healer_attempts += 1
            if kind != "retry":
                self.queue_length -= 1
            if kind == "dead_letter":
                self.dead.add(tuple(e["key"]))
        elif kind == "enqueue":
            self.queue_length += 1
        elif kind == "requeue":
            self.dead.discard(tuple(e["key"]))
        elif kind == "ramp" and e.get("act") == "flip":
            self.flip_t = e["t"]


def _store_state(records) -> dict:
    return {
        (k[0], k[1]): (
            dict(r.value),
            {(pk[0], pk[1]): (v[0], v[1]) for pk, v in r.provenance.items()},
            r.tombstone,
        )
        for k, r in records.items()
    }


def check_run(result, out_dir: Path, scenario_doc: dict, attempts_bound) -> list[str]:
    """Judge one finished run from its in-memory stores and its artifacts."""
    failures: list[str] = []

    def need(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    facts = LogFacts(out_dir / "eventlog.jsonl")
    need(facts.sha256 == report["log_digest"], "sha256 of eventlog.jsonl != log_digest")
    need(facts.lines == len(result.log), "eventlog.jsonl line count != log length")

    need(report["ok"], f"oracle or expectations failed: {report['expect_failures']}")
    need(report["oracle"] is not None and report["oracle"]["ok"], "oracle verdict not ok")

    attempts = facts.backfill_puts + facts.healer_attempts
    need(
        attempts == report["attempts_total"],
        f"attempts recounted from the log {attempts} != attempts_total "
        f"{report['attempts_total']}",
    )
    need(not facts.regressions, f"accepted puts regress provenance: {facts.regressions[:3]}")

    legacy = {
        (k[0], k[1]): (dict(r.value), (r.version[0], r.version[1]), r.tombstone)
        for k, r in result.legacy.records.items()
    }
    expected = expected_target(scenario_doc["schema"]["rules"], legacy)
    store = _store_state(result.target.records)
    flips = scenario_doc["ramp"]["enabled"]
    if flips:
        switch = report["switch"] or {}
        need(facts.flip_t is not None, "no flip in the event log")
        need(switch.get("outcome") == "switched", f"switch outcome {switch.get('outcome')!r}")
        need(switch.get("lost_updates") == 0, f"lost updates {switch.get('lost_updates')}")
        need(
            switch.get("post_switch_discrepancies") == 0,
            f"post-switch discrepancies {switch.get('post_switch_discrepancies')}",
        )
        # The store keeps changing after the flip only on natively written keys.
        untouched = {k: v for k, v in store.items() if k not in facts.native_keys}
        replayed = {k: v for k, v in facts.replay.items() if k not in facts.native_keys}
        need(untouched == replayed, "store after the flip != log replay on keys not written natively")
        at_end = facts.replay  # the target as it stood at the flip
    else:
        need(facts.replay == store, "log replay != target store contents at the end")
        need(len(result.queue) == 0 and facts.queue_length == 0, "repair queue not empty at the end")
        need(
            not result.queue.dead_letters() and not facts.dead,
            "dead letters left at the end",
        )
        at_end = store
    bad = diff_target(expected, at_end)
    need(not bad, f"{len(bad)} target keys differ from the mapped source, first {bad[:3]}")

    if attempts_bound is not None:
        n = scenario_doc["workload"]["initial_records"]
        ratio = attempts / n
        lo, hi = attempts_bound
        need(lo <= ratio <= hi, f"attempts/N {ratio:.5f} outside [{lo}, {hi}]")
    return failures
