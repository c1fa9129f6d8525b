from __future__ import annotations

import pytest

from migsim.domain import Key, SourceRecord, TargetRecord, VersionStamp
from migsim.metrics import EventLog, time_to_converge
from migsim.oracle import (
    LogReplay,
    final_diff,
    oracle_verify,
    settlement_times,
    window_ttc_bruteforce,
)
from migsim.scenario import load_file
from migsim.simulation import run_scenario

from conftest import build_figure3_schema, scenario_path


def commit_entry(t, etype, gid, counter, op="write", val=None):
    data = {"cseq": 0, "ver": VersionStamp(counter, t), "op": op}
    if op == "write":
        data["val"] = val or {"n": "x"}
    return t, "commit", Key(etype, gid), data


def _provenance(rows):
    """A provenance map from its exported (type, id, counter, commit time) rows."""
    return {Key(et, gid): VersionStamp(c, ct) for et, gid, c, ct in rows}


def put_entry(t, etype, gid, prov, tomb=False, val=None, cls="dual", out="accepted"):
    data = {"cls": cls, "out": out}
    if out == "accepted":
        data.update(
            tomb=tomb,
            prov=_provenance(prov),
            val=({} if tomb else (val or {"n": "x"})),
        )
    return t, "put", Key(etype, gid), data


def build_log(entries):
    """An event log built through `append`, one (t, kind, key, data) each."""
    log = EventLog()
    for t, kind, key, data in entries:
        log.append(t, kind, key, **data)
    return log


class TestHandBuiltCases:
    def test_ttc_overlap_case_is_five(self):
        # Updates (commit 10 -> settle 12) and (commit 11 -> settle 16).
        assert window_ttc_bruteforce([(10, 12), (11, 16)], 0, 20) == 5
        assert time_to_converge([(10, 12), (11, 16)], 0, 20) == 5

    def test_single_update_case(self):
        assert window_ttc_bruteforce([(10, 12)], 10, 20) == 2

    def test_empty_case(self):
        assert window_ttc_bruteforce([], 0, 20) == 0

    def test_settlement_from_hand_built_log(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(10, "project", "1", 1),
            put_entry(12, "project_v2", "1", [["project", "1", 1, 10]]),
            commit_entry(11, "project", "2", 1),
            put_entry(16, "project_v2", "2", [["project", "2", 1, 11]]),
            commit_entry(20, "project", "3", 1),  # never replicated
        ]
        settles = settlement_times(LogReplay(build_log(entries), schema), schema)
        assert settles == [12, 16, None]

    def test_superseding_write_settles_earlier_update(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(10, "project", "1", 1),
            commit_entry(15, "project", "1", 2),
            put_entry(20, "project_v2", "1", [["project", "1", 2, 15]]),
        ]
        assert settlement_times(LogReplay(build_log(entries), schema), schema) == [20, 20]

    def test_ordering_violation_detected(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "project", "1", 1),
            commit_entry(
                1, "stage", "1", 1, val={"n": "s", "parent_project": "1"}
            ),
            # child written while project_v2#1 is still absent
            put_entry(2, "stage_v2", "1", [["stage", "1", 1, 1]],
                      val={"n": "s", "parent_project": "1"}),
        ]
        violations = LogReplay(build_log(entries), schema).ordering_violations
        assert len(violations) == 1
        assert violations[0]["missing_parent"] == ["project_v2", "1"]

    def test_tombstone_write_is_not_an_ordering_violation(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "stage", "1", 1, op="delete"),
            put_entry(1, "stage_v2", "1", [["stage", "1", 1, 0]], tomb=True),
        ]
        assert LogReplay(build_log(entries), schema).ordering_violations == []

    def test_final_diff_sees_resurrection(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "project", "1", 1),
            put_entry(1, "project_v2", "1", [["project", "1", 1, 0]]),
            commit_entry(2, "project", "1", 2, op="delete"),
            # delete never replicated; target stays live
        ]
        replay = LogReplay(build_log(entries), schema)
        counts, extras, run_counts = final_diff(schema, replay.source, replay.target, 2)
        assert counts["resurrection"] == 1
        assert extras == 0
        assert run_counts == counts  # no fault: the run classifies alike

    def test_final_diff_counts_live_extras_only(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "project", "1", 1),
            put_entry(1, "project_v2", "1", [["project", "1", 1, 0]]),
            # Targets whose sources never existed: two live, one deleted.
            put_entry(1, "project_v2", "7", [["project", "7", 1, 0]]),
            put_entry(1, "project_v2", "8", [["project", "8", 1, 0]]),
            put_entry(1, "project_v2", "9", [["project", "9", 1, 0]], tomb=True),
        ]
        replay = LogReplay(build_log(entries), schema)
        counts, extras, run_counts = final_diff(schema, replay.source, replay.target, 1)
        assert counts == run_counts == {"consistent": 1}
        assert extras == 2

    def test_queue_replay_detects_mismatched_sample(self):
        entries = [
            (0, "enqueue", Key("project_v2", "1"), {"trig": "nearline", "sut": 0}),
            (1, "sample", None, {  # wrong qlen: should be 1
                "age": 0, "bound": 10, "overall": 1.0, "phase": "steady", "qlen": 0,
                "settled": 1.0,
            }),
        ]
        replay = LogReplay(build_log(entries), build_figure3_schema())
        assert replay.queue_lengths == [(1, 0, 1)]

    def test_queue_replay_detects_a_dequeue_before_its_enqueue(self):
        key = Key("project_v2", "1")
        entries = [
            (0, "dequeue", key, {"res": "fixed"}),
            (1, "enqueue", key, {"trig": "nearline", "sut": 1}),
            (2, "sample", None, {
                "age": 0, "bound": 10, "overall": 1.0, "phase": "steady", "qlen": 0,
                "settled": 1.0,
            }),
        ]
        log = build_log(entries)
        replay = LogReplay(log, build_figure3_schema())
        # The sample agrees with the replay; only the replayed length's
        # dip below zero shows that the dequeue came first.
        assert replay.queue_lengths == [(2, 0, 0)]
        assert replay.queue_below_zero == (0, -1)
        checks = {c.name: c for c in oracle_verify(log, load_file(scenario_path("small"))).checks}
        check = checks["queue length matches log replay"]
        assert not check.ok
        assert check.detail == "0 mismatches, replayed length -1 at t=0"


class TestAgainstRuns:
    def test_forced_flip_lost_updates_recounted(self):
        result = run_scenario(load_file(scenario_path("ramp_pair_forced")))
        assert result.oracle_report.lost_updates == result.report.switch["lost_updates"]
        assert result.oracle_report.lost_updates > 0

    def test_settlements_match_online_tracker_exactly(self):
        result = run_scenario(load_file(scenario_path("small")))
        assert len(result.log) <= 10_000
        replay = LogReplay(result.log, result.schema)
        oracle_settles = settlement_times(replay, result.schema)
        commit_times = [row.ver.commit_time for row in replay.commits]
        online = result.settlement.updates_as_pairs()
        assert list(zip(commit_times, oracle_settles)) == online

    def test_tampered_report_is_flagged(self):
        scenario = load_file(scenario_path("small"))
        result = run_scenario(scenario)
        doc = result.report.as_dict()
        doc["samples"][-1]["window_ttc"] = 999
        # small.json flips: the final-state checks run on flipped runs too.
        doc["final_overall"] = 0.5
        doc["final_counts"] = {**doc["final_counts"], "stale": 1}
        tampered = oracle_verify(result.log, scenario, doc)
        failed = {c.name for c in tampered.checks if not c.ok}
        assert failed == {
            "window TTC matches report",
            "final consistency matches report",
            "final counts match report",
        }


@pytest.fixture(scope="module", params=["small", "reshape", "mapping_bug"])
def run_log(request):
    result = run_scenario(load_file(scenario_path(request.param)))
    return result.schema, result.log


class TestOnePassReplay:
    """The one pass keeps what a fold over the decoded entries gives."""

    def test_source_is_the_last_commit_per_key(self, run_log):
        schema, log = run_log
        folded = {}
        for entry in log.entries:
            if entry["k"] == "commit":
                key = Key(*entry["key"])
                tomb = entry["op"] == "delete"
                folded[key] = SourceRecord(
                    key, {} if tomb else entry["val"], VersionStamp(*entry["ver"]), tomb
                )
        replay = LogReplay(log, schema)
        assert list(replay.source.items()) == list(folded.items())
        assert replay.commits == [row for row in log.rows if row.kind == "commit"]

    def test_target_is_the_last_accepted_migration_put_per_key(self, run_log):
        schema, log = run_log
        decoded, puts = {}, {}
        for row, entry in zip(log.rows, log.entries):
            if entry["k"] == "put" and entry["out"] == "accepted":
                key = Key(*entry["key"])
                decoded[key] = TargetRecord(
                    key, entry["val"], _provenance(entry["prov"]), entry["tomb"]
                )
                puts.setdefault(key, []).append(row)
        replay = LogReplay(log, schema)
        assert list(replay.target) == list(decoded)
        for key, row in replay.target.items():
            assert TargetRecord(row.key, row.val, row.prov, row.tomb) == decoded[key]
        assert replay.puts == puts

    def test_queue_lengths_fold_the_queue_entries(self, run_log):
        schema, log = run_log
        expected, length = [], 0
        for entry in log.entries:
            if entry["k"] == "enqueue":
                length += 1
            elif entry["k"] in ("dequeue", "dead_letter"):
                length -= 1
            elif entry["k"] == "sample":
                expected.append((entry["t"], entry["qlen"], length))
        replay = LogReplay(log, schema)
        # Not vacuous, however long the run: the queue is non-empty at one
        # sample and empty at another.
        lengths = {length for *_, length in expected}
        assert 0 in lengths and len(lengths) > 1
        assert replay.queue_lengths == expected



# small.json ramps at tick 150 and lasts 200 ticks.
FREEZE = (150, "ramp", None, {"act": "write_freeze"})


def reject_at(t):
    return t, "reject_write", Key("project", "1"), {}


def flip_at(t):
    return t, "ramp", None, {
        "act": "flip", "mode": "drained", "window": t - 150, "lost": 0, "discrepancies": 0,
    }


def abort_at(t):
    return t, "ramp", None, {"act": "abort", "why": "freeze_timeout"}


class TestDowntimeAndAttempts:
    def check(self, entries, window, rejected):
        report = {
            "samples": [], "final_overall": 1.0, "final_counts": {}, "attempts_total": 0,
            "switch": {
                "unavailability_window": window, "rejected_writes": rejected,
                "lost_updates": 0, "post_switch_discrepancies": 0,
            },
        }
        result = oracle_verify(build_log(entries), load_file(scenario_path("small")), report)
        return {c.name: c for c in result.checks}["no downtime outside the write freeze"]

    def test_rejects_inside_the_freeze_up_to_the_flip(self):
        entries = [FREEZE, reject_at(150), reject_at(152), flip_at(153)]
        check = self.check(entries, 3, 2)
        assert check.ok
        assert check.detail == (
            "0 rejected writes outside the freeze, window oracle=3 report=3, "
            "rejected writes oracle=2 report=2"
        )

    @pytest.mark.parametrize("entries, window, first", [
        ([reject_at(100)], 0, 100),
        ([reject_at(149), FREEZE, flip_at(153)], 3, 149),
        ([FREEZE, flip_at(153), reject_at(153)], 3, 153),
        ([FREEZE, abort_at(160), reject_at(160)], 10, 160),
    ], ids=["without_a_freeze", "before_the_freeze", "at_the_flip", "at_the_abort"])
    def test_a_reject_outside_the_freeze_is_flagged(self, entries, window, first):
        check = self.check(entries, window, 1)
        assert not check.ok
        assert check.detail.startswith(f"1 rejected writes outside the freeze, first at t={first},")
        assert f"window oracle={window} report={window}" in check.detail

    def test_a_run_that_ends_frozen_counts_through_its_last_tick(self):
        entries = [FREEZE, reject_at(150), reject_at(200)]
        assert self.check(entries, 51, 2).ok
        # What such a run reported while the controller kept the window.
        assert not self.check(entries, 0, 2).ok

    def test_an_abort_ends_the_window(self):
        entries = [FREEZE, reject_at(159), abort_at(160)]
        assert self.check(entries, 10, 1).ok
        assert not self.check(entries, 11, 1).ok

    def test_a_wrong_count_of_rejected_writes_is_flagged(self):
        entries = [FREEZE, reject_at(150), flip_at(151)]
        assert self.check(entries, 1, 1).ok
        assert not self.check(entries, 1, 0).ok

    def test_tampered_downtime_and_attempts_are_flagged(self):
        scenario = load_file(scenario_path("ramp_pair_drained"))
        result = run_scenario(scenario)
        doc = result.report.as_dict()
        assert result.oracle_report.ok
        doc["attempts_total"] += 1
        doc["switch"] = {**doc["switch"], "rejected_writes": doc["switch"]["rejected_writes"] + 1}
        failed = {c.name for c in oracle_verify(result.log, scenario, doc).checks if not c.ok}
        assert failed == {"no downtime outside the write freeze", "attempts total matches report"}

    def test_attempts_count_backfill_puts_and_ended_queue_attempts(self):
        key = Key("project_v2", "1")
        entries = [
            put_entry(0, "project_v2", "1", [], cls="backfill", out="unavailable"),
            put_entry(0, "project_v2", "2", [["project", "2", 1, 0]], cls="backfill"),
            put_entry(0, "project_v2", "3", [["project", "3", 1, 0]], cls="dual"),
            (0, "enqueue", key, {"trig": "bootstrap", "sut": 0}),
            (1, "retry", key, {"attempts": 1, "due": 2, "reason": "fix_unavailable"}),
            (2, "dequeue", key, {"res": "fixed"}),
            (3, "enqueue", key, {"trig": "nearline", "sut": 3}),
            (4, "dead_letter", key, {"reason": "fix_unavailable"}),
        ]
        assert LogReplay(build_log(entries), build_figure3_schema()).attempts == 5
