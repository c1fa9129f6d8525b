from __future__ import annotations

import dataclasses

import pytest

from migsim.domain import Key, SourceRecord, TargetRecord, VersionStamp
from migsim.metrics import time_to_converge
from migsim.oracle import (
    LogReplay,
    final_diff,
    oracle_verify,
    ordering_violations,
    queue_lengths_at_samples,
    settlement_times,
    window_ttc_bruteforce,
)
from migsim.scenario import load_file
from migsim.simulation import run_scenario
from migsim.stores import TargetStore

from conftest import build_figure3_schema, scenario_path


def commit_entry(t, etype, gid, counter, op="write", val=None):
    entry = {"t": t, "k": "commit", "key": [etype, gid], "cseq": 0,
             "ver": [counter, t], "op": op}
    if op == "write":
        entry["val"] = val or {"n": "x"}
    return entry


def put_entry(t, etype, gid, prov, tomb=False, val=None, cls="dual", out="accepted"):
    entry = {"t": t, "k": "put", "key": [etype, gid], "cls": cls, "out": out}
    if out == "accepted":
        entry.update(tomb=tomb, prov=prov, val=({} if tomb else (val or {"n": "x"})))
    return entry


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
        replay = LogReplay(entries)
        settles = settlement_times(replay, schema)
        assert settles[("project", "1", 1)] == 12
        assert settles[("project", "2", 1)] == 16
        assert settles[("project", "3", 1)] is None

    def test_superseding_write_settles_earlier_update(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(10, "project", "1", 1),
            commit_entry(15, "project", "1", 2),
            put_entry(20, "project_v2", "1", [["project", "1", 2, 15]]),
        ]
        settles = settlement_times(LogReplay(entries), schema)
        assert settles[("project", "1", 1)] == 20
        assert settles[("project", "1", 2)] == 20

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
        for i, e in enumerate(entries):
            e["seq"] = i + 1
        violations = ordering_violations(LogReplay(entries), schema)
        assert len(violations) == 1
        assert violations[0]["missing_parent"] == ["project_v2", "1"]

    def test_tombstone_write_is_not_an_ordering_violation(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "stage", "1", 1, op="delete"),
            put_entry(1, "stage_v2", "1", [["stage", "1", 1, 0]], tomb=True),
        ]
        for i, e in enumerate(entries):
            e["seq"] = i + 1
        assert ordering_violations(LogReplay(entries), schema) == []

    def test_final_diff_sees_resurrection(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "project", "1", 1),
            put_entry(1, "project_v2", "1", [["project", "1", 1, 0]]),
            commit_entry(2, "project", "1", 2, op="delete"),
            # delete never replicated; target stays live
        ]
        replay = LogReplay(entries)
        counts, extras = final_diff(schema, replay.source_state(), replay.target_state())
        assert counts["resurrection"] == 1
        assert extras == 0

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
        replay = LogReplay(entries)
        counts, extras = final_diff(schema, replay.source_state(), replay.target_state())
        assert counts == {"consistent": 1}
        assert extras == 2

    def test_queue_replay_detects_mismatched_sample(self):
        entries = [
            {"seq": 1, "t": 0, "k": "enqueue", "key": ["project_v2", "1"], "trig": "nearline", "sut": 0},
            {"seq": 2, "t": 1, "k": "sample", "qlen": 0},  # wrong: should be 1
        ]
        rows = queue_lengths_at_samples(LogReplay(entries))
        assert rows == [(1, 0, 1)]


class TestAgainstRuns:
    def test_forced_flip_lost_updates_recounted(self):
        result = run_scenario(load_file(scenario_path("ramp_pair_forced")))
        assert result.oracle_report.lost_updates == result.report.switch["lost_updates"]
        assert result.oracle_report.lost_updates > 0

    def test_settlements_match_online_tracker_exactly(self):
        result = run_scenario(load_file(scenario_path("small")))
        assert len(result.log.entries) <= 10_000
        schema = result.schema
        replay = LogReplay(result.log.entries)
        oracle_settles = settlement_times(replay, schema)
        for entry in replay.commits:
            key_tuple = (entry["key"][0], entry["key"][1], entry["ver"][0])
            from migsim.domain import Key, VersionStamp

            online = result.settlement.settlement_time(
                Key(entry["key"][0], entry["key"][1]),
                VersionStamp(entry["ver"][0], entry["ver"][1]),
            )
            assert oracle_settles[key_tuple] == online

    def test_tampered_report_is_flagged(self):
        scenario = load_file(scenario_path("small"))
        result = run_scenario(scenario)
        doc = result.report.as_dict()
        doc["samples"][-1]["window_ttc"] = 999
        tampered = oracle_verify(result.log.entries, scenario, doc)
        failed = {c.name for c in tampered.checks if not c.ok}
        assert "window TTC matches report" in failed


@pytest.fixture(scope="module", params=["small", "reshape", "mapping_bug"])
def run_log(request):
    scenario = load_file(scenario_path(request.param))
    result = run_scenario(scenario)
    return scenario, result.schema, result.log.entries


def _cutoffs(scenario):
    return [0, 1, *range(7, scenario.duration + 2, 29), None]


class TestOnDemandReplay:
    """The on-demand decodes answer what a full decode of the log does."""

    def test_source_state_is_a_fold_over_every_commit(self, run_log):
        scenario, _schema, entries = run_log
        replay = LogReplay(entries)
        for before in _cutoffs(scenario):
            folded = {}
            for entry in entries:
                if entry["k"] != "commit" or (before is not None and entry["t"] >= before):
                    continue
                key = Key(*entry["key"])
                stamp = VersionStamp(*entry["ver"])
                tomb = entry["op"] == "delete"
                folded[key] = SourceRecord(key, {} if tomb else entry["val"], stamp, tomb)
            assert list(replay.source_state(before).items()) == list(folded.items())

    def test_final_diff_over_view_equals_fully_decoded_dict(self, run_log):
        scenario, schema, entries = run_log
        replay = LogReplay(entries)
        for before in _cutoffs(scenario):
            kept = [e for e in entries if before is None or e["t"] < before]
            decoded = TargetStore.replay(kept)
            view = replay.target_state(before)
            assert len(view) == len(decoded)
            assert list(view) == list(decoded)
            assert all(view[key] == rec and view.get(key) == rec for key, rec in decoded.items())
            assert view.get(Key("no_such_type", "0")) is None
            sources = replay.source_state(before)
            assert final_diff(schema, sources, view) == final_diff(schema, sources, decoded)

    def test_target_view_is_read_only(self, run_log):
        _scenario, _schema, entries = run_log
        view = LogReplay(entries).target_state()
        key = next(iter(view))
        with pytest.raises(TypeError):
            view[key] = TargetRecord(key, {}, {}, True)
