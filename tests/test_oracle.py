from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from migsim.domain import (
    EntityType,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    VersionStamp,
    identity_rule,
    merge_rule,
)
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

from conftest import build_figure3_schema, build_split_schema, scenario_path


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


def violations_by_derivation(log, schema):
    """The ordering violations as the replay once derived them for every
    live accepted put: the sorted parent target keys of its present inputs,
    as committed by then, that no earlier accepted put wrote."""
    source, written, out = {}, set(), []
    for row in log.rows:
        if row.kind == "commit":
            tomb = row.op == "delete"
            source[row.key] = SourceRecord(row.key, {} if tomb else row.val, row.ver, tomb)
        elif row.kind == "put" and row.out == "accepted":
            if not row.tomb:
                rule = schema.rule_for_target(row.key.etype)
                inputs = {k: source[k] for k in rule.input_keys(row.key.id) if k in source}
                out += [
                    {"t": row.t, "child": list(row.key), "missing_parent": list(pkey)}
                    for pkey in schema.parent_target_keys(inputs)
                    if pkey not in written
                ]
            written.add(row.key)
    return out


# A merge whose two inputs may both name the same parent.
MERGE_SCHEMA = Schema(
    [
        EntityType("account"),
        EntityType("profile", frozenset({"account"})),
        EntityType("settings", frozenset({"account", "profile"})),
    ],
    [
        identity_rule("account_rule", "account", "account_v2"),
        merge_rule("user_rule", ("profile", "settings"), "user_v2"),
    ],
)


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

    @pytest.mark.parametrize(
        "written, missing",
        [
            ((), ["project_v2", "stage_v2"]),
            (("project_v2",), ["stage_v2"]),
            (("stage_v2",), ["project_v2"]),
            (("project_v2", "stage_v2"), []),
        ],
    )
    def test_ordering_violations_name_missing_parents_in_sorted_order(self, written, missing):
        schema = build_figure3_schema()
        refs = {"n": "c", "parent_stage": "1", "parent_project": "1"}
        entries = [
            commit_entry(0, "project", "1", 1),
            commit_entry(0, "stage", "1", 1),  # no parent reference of its own
            commit_entry(0, "candidate", "1", 1, val=refs),
            *(put_entry(1, tt, "1", [[tt.removesuffix("_v2"), "1", 1, 0]]) for tt in written),
            put_entry(2, "candidate_v2", "1", [["candidate", "1", 1, 0]], val=refs),
        ]
        log = build_log(entries)
        violations = LogReplay(log, schema).ordering_violations
        assert violations == [
            {"t": 2, "child": ["candidate_v2", "1"], "missing_parent": [tt, "1"]}
            for tt in missing
        ]
        assert violations == violations_by_derivation(log, schema)

    def test_parents_that_several_inputs_name_are_sorted_and_named_once(self):
        entries = [
            commit_entry(0, "profile", "1", 1, val={"n": "p", "parent_account": "2"}),
            commit_entry(
                0, "settings", "1", 1,
                val={"n": "s", "parent_account": "1", "parent_profile": "1"},
            ),
            commit_entry(0, "settings", "2", 1, val={"n": "s", "parent_account": "2"}),
            put_entry(1, "user_v2", "1", [["profile", "1", 1, 0], ["settings", "1", 1, 0]]),
            put_entry(2, "user_v2", "2", [["settings", "2", 1, 0]]),
        ]
        log = build_log(entries)
        violations = LogReplay(log, MERGE_SCHEMA).ordering_violations
        assert [(v["t"], v["missing_parent"]) for v in violations] == [
            (1, ["account_v2", "1"]), (1, ["account_v2", "2"]), (1, ["user_v2", "1"]),
            (2, ["account_v2", "2"]),
        ]
        assert violations == violations_by_derivation(log, MERGE_SCHEMA)

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

    def test_extras_are_live_target_rows_under_no_expected_key(self):
        schema = build_figure3_schema()
        entries = [
            commit_entry(0, "project", "1", 1),
            put_entry(1, "project_v2", "1", [["project", "1", 1, 0]]),
            # A deleted stage whose delete never reached the target: a
            # resurrection, not an extra.
            commit_entry(0, "stage", "1", 1),
            put_entry(1, "stage_v2", "1", [["stage", "1", 1, 0]]),
            commit_entry(2, "stage", "1", 2, op="delete"),
            # A deleted stage that the target deleted too.
            commit_entry(0, "stage", "2", 1, op="delete"),
            put_entry(1, "stage_v2", "2", [["stage", "2", 1, 0]], tomb=True),
        ]

        def diff(*extra):
            replay = LogReplay(build_log([*entries, *extra]), schema)
            return final_diff(schema, replay.source, replay.target, 2)

        counts, extras, run_counts = diff()
        assert counts == run_counts == {"consistent": 2, "resurrection": 1}
        assert extras == 0
        live_only = put_entry(1, "project_v2", "7", [["project", "7", 1, 0]])
        deleted_only = put_entry(1, "project_v2", "8", [["project", "8", 1, 0]], tomb=True)
        assert diff(live_only) == (counts, 1, run_counts)
        assert diff(deleted_only) == (counts, 0, run_counts)
        assert diff(live_only, deleted_only) == (counts, 1, run_counts)

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


SCHEMAS = [build_figure3_schema(), build_split_schema(), MERGE_SCHEMA]
_gids = st.sampled_from(["1", "2"])


def _target_types(schema) -> list[str]:
    return [tt for rule in schema.rules for tt in rule.target_types]


@st.composite
def logs_with_parents(draw):
    """A schema and a log of commits, with random parent references and
    deletes, and of live and deleted puts, in random order."""
    schema = draw(st.sampled_from(SCHEMAS))
    entries = []
    for t in range(draw(st.integers(1, 16))):
        if draw(st.booleans()):
            etype = draw(st.sampled_from(sorted(schema.types)))
            parents = sorted(schema.types[etype].parents)
            val = {"n": "x"} | {f"parent_{p}": draw(_gids) for p in parents if draw(st.booleans())}
            op = draw(st.sampled_from(["write", "write", "delete"]))
            entries.append(commit_entry(t, etype, draw(_gids), t + 1, op=op, val=val))
        else:
            ttype = draw(st.sampled_from(_target_types(schema)))
            entries.append(put_entry(t, ttype, draw(_gids), [], tomb=draw(st.booleans())))
    return schema, build_log(entries)


@given(logs_with_parents())
def test_ordering_violations_equal_the_derivation(case):
    schema, log = case
    assert LogReplay(log, schema).ordering_violations == violations_by_derivation(log, schema)


_STATES = ("live", "tombstoned", "absent")
_PARENT_GIDS = ("1", "2", "3")


@st.composite
def logs_of_parent_states(draw):
    """A figure-3 or split schema and a log in which every source and target
    key of three groups is live, tombstoned or absent, each live source
    naming random parents; its commits and puts come in random order."""
    schema = draw(st.sampled_from(SCHEMAS[:2]))
    events = []
    for etype in sorted(schema.types):
        parents = sorted(schema.types[etype].parents)
        for gid in _PARENT_GIDS:
            state = draw(st.sampled_from(_STATES))
            if state == "live":
                refs = {f"parent_{p}": draw(st.sampled_from(_PARENT_GIDS)) for p in parents}
                events.append(("commit", etype, gid, "write", {"n": "x"} | refs))
            elif state == "tombstoned":
                events.append(("commit", etype, gid, "delete", None))
    for ttype in _target_types(schema):
        for gid in _PARENT_GIDS:
            state = draw(st.sampled_from(_STATES))
            if state != "absent":
                events.append(("put", ttype, gid, state == "tombstoned", None))
    entries = []
    for t, (kind, etype, gid, how, val) in enumerate(draw(st.permutations(events))):
        if kind == "commit":
            entries.append(commit_entry(t, etype, gid, t + 1, op=how, val=val))
        else:
            entries.append(put_entry(t, etype, gid, [], tomb=how))
    return schema, build_log(entries)


@given(logs_of_parent_states())
def test_ordering_violations_equal_the_parent_target_keys_reference(case):
    """`parent_target_keys` is the reference for the replay's parent check:
    the same entries, in the same order, whatever state each parent is in."""
    schema, log = case
    assert LogReplay(log, schema).ordering_violations == violations_by_derivation(log, schema)


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
