from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from migsim.domain import (
    DiscrepancyClass,
    EntityType,
    InvariantError,
    Key,
    MappingRule,
    Schema,
    TargetRecord,
    TransformError,
    VersionStamp,
    at_least_as_fresh,
)
from migsim.healing import Trigger
from migsim.metrics import (
    ROW_KINDS,
    ConsistencyTracker,
    EventLog,
    SettlementTracker,
    _as_entry,
    _encode_line,
    _row_class,
    consistency_rate,
    loop_gauges,
    time_to_converge,
    window_ttcs,
)

from migsim.oracle import window_ttc_bruteforce
from migsim.scenario import BugSpec, load_file
from migsim.simulation import run_scenario
from migsim.stores import PutResult, StoreUnavailable
from migsim.verifiers import BootstrapJob, RateLimiter

from conftest import SCENARIO_DIR, build_figure3_schema, build_pipeline, build_split_schema


def affected(skey: Key) -> tuple[Key, ...]:
    return (Key(skey.etype + "_v2", skey.id),)


def put(key: Key, counter: int, t: int) -> TargetRecord:
    return TargetRecord(
        Key(key.etype + "_v2", key.id), {"n": "x"}, {key: VersionStamp(counter, t)}, False
    )


class TestSettlementTracker:
    def test_simple_settlement(self):
        tracker = SettlementTracker(affected)
        key = Key("p", "1")
        tracker.on_commit(key, VersionStamp(1, 10))
        tracker.on_accepted_put(put(key, 1, 12), 12)
        assert tracker.updates_as_pairs() == [(10, 12)]

    def test_superseding_write_settles_older_update(self):
        # A fresher write counts for earlier updates too.
        tracker = SettlementTracker(affected)
        key = Key("p", "1")
        tracker.on_commit(key, VersionStamp(1, 10))
        tracker.on_commit(key, VersionStamp(2, 15))
        tracker.on_accepted_put(put(key, 2, 20), 20)
        assert tracker.updates_as_pairs() == [(10, 20), (15, 20)]

    def test_never_replicated_is_not_settled(self):
        tracker = SettlementTracker(affected)
        key = Key("p", "1")
        tracker.on_commit(key, VersionStamp(1, 10))
        assert tracker.updates_as_pairs() == [(10, None)]
        assert tracker.unsettled_count() == 1

    def test_stale_put_does_not_settle_newer_update(self):
        tracker = SettlementTracker(affected)
        key = Key("p", "1")
        tracker.on_commit(key, VersionStamp(2, 15))
        tracker.on_accepted_put(put(key, 1, 20), 20)
        assert tracker.updates_as_pairs() == [(15, None)]

    def test_multi_target_update_settles_on_last_key(self):
        def fan_out(skey: Key) -> tuple[Key, ...]:
            return (Key("a_v2", skey.id), Key("b_v2", skey.id))

        tracker = SettlementTracker(fan_out)
        key = Key("c", "1")
        tracker.on_commit(key, VersionStamp(1, 10))
        prov = {key: VersionStamp(1, 10)}
        tracker.on_accepted_put(TargetRecord(Key("a_v2", "1"), {}, prov, False), 11)
        assert tracker.updates_as_pairs() == [(10, None)]
        tracker.on_accepted_put(TargetRecord(Key("b_v2", "1"), {}, prov, False), 14)
        assert tracker.updates_as_pairs() == [(10, 14)]

    def test_out_of_order_commit_raises(self):
        tracker = SettlementTracker(affected)
        tracker.on_commit(Key("p", "1"), VersionStamp(1, 10))
        with pytest.raises(InvariantError):
            tracker.on_commit(Key("p", "2"), VersionStamp(1, 9))


_TARGET_TYPES = {"p": ("a_v2",), "q": ("a_v2", "b_v2"), "z": ()}


def _fan_out(skey: Key) -> tuple[Key, ...]:
    return tuple(Key(tt, skey.id) for tt in _TARGET_TYPES[skey.etype])


_SOURCES = [Key(etype, gid) for etype in ("p", "q", "z") for gid in ("1", "2")]
_TARGETS = sorted({tkey for skey in _SOURCES for tkey in _fan_out(skey)})

# One step: (time advance, commit source index, or put (target index,
# provenance choices)); a provenance choice per feeding source is None (no
# entry), a counter offset from that source's current counter, or a
# bootstrap stamp at an offset from the current time.
_steps = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.one_of(
            st.integers(0, len(_SOURCES) - 1),
            st.tuples(
                st.integers(0, len(_TARGETS) - 1),
                st.lists(
                    st.one_of(
                        st.none(),
                        st.tuples(st.just("c"), st.integers(-2, 1)),
                        st.tuples(st.just("b"), st.integers(-4, 2)),
                    ),
                    min_size=2, max_size=2,
                ),
            ),
        ),
    ),
    max_size=40,
)


class TestSettlementTrackerAgainstReference:
    @given(_steps)
    def test_matches_first_covering_put_per_target(self, steps):
        tracker = SettlementTracker(_fan_out)
        commits: list[tuple[Key, VersionStamp, int]] = []  # with position in the run
        puts: list[tuple[int, TargetRecord, int]] = []
        counters = {skey: 0 for skey in _SOURCES}
        now = 0
        for pos, (advance, action) in enumerate(steps):
            now += advance
            if isinstance(action, int):
                skey = _SOURCES[action]
                counters[skey] += 1
                stamp = VersionStamp(counters[skey], now)
                tracker.on_commit(skey, stamp)
                commits.append((skey, stamp, pos))
                continue
            tkey = _TARGETS[action[0]]
            feeding = [skey for skey in _SOURCES if tkey in _fan_out(skey)]
            prov = {}
            for skey, choice in zip(feeding, action[1]):
                if choice is None:
                    continue
                kind, offset = choice
                if kind == "c":
                    prov[skey] = VersionStamp(max(counters[skey] + offset, 1), now)
                else:
                    prov[skey] = VersionStamp(0, max(now + offset, 0))
            record = TargetRecord(tkey, {}, prov, False)
            tracker.on_accepted_put(record, now)
            puts.append((now, record, pos))

        def reference(skey, stamp, committed_at):
            settle = stamp.commit_time
            for tkey in _fan_out(skey):
                found = next(
                    (
                        t for t, rec, pos in puts
                        if pos > committed_at and rec.key == tkey
                        and skey in rec.provenance
                        and at_least_as_fresh(rec.provenance[skey], stamp)
                    ),
                    None,
                )
                if found is None:
                    return None
                settle = max(settle, found)
            return settle

        expected = [reference(*c) for c in commits]
        assert tracker.updates_as_pairs() == [
            (s.commit_time, e) for (_, s, _), e in zip(commits, expected)
        ]
        assert tracker.unsettled_count() == sum(e is None for e in expected)
        for t0 in range(-1, now + 1):
            for t1 in range(t0, now + 2):
                gaps = [
                    e - s.commit_time
                    for (_, s, _), e in zip(commits, expected)
                    if e is not None and t0 < s.commit_time <= t1
                ]
                assert tracker.settled_latency_max(t0, t1) == max(gaps, default=0)


class TestTimeToConverge:
    def test_single_update(self):
        assert time_to_converge([(10, 12)], 10, 20) == 2

    def test_two_update_overlap_case(self):
        # Updates (10 -> 12) and (11 -> 16): the instant just after the second
        # commit sees snapshot settlement 16 against last update 11.
        assert time_to_converge([(10, 12), (11, 16)], 0, 20) == 5

    def test_empty_window(self):
        assert time_to_converge([], 0, 10) == 0

    def test_unsettled_update_propagates(self):
        assert time_to_converge([(10, 12), (11, None)], 0, 20) is None

    def test_window_excludes_later_updates(self):
        # The unsettled update after the window does not poison it.
        assert time_to_converge([(10, 12), (30, None)], 0, 20) == 2

    def test_pre_window_updates_still_count(self):
        # Settlement of an old update reaches into the window.
        assert time_to_converge([(10, 40)], 20, 30) == 30


def _commit_ordered(steps_and_delays):
    """(commit_time, settle_time) pairs in commit order; None never settled."""
    pairs, commit = [], 0
    for step, delay in steps_and_delays:
        commit += step
        pairs.append((commit, None if delay is None else commit + delay))
    return pairs


update_pairs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    ),
    max_size=25,
).map(_commit_ordered)


class TestWindowTTCs:
    def test_matches_hand_built_cases(self):
        pairs = [(10, 12), (11, 16)]
        assert window_ttcs(pairs, [(0, 20), (12, 20), (0, 9), (0, 10)]) == [5, 5, 0, 2]

    def test_unsettled_update_blocks_only_later_windows(self):
        pairs = [(1, 3), (5, None)]
        assert window_ttcs(pairs, [(0, 4), (0, 5)]) == [2, None]

    # Spans start at 0: a window never ends before it starts, since parse
    # rejects a negative `metrics.ttc_window`.
    @given(update_pairs, st.lists(st.tuples(st.integers(0, 40), st.integers(0, 25)), max_size=8))
    def test_equals_per_tick_definition_for_every_window(self, pairs, raw_windows):
        windows = [(t1 - span, t1) for span, t1 in raw_windows]
        windows += [(t1 - 10, t1) for t1 in range(0, 60, 3)]
        got = window_ttcs(pairs, windows)
        assert got == [window_ttc_bruteforce(pairs, t0, t1) for t0, t1 in windows]


class TestLoopGauges:
    def test_empty_queue(self, pipeline):
        assert loop_gauges(pipeline.queue, 25) == (0, 0)

    def test_age_of_oldest_data_point(self, pipeline):
        pipeline.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 12, 10)
        assert loop_gauges(pipeline.queue, 25) == (1, 15)

    def test_gauges_after_drain(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})
        pipeline.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 0, 0)
        pipeline.healer.process(0)
        assert loop_gauges(pipeline.queue, 10) == (0, 0)


class TestConsistencyRate:
    def test_quiescent_run_is_fully_consistent(self, pipeline):
        for i in range(5):
            pipeline.commit_and_replicate("project", str(i), {"n": "x"})
        overall, settled, counts = consistency_rate(
            pipeline.schema, pipeline.legacy.records, pipeline.target.records, 100, 10
        )
        assert overall == 1.0 and settled == 1.0

    def test_one_missing_among_many(self, pipeline):
        for i in range(100):
            pipeline.commit_and_replicate("project", str(i), {"n": "x"})
        del pipeline.target.records[Key("project_v2", "7")]
        overall, settled, counts = consistency_rate(
            pipeline.schema, pipeline.legacy.records, pipeline.target.records, 100, 10
        )
        assert overall == pytest.approx(0.99)
        assert settled == pytest.approx(0.99)

    def test_in_flight_update_excluded_from_settled(self, pipeline):
        for i in range(10):
            pipeline.commit_and_replicate("project", str(i), {"n": "x"})
        pipeline.clock.now = 100
        pipeline.commit("project", "99", {"n": "fresh"})  # not replicated yet
        overall, settled, _ = consistency_rate(
            pipeline.schema, pipeline.legacy.records, pipeline.target.records, 100, 10
        )
        assert overall == pytest.approx(10 / 11)
        assert settled == 1.0

    def test_empty_views_rate_one(self, pipeline):
        overall, settled, _ = consistency_rate(pipeline.schema, {}, {}, 0, 10)
        assert (overall, settled) == (1.0, 1.0)


class TestConsistencyTracker:
    def test_tracker_matches_full_scan(self):
        p = build_pipeline(availability=0.8, seed=13)
        tracker = ConsistencyTracker(p.schema, p.legacy.read, p.target.peek)
        p.target.on_accept.append(lambda rec, now: tracker.mark_target(rec.key))
        for i in range(40):
            p.clock.now = i
            event = p.commit("project", str(i % 9), {"n": f"v{i}"})
            tracker.mark_source(event.key, i)
            p.dualwriter.on_commit(event)
            p.dualwriter.run_due(i)
            if i % 10 == 0:
                got = tracker.rates(i, 10)
                want = consistency_rate(
                    p.schema, p.legacy.records, p.target.records, i, 10
                )
                assert got[0] == pytest.approx(want[0])
                assert got[1] == pytest.approx(want[1])

    def test_tracker_sees_source_only_changes(self, pipeline):
        tracker = ConsistencyTracker(
            pipeline.schema, pipeline.legacy.read, pipeline.target.peek
        )
        event = pipeline.commit("project", "1", {"n": "x"})
        tracker.mark_source(event.key, 0)
        overall, _, expected, bad = tracker.rates(0, 10)
        assert (expected, bad) == (1, 1)
        assert overall == 0.0


    def test_settled_exactly_at_bound_matches_full_scan(self, pipeline):
        # Settled means at - newest > bound: a commit at t=0 is still
        # unsettled at t=10 with bound 10, so no settled key is inconsistent.
        tracker = ConsistencyTracker(
            pipeline.schema, pipeline.legacy.read, pipeline.target.peek
        )
        event = pipeline.commit("project", "1", {"n": "x"})
        tracker.mark_source(event.key, 0)
        want = consistency_rate(
            pipeline.schema, pipeline.legacy.records, pipeline.target.records, 10, 10
        )
        assert want[:2] == (0.0, 1.0)
        assert tracker.rates(10, 10)[:2] == want[:2]

    def test_growing_bound_reopens_settled_groups(self, pipeline):
        tracker = ConsistencyTracker(
            pipeline.schema, pipeline.legacy.read, pipeline.target.peek
        )
        event = pipeline.commit("project", "1", {"n": "x"})
        tracker.mark_source(event.key, 0)
        views = (pipeline.schema, pipeline.legacy.records, pipeline.target.records)
        for at, bound in ((20, 10), (21, 30)):
            assert tracker.rates(at, bound)[:2] == consistency_rate(*views, at, bound)[:2]

    def test_class_counts_match_full_scan(self):
        # One group per class, plus a group whose rule fails to map.
        def transform(sources):
            (rec,) = [r for r in sources.values() if not r.tombstone]
            if rec.value.get("n") == "bug":
                raise TransformError("bug")
            return [(Key("project_v2", rec.key.id), dict(rec.value))]

        schema = Schema(
            [EntityType("project")],
            [MappingRule("project_rule", ("project",), ("project_v2",), transform)],
        )
        p = build_pipeline(schema=schema)
        tracker = ConsistencyTracker(p.schema, p.legacy.read, p.target.peek)
        p.target.on_accept.append(lambda rec, now: tracker.mark_target(rec.key))
        for gid in "123456":
            p.commit_and_replicate("project", gid, {"n": "x"})
            tracker.mark_source(Key("project", gid), 0)
        for gid, value, delete in (("2", {"n": "y"}, False), ("3", None, True),
                                   ("4", {"n": "bug"}, False)):
            event = p.commit("project", gid, value, delete)
            tracker.mark_source(event.key, 0)
        del p.target.records[Key("project_v2", "5")]
        stored = p.target.records[Key("project_v2", "6")]
        p.target.records[stored.key] = stored._replace(value={"n": "other"})
        tracker.mark_target(stored.key)
        tracker.mark_target(Key("project_v2", "5"))
        want = consistency_rate(p.schema, p.legacy.records, p.target.records, 0, 10)
        assert tracker.class_counts() == want[2]
        assert {c for c, n in want[2].items() if n} == {
            DiscrepancyClass.CONSISTENT, DiscrepancyClass.STALE,
            DiscrepancyClass.RESURRECTION, DiscrepancyClass.CORRUPT,
            DiscrepancyClass.MISSING,
        }
        # Repairs move keys back to consistent.
        p.commit_and_replicate("project", "2", {"n": "y"})
        tracker.mark_source(Key("project", "2"), 0)
        assert tracker.class_counts() == consistency_rate(
            p.schema, p.legacy.records, p.target.records, 0, 10
        )[2]

    def test_unknown_target_type_is_ignored(self, pipeline):
        tracker = ConsistencyTracker(
            pipeline.schema, pipeline.legacy.read, pipeline.target.peek
        )
        tracker.mark_target(Key("not_a_type", "1"))
        assert tracker.rates(0, 10) == (1.0, 1.0, 0, 0)


PROJECT = ("project_rule", "1")


def bootstrap(p, now: int) -> BootstrapJob:
    """A direct-mode load of a snapshot taken now, run to its end at tick
    `now` or later."""
    job = BootstrapJob(
        p.schema, p.legacy.take_snapshot(p.clock.now), p.target, p.queue, p.log,
        p.tracker.note_written,
    )
    p.clock.now = now
    limiter = RateLimiter(100)
    limiter.begin_tick(now)
    job.step(now, limiter)
    assert job.done
    return job


class TestWrittenGroupNotes:
    """The writers' `note_written` calls: a group left consistent leaves the
    dirty set; any other outcome leaves it dirty.  Either way the tracker's
    rates are the full scan's."""

    def assert_rates_are_the_full_scan(self, p, at=0, bound=10):
        got = p.tracker.rates(at, bound)
        overall, settled, counts = consistency_rate(
            p.schema, p.legacy.records, p.target.records, at, bound
        )
        expected = sum(counts.values())
        assert got == (overall, settled, expected, expected - counts[DiscrepancyClass.CONSISTENT])

    def test_accepted_dual_write_and_bootstrap_leave_the_group_clean(self):
        p = build_pipeline(schema=build_split_schema())
        p.commit_and_replicate("project", "1", {"n": "p"})
        assert PROJECT not in p.tracker._dirty
        p.commit("candidate", "1", {"profile": "x", "note": "y", "parent_project": "1"})
        bootstrap(p, 0)
        assert p.tracker._dirty == set()
        self.assert_rates_are_the_full_scan(p)

    def test_a_note_clears_the_groups_inconsistent_keys(self, pipeline):
        pipeline.commit("project", "1", {"n": "a"})
        assert pipeline.tracker.rates(0, 10)[3] == 1  # missing
        pipeline.commit_and_replicate("project", "1", {"n": "b"})
        assert pipeline.tracker._dirty == set()
        self.assert_rates_are_the_full_scan(pipeline)

    def test_stale_rejected_put_leaves_the_group_dirty(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})
        fresher = TargetRecord(
            Key("project_v2", "1"), {"n": "future"}, {Key("project", "1"): VersionStamp(5, 9)},
            False,
        )
        pipeline.target.put_if_fresher(fresher)
        pipeline.tracker.rates(0, 10)
        pipeline.commit_and_replicate("project", "1", {"n": "y"})
        assert pipeline.target.peek(fresher.key) == fresher
        assert PROJECT in pipeline.tracker._dirty
        self.assert_rates_are_the_full_scan(pipeline)

    @pytest.mark.parametrize("writer", ["dual", "backfill"])
    def test_unavailable_put_leaves_the_group_dirty(self, writer):
        p = build_pipeline(schema=build_split_schema())
        p.commit_and_replicate("project", "1", {"n": "p"})
        notes_key = Key("candidate_notes_v2", "1")
        put_if_fresher = p.target.put_if_fresher

        def flaky_put(record):
            if record.key == notes_key:
                raise StoreUnavailable(str(record.key))
            return put_if_fresher(record)

        p.target.put_if_fresher = flaky_put
        value = {"profile": "x", "note": "y", "parent_project": "1"}
        if writer == "dual":
            p.commit_and_replicate("candidate", "1", value)
        else:
            p.commit("candidate", "1", value)
            bootstrap(p, 0)
        # The group's other target key was accepted.
        assert p.target.peek(Key("candidate_core_v2", "1")) is not None
        assert p.tracker._dirty == {("candidate_rule", "1")}
        self.assert_rates_are_the_full_scan(p)

    def test_commit_between_snapshot_and_load_leaves_the_group_dirty(self, pipeline):
        pipeline.commit("project", "1", {"n": "old"})
        job = BootstrapJob(
            pipeline.schema, pipeline.legacy.take_snapshot(0), pipeline.target,
            pipeline.queue, pipeline.log, pipeline.tracker.note_written,
        )
        pipeline.clock.now = 1
        pipeline.commit("project", "1", {"n": "new"})
        limiter = RateLimiter(100)
        limiter.begin_tick(1)
        job.step(1, limiter)
        # The load was accepted, but holds the snapshot's version.
        assert pipeline.target.peek(Key("project_v2", "1")).value == {"n": "old"}
        assert PROJECT in pipeline.tracker._dirty
        self.assert_rates_are_the_full_scan(pipeline, at=1)
        assert pipeline.tracker.class_counts()[DiscrepancyClass.STALE] == 1

    @pytest.mark.parametrize("writer", ["dual", "backfill"])
    def test_group_of_the_faults_rule_stays_dirty(self, writer):
        base = build_figure3_schema()
        fault = BugSpec("project_rule", "project", 1, 0, active_from=5, active_until=8)
        p = build_pipeline(schema=Schema(list(base.types.values()), base.rules, fault))
        if writer == "dual":
            p.commit_and_replicate("project", "1", {"n": "p"})
        else:
            p.commit("project", "1", {"n": "p"})
            bootstrap(p, 0)
        assert p.target.peek(Key("project_v2", "1")) is not None
        assert PROJECT in p.tracker._dirty
        for at in (0, 5, 8):
            self.assert_rates_are_the_full_scan(p, at=at)


def test_each_writer_names_its_class_in_the_put_row(pipeline):
    pipeline.commit_and_replicate("project", "1", {"n": "p"})
    pipeline.commit("project", "2", {"n": "q"})
    pipeline.healer.validate_and_fix(Key("project_v2", "2"), 0)
    pipeline.commit("project", "3", {"n": "r"})
    bootstrap(pipeline, 0)
    record = TargetRecord(Key("project_v2", "9"), {}, {Key("project", "9"): VersionStamp(1, 0)},
                          True)
    assert pipeline.target.put_if_fresher(record) is PutResult.ACCEPTED
    classes = [(row.key.id, row.cls) for row in pipeline.log.rows if row.kind == "put"]
    assert classes == [("1", "dual"), ("2", "repair"), ("1", "backfill"), ("2", "backfill"),
                       ("3", "backfill"), ("9", "live")]


def sample_data(qlen=0, phase="steady"):
    """The data fields of a `sample` row."""
    return dict(age=0, bound=10, overall=1.0, phase=phase, qlen=qlen, settled=1.0)


class TestEventLog:
    def test_digest_depends_on_content(self):
        a, b = EventLog(), EventLog()
        a.append(0, "commit", Key("p", "1"), cseq=1, op="delete", ver=VersionStamp(1, 0))
        b.append(0, "commit", Key("p", "1"), cseq=1, op="delete", ver=VersionStamp(1, 0))
        assert a.digest() == b.digest()
        b.append(1, "commit", Key("p", "2"), cseq=2, op="delete", ver=VersionStamp(1, 1))
        assert a.digest() != b.digest()

    def test_export_parse_round_trip(self):
        log = EventLog()
        log.append(3, "put", Key("p_v2", "1"), cls="dual", out="stale_rejected")
        log.append(4, "sample", **sample_data(qlen=2))
        parsed = EventLog.parse_lines(log.export_lines())
        assert list(parsed.entries) == list(log.entries)
        # An absent optional field is left out of the export.
        assert parsed.entries[0] == {
            "seq": 1, "t": 3, "k": "put", "key": ("p_v2", "1"), "cls": "dual",
            "out": "stale_rejected",
        }
        assert parsed.entries[1] == {"seq": 2, "t": 4, "k": "sample", **sample_data(qlen=2)}

    def test_parse_lines_shapes_entries_like_append(self):
        log = EventLog()
        log.append(
            1, "commit", Key("p", "1"), cseq=1, ver=VersionStamp(2, 1), op="write", val={"n": "x"}
        )
        prov = {Key("p", "1"): VersionStamp(2, 1), Key("a", "1"): VersionStamp(0, 3)}
        log.append(
            2, "put", Key("p_v2", "1"), cls="dual", out="accepted", prov=prov, tomb=False, val={}
        )
        log.append(3, "ramp", act="clearance", cleared=False, reasons=("a", "b"))
        # The export flattens the map to sorted rows.
        assert log.entries[1]["prov"] == [("a", "1", 0, 3), ("p", "1", 2, 1)]
        parsed = EventLog.parse_lines(log.export_lines())
        # Same class per row, and a list would not equal a tuple.
        assert [(type(r), r) for r in parsed.rows] == [(type(r), r) for r in log.rows]
        commit, put, ramp = parsed.rows
        assert type(commit.key) is Key and type(put.key) is Key
        assert type(commit.ver) is VersionStamp
        # Provenance comes back as the map the run logged, not as rows.
        assert type(put.prov) is dict and put.prov == prov
        assert all(type(k) is Key and type(v) is VersionStamp for k, v in put.prov.items())
        assert (commit.kind, put.kind, ramp.kind) == ("commit", "put", "ramp")
        assert type(ramp.reasons) is tuple and ramp.why is None

    @pytest.mark.parametrize(
        "kind, key, data",
        [
            ("bogus", None, {}),
            ("dequeue", Key("p", "1"), {"res": "fixed", "why": "x"}),  # undeclared field
            ("dequeue", Key("p", "1"), {"rez": "fixed"}),  # misspelt field
            ("dequeue", Key("p", "1"), {}),  # missing field
            ("dequeue", None, {"res": "fixed"}),  # missing key
            ("retry", Key("p", "1"), {"attempts": 1, "due": 3}),  # a retry without its reason
            ("snapshot", Key("p", "1"), {"lut": 0, "n": 0, "taken": 0}),  # key on a keyless kind
        ],
    )
    def test_append_raises_on_a_row_its_kind_does_not_declare(self, kind, key, data):
        log = EventLog()
        with pytest.raises((KeyError, TypeError)):
            log.append(1, kind, key, **data)
        assert log.rows == []

    def test_rows_hold_the_declared_fields_in_order(self):
        log = EventLog()
        log.append(1, "verify", Key("p", "1"), src="nearline", res="enqueued", n=2)
        log.append(1, "verify", Key("p", "1"), res="ok", src="nearline")
        enqueued, ok = log.rows
        assert type(enqueued) is type(ok)
        # Required fields sorted by name, then the optional ones.
        assert enqueued._fields == ("t", "key", "res", "src", "n")
        assert ok.n is None and "n" not in log.entries[1]

    def test_seq_and_kind_are_not_stored(self):
        log = EventLog()
        log.append(5, "enqueue", Key("p", "1"), trig="nearline", sut=4)
        log.append(6, "coalesce", Key("p", "1"), trig="nearline", sut=4)
        enqueue, coalesce = log.rows
        assert tuple(enqueue) == (5, Key("p", "1"), 4, "nearline")
        assert type(enqueue) is not type(coalesce)
        assert [e["seq"] for e in log.entries] == [1, 2]
        assert log.entries[-1]["k"] == "coalesce"

    def test_parse_lines_rejects_a_gap_in_seq(self):
        log = EventLog()
        for t in range(3):
            log.append(t, "sample", **sample_data())
        lines = list(log.export_lines())
        with pytest.raises(ValueError, match="entry 2 is out of sequence"):
            EventLog.parse_lines([lines[0], lines[2]])

    def test_digest_pass_writes_the_export(self, tmp_path):
        log = EventLog()
        log.append(
            0, "commit", Key("p", "1"), cseq=1, op="write", ver=VersionStamp(1, 0),
            val={"b": "2", "a": "1"},
        )
        log.append(2, "sample", **sample_data())
        path = tmp_path / "eventlog.jsonl"
        digest = log.digest(path)
        data = path.read_bytes()
        assert digest == log.digest() == hashlib.sha256(data).hexdigest()
        assert data.decode("utf-8").splitlines() == list(log.export_lines())


# Strings that JSON must escape or spell in ASCII: quotes, backslashes,
# control characters, non-ASCII up to the astral planes, and a lone
# surrogate.
TRICKY = ['a"b', "back\\slash", "\x00\x1f\x7f\n\t", "caf\u00e9", "\u4e2d\u2028",
          "\U0001f600", "\ud800", ""]
_texts = st.one_of(st.sampled_from(TRICKY), st.text(max_size=6))
_ints = st.integers(-(2**70), 2**70)
# A value of each declared field type; floats as the run rounds its rates.
VALUES = {
    int: _ints,
    bool: st.booleans(),
    str: _texts,
    float: st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1).map(lambda x: round(x, 9))),
    Key: st.builds(Key, _texts, _texts),
    VersionStamp: st.builds(VersionStamp, _ints, _ints),
    dict: st.dictionaries(_texts, _texts, max_size=4),
    dict[Key, VersionStamp]: st.dictionaries(
        st.builds(Key, _texts, _texts), st.builds(VersionStamp, _ints, _ints), max_size=4
    ),
    tuple[str, ...]: st.lists(_texts, max_size=3).map(tuple),
}
# One fixed value of each type, for the rows built by hand.
SAMPLE = {
    int: 7, bool: True, str: TRICKY[0], float: round(2 / 3, 9), Key: Key(TRICKY[1], TRICKY[5]),
    VersionStamp: VersionStamp(3, 12), dict: {TRICKY[2]: TRICKY[3], "b": TRICKY[4]},
    dict[Key, VersionStamp]: {
        Key("p", TRICKY[3]): VersionStamp(2, 1), Key("a", "1"): VersionStamp(0, 3)
    },
    tuple[str, ...]: (TRICKY[0], TRICKY[6]),
}


def one_row(t: int, kind: str, key, data: dict):
    log = EventLog()
    log.append(t, kind, key, **data)
    return log.rows[0]


@st.composite
def rows_of(draw, kind: str):
    """A row of `kind`: every required field, each optional one or not."""
    keyed, required, optional = ROW_KINDS[kind]
    data = {name: draw(VALUES[tp]) for name, tp in required.items()}
    data |= {name: draw(VALUES[tp]) for name, tp in optional.items() if draw(st.booleans())}
    return one_row(draw(_ints), kind, draw(VALUES[Key]) if keyed else None, data)


def hand_built_rows():
    """Per kind: its rows with no optional field, with every one, and with
    each one alone; then the rows a run's special cases log."""
    rows = []
    for kind, (keyed, required, optional) in ROW_KINDS.items():
        base = {name: SAMPLE[tp] for name, tp in required.items()}
        subsets = [(), tuple(optional), *((name,) for name in optional)]
        for names in subsets:
            data = base | {name: SAMPLE[optional[name]] for name in names}
            rows.append(one_row(5, kind, SAMPLE[Key] if keyed else None, data))
    key, prov = Key("p_v2", TRICKY[3]), SAMPLE[dict[Key, VersionStamp]]
    rows += [
        one_row(0, "put", key, dict(cls="repair", out="accepted", prov=prov, tomb=True, val={})),
        one_row(0, "put", key, dict(cls="dual", out="unavailable")),
        one_row(0, "commit", Key("p", "1"), dict(cseq=4, op="delete", ver=VersionStamp(2, 9))),
        one_row(0, "ramp", None, dict(act="clearance", cleared=False, reasons=("a", TRICKY[0]))),
        one_row(0, "sample", None, dict(age=0, bound=1, overall=1.0, phase="p", qlen=0, settled=0.0)),
    ]
    return rows


class TestLineWriters:
    """Each row class's `line` writer spells its row exactly as the encoder
    spells the row's entry dict."""

    @pytest.mark.parametrize("row", hand_built_rows(), ids=lambda row: row.kind)
    def test_hand_built_rows(self, row):
        for seq in (1, 10**12):
            assert row.line(seq) == _encode_line(_as_entry(seq, row))

    def test_every_kind_and_optional_field_is_covered(self):
        rows = hand_built_rows()
        assert {row.kind for row in rows} == set(ROW_KINDS)
        for row in rows:
            for name in row.optional:
                assert any(r.kind == row.kind and getattr(r, name) is None for r in rows)
                assert any(r.kind == row.kind and getattr(r, name) is not None for r in rows)

    def test_an_optional_field_that_sorts_before_every_other(self):
        # No declared kind has one yet; such a field carries its comma after it.
        cls = _row_class("probe", False, {"z": int}, {"a": str, "m": bool})
        for a, m in [(None, None), ("x", None), (None, False), ("x", True)]:
            row = cls(3, 4, a, m)
            assert row.line(9) == _encode_line(_as_entry(9, row))

    @pytest.mark.parametrize("kind", sorted(ROW_KINDS))
    @given(data=st.data())
    def test_generated_rows(self, kind, data):
        row = data.draw(rows_of(kind))
        seq = data.draw(st.integers(1, 2**40))
        assert row.line(seq) == _encode_line(_as_entry(seq, row))

    def test_the_seed_1_paper_default_export(self):
        path = SCENARIO_DIR.parent / "bench" / "scenarios" / "paper_default.json"
        log = run_scenario(load_file(path), seed=1).log
        want = [_encode_line(_as_entry(seq, row)) for seq, row in enumerate(log.rows, 1)]
        got = list(log.export_lines())
        assert len(got) == len(want) == len(log.rows)
        for seq, (line, expected) in enumerate(zip(got, want), 1):
            assert line == expected, seq
