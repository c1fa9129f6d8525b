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
    ConsistencyTracker,
    EventLog,
    SettlementTracker,
    consistency_rate,
    loop_gauges,
    time_to_converge,
    window_ttcs,
)

from migsim.oracle import window_ttc_bruteforce

from conftest import build_pipeline


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
