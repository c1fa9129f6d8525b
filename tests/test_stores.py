from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from migsim.domain import Key, SourceRecord, TargetRecord, VersionStamp
from migsim.metrics import EventLog
from migsim.oracle import LogReplay
from migsim.rng import named_stream
from migsim.scenario import load_file
from migsim.simulation import run_scenario
from migsim.stores import (
    ChangeStream,
    Clock,
    FaultProfile,
    LegacyStore,
    PutResult,
    StoreUnavailable,
    TargetStore,
)

from conftest import scenario_path


def make_target(availability: float = 1.0, outages=(), seed: int = 3, clock=None) -> TargetStore:
    clock = clock or Clock(0)
    fault = FaultProfile(availability_p=availability, outage_windows=tuple(outages))
    return TargetStore(clock, fault, named_stream(seed, "target_ops"))


def rec(gid: str, counter: int, t: int = 0, value=None, tomb=False) -> TargetRecord:
    return TargetRecord(
        Key("p_v2", gid),
        {} if tomb else (value or {"n": f"v{counter}"}),
        {Key("p", gid): VersionStamp(counter, t)},
        tomb,
    )


class TestLegacyStore:
    def test_per_key_counter_increases(self):
        store = LegacyStore(Clock(0))
        e1 = store.commit(Key("p", "1"), {"n": "a"})
        e2 = store.commit(Key("p", "1"), {"n": "b"})
        assert (e1.new_version.counter, e2.new_version.counter) == (1, 2)

    def test_delete_creates_tombstone_event(self):
        store = LegacyStore(Clock(0))
        store.commit(Key("p", "1"), {"n": "a"})
        event = store.commit(Key("p", "1"), None)
        assert event.op == "delete"
        stored = store.read(Key("p", "1"))
        assert stored.tombstone and stored.value == {}
        assert stored.version.counter == 2

    def test_global_sequence_is_commit_order(self):
        store = LegacyStore(Clock(0))
        seqs = [store.commit(Key("p", str(i)), {"n": "x"}).seq for i in range(3)]
        assert seqs == [1, 2, 3]

    def test_commit_versions_strictly_increase_per_key(self):
        store = LegacyStore(Clock(0))
        events = [store.commit(Key("p", "1"), {"n": "x"}) for _ in range(4)]
        versions = [e.new_version.counter for e in events]
        assert versions == sorted(set(versions))


class TestSnapshot:
    def test_empty_store_snapshot(self):
        store = LegacyStore(Clock(0))
        snap = store.take_snapshot(0)
        assert len(snap) == 0
        assert snap.last_update_time == -1

    def test_snapshot_at_past_time_excludes_later_commits(self):
        clock = Clock(5)
        store = LegacyStore(clock)
        store.commit(Key("p", "1"), {"n": "early"})
        clock.now = 9
        store.commit(Key("p", "1"), {"n": "late"})
        snap = store.take_snapshot(7)
        assert snap.records[Key("p", "1")].value == {"n": "early"}
        assert snap.last_update_time == 5

    def test_snapshot_immutable_across_later_commits(self):
        clock = Clock(0)
        store = LegacyStore(clock)
        store.commit(Key("p", "1"), {"n": "a"})
        snap = store.take_snapshot(0)
        clock.now = 1
        store.commit(Key("p", "1"), {"n": "b"})
        store.commit(Key("p", "2"), {"n": "c"})
        key = Key("p", "1")
        assert snap.records == {key: SourceRecord(key, {"n": "a"}, VersionStamp(1, 0), False)}

    def test_snapshot_at_every_tick_is_the_last_version_by_then(self):
        result = run_scenario(load_file(scenario_path("small")))
        commits = [e for e in result.log.entries if e["k"] == "commit"]
        for t in range(result.report.duration + 1):
            want = {}
            for entry in commits:
                if entry["ver"].commit_time <= t:
                    tomb = entry["op"] == "delete"
                    want[entry["key"]] = SourceRecord(
                        entry["key"], {} if tomb else entry["val"], entry["ver"], tomb
                    )
            snap = result.legacy.take_snapshot(t)
            assert list(snap.records.items()) == list(want.items()), f"t={t}"

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.booleans()), max_size=30))
    def test_snapshot_of_random_history(self, steps):
        # Each step advances the clock by 0-3 ticks and writes or deletes
        # one of three keys.
        clock = Clock(0)
        store = LegacyStore(clock)
        versions = []
        for advance, gid, delete in steps:
            clock.now += advance
            key = Key("p", str(gid))
            store.commit(key, None if delete else {"n": str(clock.now)})
            versions.append(store.read(key))
        for t in range(clock.now + 2):
            want = {}
            for version in versions:
                if version.version.commit_time <= t:
                    want[version.key] = version
            assert list(store.take_snapshot(t).records.items()) == list(want.items())


class TestTargetStore:
    def test_put_then_get(self):
        store = make_target()
        record = rec("1", 2)
        assert store.put_if_fresher(record) is PutResult.ACCEPTED
        assert store.get(record.key) == record

    def test_get_unknown_key_absent(self):
        store = make_target()
        assert store.get(Key("p_v2", "404")) is None

    def test_fresher_write_accepted(self):
        store = make_target()
        store.put_if_fresher(rec("1", 1))
        assert store.put_if_fresher(rec("1", 2)) is PutResult.ACCEPTED
        assert store.peek(Key("p_v2", "1")).provenance[Key("p", "1")].counter == 2

    def test_stale_write_rejected_and_state_unchanged(self):
        store = make_target()
        fresh = rec("1", 2)
        store.put_if_fresher(fresh)
        assert store.put_if_fresher(rec("1", 1)) is PutResult.STALE_REJECTED
        assert store.peek(Key("p_v2", "1")) == fresh

    def test_outage_window_blocks_everything(self):
        clock = Clock(10)
        store = make_target(outages=[(10, 20)], clock=clock)
        with pytest.raises(StoreUnavailable):
            store.put_if_fresher(rec("1", 1))
        with pytest.raises(StoreUnavailable):
            store.get(Key("p_v2", "1"))
        clock.now = 20
        assert store.put_if_fresher(rec("1", 1)) is PutResult.ACCEPTED

    def test_fully_available_never_unavailable(self):
        store = make_target(availability=1.0)
        for i in range(500):
            store.put_if_fresher(rec(str(i), 1))
        assert store.op_count == 500

    def test_kth_operation_draw_reproducible(self):
        # Same seed, same operation index, same availability outcome.
        def run() -> list[bool]:
            store = make_target(availability=0.7, seed=42)
            outcomes = []
            for i in range(200):
                try:
                    store.put_if_fresher(rec(str(i), 1))
                    outcomes.append(True)
                except StoreUnavailable:
                    outcomes.append(False)
            return outcomes

        assert run() == run()

    def test_write_log_replay_reproduces_final_state(self):
        store = make_target(availability=0.8, seed=9)
        store.event_log = EventLog()
        for i in range(50):
            for counter in (1, 2):
                try:
                    store.put_if_fresher(rec(str(i % 7), counter, t=i))
                except StoreUnavailable:
                    pass
        assert dict(LogReplay(store.event_log).target_state()) == store.records

    def test_bootstrap_default_loses_to_fresher_tombstone(self):
        # A stale snapshot load must not resurrect a deleted record.
        store = make_target()
        tomb = TargetRecord(
            Key("p_v2", "1"), {}, {Key("p", "1"): VersionStamp(2, 8)}, True
        )
        store.put_if_fresher(tomb)
        stale = TargetRecord(
            Key("p_v2", "1"), {"n": "zombie"}, {Key("p", "1"): VersionStamp(0, 5)}, False
        )
        assert store.put_if_fresher(stale) is PutResult.STALE_REJECTED
        assert store.peek(Key("p_v2", "1")).tombstone


def commits(n: int) -> list:
    legacy = LegacyStore(Clock(0))
    return [legacy.commit(Key("project", str(i)), {"v": "x"}) for i in range(n)]


class TestChangeStream:
    def test_delivers_in_sequence_order_after_the_lag(self):
        got = []
        stream = ChangeStream(
            FaultProfile(stream_lag=3), named_stream(1, "stream"),
            lambda event, now: got.append((now, event.seq)),
        )
        for t, event in zip((0, 0, 1, 1), commits(4)):
            stream.feed(event, t)
        assert stream.pending_count() == 4
        assert stream.deliver_due(2) == 0
        assert stream.deliver_due(3) == 2
        assert stream.pending_count() == 2
        assert stream.deliver_due(10) == 2
        assert stream.pending_count() == 0
        assert got == [(3, 1), (3, 2), (10, 3), (10, 4)]

    def test_seeded_drops_repeat_and_lose_only_dropped_events(self):
        def run(seed):
            got = []
            stream = ChangeStream(
                FaultProfile(stream_drop_p=0.5), named_stream(seed, "stream"),
                lambda event, now: got.append(event.seq),
            )
            for event in commits(200):
                stream.feed(event, 0)
            assert stream.dropped + stream.pending_count() == 200
            assert stream.deliver_due(0) == 200 - stream.dropped
            return stream.dropped, got

        dropped, got = run(7)
        assert 0 < dropped < 200
        assert got == sorted(got) and len(got) == 200 - dropped
        assert run(7) == (dropped, got)
        assert run(8) != (dropped, got)

    def test_without_a_consumer_due_events_are_discarded(self):
        stream = ChangeStream(FaultProfile(), named_stream(1, "stream"))
        for event in commits(3):
            stream.feed(event, 0)
        assert stream.deliver_due(0) == 3
        assert stream.pending_count() == 0


class TestPutOrderIndependence:
    def test_final_state_is_freshest_regardless_of_order(self):
        writes = [rec("1", c, t=c) for c in (1, 2, 3)]
        finals = set()
        for perm in itertools.permutations(writes):
            store = make_target()
            for record in perm:
                store.put_if_fresher(record)
            finals.add(store.peek(Key("p_v2", "1")).provenance[Key("p", "1")])
        assert finals == {VersionStamp(3, 3)}


@given(st.permutations([1, 2, 3, 4]))
def test_put_sequence_converges_to_pointwise_max(order):
    store = make_target()
    for counter in order:
        store.put_if_fresher(rec("1", counter, t=counter))
    assert store.peek(Key("p_v2", "1")).provenance[Key("p", "1")] == VersionStamp(4, 4)
