from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from migsim.domain import InvariantError, Key, SourceRecord, TargetRecord, VersionStamp
from migsim.metrics import EventLog
from migsim.rng import named_stream, uniforms
from migsim.stores import (
    ChangeStream,
    Clock,
    FaultProfile,
    LegacyStore,
    PutResult,
    StoreUnavailable,
    TargetStore,
)


def make_target(availability: float = 1.0, outages=(), seed: int = 3, clock=None) -> TargetStore:
    clock = clock or Clock(0)
    fault = FaultProfile(availability_p=availability, outage_windows=tuple(outages))
    return TargetStore(clock, fault, named_stream(seed, "target_ops"), EventLog())


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

    def test_first_commits_of_a_tick_share_one_stamp(self):
        clock = Clock(0)
        store = LegacyStore(clock)
        a = store.commit(Key("p", "1"), {"n": "a"}).new_version
        b = store.commit(Key("p", "2"), {"n": "b"}).new_version
        assert a is b and a == VersionStamp(1, 0)
        clock.now = 1
        c = store.commit(Key("p", "3"), {"n": "c"}).new_version
        again = store.commit(Key("p", "1"), {"n": "a2"}).new_version
        assert c == VersionStamp(1, 1) and c is not a
        assert again == VersionStamp(2, 1)
        assert store.read(Key("p", "2")).version is a


class TestSnapshot:
    def test_empty_store_snapshot(self):
        store = LegacyStore(Clock(0))
        snap = store.take_snapshot(0)
        assert len(snap) == 0
        assert store.last_update_time == -1

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

    def test_snapshot_before_the_newest_commit_is_refused(self):
        clock = Clock(5)
        store = LegacyStore(clock)
        store.commit(Key("p", "1"), {"n": "a"})
        with pytest.raises(InvariantError):
            store.take_snapshot(4)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.booleans()), max_size=30))
    def test_snapshot_of_random_history(self, steps):
        # Each step advances the clock by 0-3 ticks and writes or deletes
        # one of three keys; a snapshot taken then holds the newest version
        # of each key committed so far, and the store's last update time is
        # the newest commit time of its records.
        clock = Clock(0)
        store = LegacyStore(clock)
        want = {}
        for advance, gid, delete in steps:
            clock.now += advance
            key = Key("p", str(gid))
            store.commit(key, None if delete else {"n": str(clock.now)})
            want[key] = store.read(key)
            snap = store.take_snapshot(clock.now)
            assert list(snap.records.items()) == list(want.items())
            newest = max(r.version.commit_time for r in snap.records.values())
            assert store.last_update_time == newest == clock.now


class TestFaultProfile:
    @pytest.mark.parametrize(
        "windows",
        [(), ((5, 9),), ((14, 15), (3, 6), (6, 10))],  # the last: two adjacent, unsorted
        ids=["none", "one", "three"],
    )
    def test_in_outage_equals_a_scan_of_every_window(self, windows):
        fault = FaultProfile(outage_windows=windows)
        last_end = max((end for _, end in windows), default=0)
        for now in range(last_end + 3):
            assert fault.in_outage(now) == any(start <= now < end for start, end in windows), now


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
        for i in range(50):
            for counter in (1, 2):
                try:
                    store.put_if_fresher(rec(str(i % 7), counter, t=i))
                except StoreUnavailable:
                    pass
        folded = {}
        for row in store.log.rows:
            if row.out == "accepted":
                folded[row.key] = TargetRecord(row.key, row.val, row.prov, row.tomb)
        assert folded == store.records

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


class TestBlockDraws:
    """The stores take their uniforms in blocks; every outcome must be the
    one a scalar `rng.random()` per operation gives."""

    @pytest.mark.parametrize("block", [1, 3, 512])
    def test_uniforms_are_the_scalar_draws(self, block):
        draws = uniforms(named_stream(4, "target_ops"), block)
        ref = named_stream(4, "target_ops")
        assert [next(draws) for _ in range(1_500)] == [ref.random() for _ in range(1_500)]

    def test_availability_equals_scalar_draws_under_an_outage(self):
        clock = Clock(0)
        store = make_target(availability=0.7, outages=[(40, 70)], seed=11, clock=clock)
        ref, fault = named_stream(11, "target_ops"), store.fault
        got, expected = [], []
        for now in range(150):
            clock.now = now
            for i in range(now % 23):  # 1,584 operations: several blocks
                try:
                    if i % 2:
                        store.get(Key("p_v2", str(i)))
                    else:
                        store.put_if_fresher(rec(str(i), now + 1, t=now))
                    got.append((now, True))
                except StoreUnavailable:
                    got.append((now, False))
                draw = ref.random()
                expected.append((now, not fault.in_outage(now) and draw < fault.availability_p))
        assert got == expected
        assert store.op_count == len(expected) == 1_584
        assert {ok for now, ok in got if 40 <= now < 70} == {False}
        assert {ok for now, ok in got if not 40 <= now < 70} == {False, True}

    def test_drops_equal_scalar_draws(self):
        got = []
        fault = FaultProfile(stream_lag=2, stream_drop_p=0.3)
        stream = ChangeStream(fault, named_stream(6, "stream"), lambda e, now: got.append(e.seq))
        events = commits(2_000)
        for event in events:
            stream.feed(event, 0)
        stream.deliver_due(2)
        ref = named_stream(6, "stream")
        expected = [e.seq for e in events if not ref.random() < fault.stream_drop_p]
        assert got == expected
        assert stream.dropped == len(events) - len(expected) > 0
