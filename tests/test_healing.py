from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from migsim.domain import Key, TargetRecord, VersionStamp
from migsim.healing import (
    CONSISTENT,
    FIXED,
    Latency,
    RepairCounts,
    RetryPolicy,
    SelfHealingQueue,
    Trigger,
)
from migsim.metrics import EventLog
from migsim.simulation import fold_log
from migsim.stores import StoreUnavailable

from conftest import build_pipeline


class TestEnqueue:
    def test_first_event_enqueued(self, pipeline):
        pipeline.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 0, 0)
        assert [e["k"] for e in pipeline.log.entries] == ["enqueue"]
        assert pipeline.counts.enqueued == 1
        assert len(pipeline.queue) == 1

    def test_same_key_coalesces(self, pipeline):
        key = Key("project_v2", "1")
        pipeline.queue.enqueue(key, Trigger.NEARLINE, 0, 3)
        pipeline.queue.enqueue(key, Trigger.OFFLINE, 5, 9)
        assert [e["k"] for e in pipeline.log.entries] == ["enqueue", "coalesce"]
        assert pipeline.counts.coalesced == 1
        assert len(pipeline.queue) == 1
        (event,) = pipeline.queue.pending()
        assert event.source_update_time == 9  # latest kept

    def test_distinct_keys_both_queued(self, pipeline):
        pipeline.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 0, 0)
        pipeline.queue.enqueue(Key("project_v2", "2"), Trigger.NEARLINE, 0, 0)
        assert len(pipeline.queue) == 2

    def test_counters_track_enqueues_and_coalesces(self, pipeline):
        key = Key("project_v2", "1")
        pipeline.queue.enqueue(key, Trigger.NEARLINE, 0, 0)
        pipeline.queue.enqueue(key, Trigger.NEARLINE, 1, 1)
        assert pipeline.counts.enqueued == 1
        assert pipeline.counts.coalesced == 1


class TestValidateAndFix:
    def test_already_consistent_writes_nothing(self, pipeline):
        def puts():
            return sum(1 for e in pipeline.log.entries if e["k"] == "put")

        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        writes_before = puts()
        outcome = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        assert outcome == CONSISTENT
        # one read, zero writes
        assert puts() == writes_before

    def test_missing_record_fixed(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})
        outcome = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        assert outcome == FIXED
        stored = pipeline.target.peek(Key("project_v2", "1"))
        assert stored.value == {"n": "x"}

    def test_tombstoned_source_buries_live_target(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        pipeline.commit("project", "1", delete=True)  # delete never replicated
        outcome = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        assert outcome == FIXED
        assert pipeline.target.peek(Key("project_v2", "1")).tombstone

    def test_unexpected_extra_buried_in_place(self, pipeline):
        orphan = TargetRecord(
            Key("project_v2", "9"), {"n": "ghost"}, {Key("project", "9"): VersionStamp(1, 0)}, False
        )
        pipeline.target.put_if_fresher(orphan)
        outcome = pipeline.healer.validate_and_fix(Key("project_v2", "9"), 0)
        assert outcome == FIXED
        stored = pipeline.target.peek(Key("project_v2", "9"))
        assert stored.tombstone and stored.provenance == orphan.provenance

    def test_unavailable_store_fails_without_regression(self):
        p = build_pipeline(outages=((0, 100),))
        p.commit("project", "1", {"n": "x"})
        outcome = p.healer.validate_and_fix(Key("project_v2", "1"), 0)
        # The check's own read failed: it could not judge the key.
        assert outcome == "unavailable"
        assert p.target.records == {}

    def test_failed_put_is_a_fix_stage_failure(self, pipeline, monkeypatch):
        pipeline.commit("project", "1", {"n": "x"})

        def unavailable(record):
            raise StoreUnavailable(f"put {record.key}")

        monkeypatch.setattr(pipeline.target, "put_if_fresher", unavailable)
        outcome = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        assert outcome == "fix_unavailable"

    def test_missing_parent_enqueues_parent_and_fails(self, pipeline):
        pipeline.commit("project", "1", {"n": "p"})
        pipeline.commit("stage", "1", {"n": "s", "parent_project": "1"})
        outcome = pipeline.healer.validate_and_fix(Key("stage_v2", "1"), 0)
        assert outcome == "missing_parent: project_v2#1"
        queued = {e.target_key for e in pipeline.queue.pending()}
        assert queued == {Key("project_v2", "1")}

    def test_stale_rejection_reported_as_consistent(self, pipeline):
        key = Key("project_v2", "1")
        pipeline.commit("project", "1", {"n": "x"})
        # Target already holds something fresher than the mapped source view.
        fresher = TargetRecord(
            key, {"n": "future"}, {Key("project", "1"): VersionStamp(5, 9)}, False
        )
        pipeline.target.put_if_fresher(fresher)
        outcome = pipeline.healer.validate_and_fix(key, 0)
        assert outcome == CONSISTENT
        assert pipeline.target.peek(key) == fresher


class TestIdempotency:
    def test_fix_twice_equals_once_and_reports_consistent(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})
        first = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        state_once = dict(pipeline.target.records)
        second = pipeline.healer.validate_and_fix(Key("project_v2", "1"), 0)
        assert first == FIXED
        assert second == CONSISTENT
        assert pipeline.target.records == state_once

    def test_randomized_states_idempotent(self):
        rng = random.Random(1234)
        for case in range(150):
            p = build_pipeline(seed=case)
            gid = str(rng.randint(1, 5))
            # random source state
            if rng.random() < 0.8:
                p.commit("project", gid, {"n": f"v{rng.randint(1, 9)}"})
                if rng.random() < 0.3:
                    p.commit("project", gid, delete=True)
            # random target state
            roll = rng.random()
            if roll < 0.4:
                pass  # absent
            elif roll < 0.7:
                p.target.put_if_fresher(
                    TargetRecord(
                        Key("project_v2", gid),
                        {"n": "stale"},
                        {Key("project", gid): VersionStamp(0, 0)},
                        False,
                    )
                )
            else:
                p.target.put_if_fresher(
                    TargetRecord(
                        Key("project_v2", gid),
                        {"n": "live"},
                        {Key("project", gid): VersionStamp(1, 0)},
                        rng.random() < 0.5,
                    )
                )
            key = Key("project_v2", gid)
            first = p.healer.validate_and_fix(key, 0)
            state_once = dict(p.target.records)
            second = p.healer.validate_and_fix(key, 0)
            assert p.target.records == state_once, f"case {case}"
            if first in (FIXED, CONSISTENT):
                assert second == CONSISTENT, f"case {case}"

    def test_provenance_never_regresses(self, pipeline):
        key = Key("project_v2", "1")
        pipeline.commit("project", "1", {"n": "a"})
        pipeline.commit("project", "1", {"n": "b"})
        pipeline.healer.validate_and_fix(key, 0)
        best = pipeline.target.peek(key).provenance[Key("project", "1")]
        for _ in range(3):
            pipeline.healer.validate_and_fix(key, 0)
            now = pipeline.target.peek(key).provenance[Key("project", "1")]
            assert now.counter >= best.counter
            best = now


class TestProcess:
    def test_single_event_drains_healthy(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})
        pipeline.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 0, 0)
        report = pipeline.healer.process(0)
        assert report.processed == 1
        assert pipeline.log.entries[-1]["k"] == "dequeue"
        assert pipeline.log.entries[-1]["res"] == "fixed"
        assert len(pipeline.queue) == 0

    def test_rate_limit_leaves_excess(self):
        p = build_pipeline(policy=RetryPolicy(rate_limit=2))
        for i in range(5):
            p.commit("project", str(i), {"n": "x"})
            p.queue.enqueue(Key("project_v2", str(i)), Trigger.NEARLINE, 0, 0)
        report = p.healer.process(0)
        assert report.processed == 2
        assert len(p.queue) == 3

    def test_backoff_schedule_doubles_up_to_cap(self):
        p = build_pipeline(outages=((0, 1000),), policy=RetryPolicy(max_attempts=5, backoff_base=1, backoff_cap=8))
        p.commit("project", "1", {"n": "x"})
        p.queue.enqueue(Key("project_v2", "1"), Trigger.NEARLINE, 0, 0)
        now = 0
        for _ in range(4):
            p.clock.now = now
            p.healer.process(now)
            now = [row.due for row in p.log.rows if row.kind == "retry"][-1]
        retries = [row for row in p.log.rows if row.kind == "retry"]
        assert [row.due - row.t for row in retries] == [2, 4, 8, 8]  # min(1 * 2^attempts, 8)

    def test_permanent_failure_dead_letters_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=10, backoff_base=1, backoff_cap=8)
        p = build_pipeline(outages=((0, 10_000),), policy=policy)
        p.commit("project", "1", {"n": "x"})
        p.queue.enqueue(Key("project_v2", "1"), Trigger.DUALWRITE, 0, 0)
        rounds = 0
        now = 0
        while len(p.queue) and rounds < 50:
            p.clock.now = now
            if p.healer.process(now).processed:
                rounds += 1
            now += 1
        # Exactly max_attempts failing rounds before the event surfaces.
        assert rounds == 10
        assert [e.target_key for e in p.queue.dead_letters()] == [Key("project_v2", "1")]
        assert [row.reason for row in p.log.rows if row.kind == "dead_letter"] == ["unavailable"]

    def test_dead_letters_never_auto_cleared_and_requeue_drains(self):
        policy = RetryPolicy(max_attempts=2, backoff_base=1, backoff_cap=2)
        p = build_pipeline(outages=((0, 50),), policy=policy)
        p.commit("project", "1", {"n": "x"})
        p.queue.enqueue(Key("project_v2", "1"), Trigger.DUALWRITE, 0, 0)
        for now in range(0, 10):
            p.clock.now = now
            p.healer.process(now)
        assert len(p.queue.dead_letters()) == 1
        assert len(p.queue) == 0
        # Outage over: operator requeues, everything drains.
        p.clock.now = 60
        p.queue.requeue_dead_letters(60)
        assert len(p.queue.dead_letters()) == 0
        p.healer.process(60)
        assert len(p.queue) == 0
        assert p.target.peek(Key("project_v2", "1")).value == {"n": "x"}

    def test_enqueue_during_processing_coalesces_into_in_flight(self, pipeline):
        # Regression guard: a key enqueued while its own event is being
        # processed must not double-insert or strand log accounting.
        key = Key("project_v2", "1")
        pipeline.commit("project", "1", {"n": "x"})
        pipeline.queue.enqueue(key, Trigger.NEARLINE, 0, 0)
        popped = pipeline.queue.pop_due(0, 10)
        assert [e.target_key for e in popped] == [key]
        pipeline.queue.enqueue(key, Trigger.OFFLINE, 0, 5)
        assert pipeline.log.entries[-1]["k"] == "coalesce"
        pipeline.queue.reschedule(popped[0], 2)
        assert len(pipeline.queue) == 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["enqueue", "pop", "reschedule", "finish", "dead_letter", "requeue"]),
                st.integers(0, 4),
                st.integers(0, 3),
            ),
            max_size=60,
        )
    )
    def test_each_pending_event_has_exactly_one_heap_entry(self, steps):
        # `pop_due` relies on this: every heap entry it pops names the
        # pending event of its key, with that event's due tick.
        queue = SelfHealingQueue(EventLog())
        due: dict = {}  # the due tick of each pending key
        in_flight: list = []
        now = 0

        def idle(key):
            return key not in due and all(e.target_key != key for e in in_flight)

        for step, n, dt in steps:
            key = Key("project_v2", str(n))
            if step == "enqueue":
                if idle(key):
                    due[key] = now
                queue.enqueue(key, Trigger.NEARLINE, now, now)
            elif step == "pop":
                popped = queue.pop_due(now, n)
                assert len(popped) <= n
                for event in popped:
                    assert due.pop(event.target_key) <= now
                in_flight += popped
            elif step == "requeue":
                for event in queue.dead_letters():
                    if idle(event.target_key):
                        due[event.target_key] = now
                queue.requeue_dead_letters(now)
            elif in_flight:
                event = in_flight.pop(n % len(in_flight))
                if step == "reschedule":
                    due[event.target_key] = now + dt
                    queue.reschedule(event, now + dt)
                elif step == "finish":
                    queue.finish(event)
                else:
                    queue.dead_letter(event, "gave up", now)
            now += dt
            assert sorted((t, k) for t, _seq, k in queue._heap) == sorted(
                (t, k) for k, t in due.items()
            )
            assert {e.target_key for e in queue.pending()} == set(due)
            assert len(queue._heap) == len(queue)


# Every integer counter of `RepairCounts` at zero.
_NO_COUNTS = dict.fromkeys(
    ["enqueued", "coalesced", "dequeued", "dead_lettered", "requeued", "validation_success",
     "validation_failure", "fix_success", "fix_failure", "retries", "attempts_total"], 0,
)


class TestRepairCounts:
    def test_fold_equals_the_attempts_the_healer_made(self):
        p = build_pipeline(availability=0.7, seed=17, policy=RetryPolicy(max_attempts=3))
        outcomes: Counter = Counter()
        validate_and_fix = p.healer.validate_and_fix

        def tallied(key, now=None):
            outcome = validate_and_fix(key, now)
            outcomes[outcome.partition(":")[0]] += 1
            return outcome

        p.healer.validate_and_fix = tallied
        for i in range(30):
            p.commit("project", str(i), {"n": "x"})
            p.queue.enqueue(Key("project_v2", str(i)), Trigger.NEARLINE, 0, 0)
        for now in range(0, 40):
            p.clock.now = now
            p.healer.process(now)
        # Not vacuous: both stages failed at least once.
        assert outcomes["unavailable"] and outcomes["fix_unavailable"]
        c = p.counts
        assert c.attempts_total == sum(outcomes.values())
        assert c.fix_success == outcomes[FIXED]
        assert c.validation_success == outcomes[CONSISTENT]
        assert c.fix_failure == outcomes["fix_unavailable"] + outcomes["missing_parent"]
        failures = sum(n for word, n in outcomes.items() if word not in (FIXED, CONSISTENT))
        assert c.retries + c.dead_lettered == failures
        assert c.as_dict()["queue_length"] == len(p.queue)
        assert c.dequeued + c.dead_lettered <= c.enqueued

    @pytest.mark.parametrize(
        "rows, want",
        [
            pytest.param(
                [
                    (0, "enqueue", {"trig": "nearline", "sut": 0}),
                    (2, "coalesce", {"trig": "offline", "sut": 2}),
                    (3, "dequeue", {"res": "fixed"}),
                ],
                dict(enqueued=1, coalesced=1, dequeued=1, fix_success=1,
                     validation_failure=1, attempts_total=1,
                     in_queue_latency=Latency(1, 3, 3), pipeline_latency=Latency(1, 1, 1)),
                id="coalesce_into_in_flight_raises_sut",
            ),
            pytest.param(
                [
                    (1, "enqueue", {"trig": "nearline", "sut": 0}),
                    (1, "retry", {"attempts": 1, "due": 3, "reason": "unavailable"}),
                    (3, "retry", {"attempts": 2, "due": 7, "reason": "fix_unavailable"}),
                    (7, "put", {"cls": "repair", "out": "stale_rejected"}),
                    (7, "dequeue", {"res": "consistent"}),
                ],
                dict(enqueued=1, dequeued=1, retries=2, validation_success=1,
                     validation_failure=3, fix_failure=1, attempts_total=3,
                     in_queue_latency=Latency(1, 6, 6), pipeline_latency=Latency(1, 7, 7)),
                id="retry_keeps_the_enqueue_tick",
            ),
            pytest.param(
                [
                    (0, "put", {"cls": "backfill", "out": "unavailable"}),
                    (0, "enqueue", {"trig": "bootstrap", "sut": 0}),
                    (1, "dead_letter", {"reason": "missing_parent: ('project_v2', '9')"}),
                    (10, "requeue", {}),
                    (10, "enqueue", {"trig": "bootstrap", "sut": 0}),
                    (12, "dequeue", {"res": "fixed"}),
                ],
                dict(enqueued=2, dequeued=1, dead_lettered=1, requeued=1, fix_success=1,
                     validation_failure=2, fix_failure=1, attempts_total=3,
                     in_queue_latency=Latency(1, 2, 2), pipeline_latency=Latency(1, 12, 12)),
                id="requeue_opens_a_new_event",
            ),
        ],
    )
    def test_fold_over_hand_built_rows(self, rows, want):
        log = EventLog()
        for t, kind, data in rows:
            log.append(t, kind, Key("project_v2", "1"), **data)
        assert fold_log(log.rows, rows[-1][0]).counts == RepairCounts(**(_NO_COUNTS | want))

    def test_latency_of_values_and_its_rounded_summary(self):
        assert Latency.of([1, 1, 2]) == Latency(3, 4 / 3, 2)
        assert Latency.of([]) == Latency(0, 0.0, 0)
        counters = RepairCounts(
            **_NO_COUNTS, in_queue_latency=Latency.of([1, 1, 2]), pipeline_latency=Latency.of([])
        ).as_dict()
        # Only the report's copy of a mean is rounded.
        assert counters["in_queue_latency"] == {"count": 3, "mean": 1.333, "max": 2}
        assert counters["pipeline_latency"] == {"count": 0, "mean": 0.0, "max": 0}
        assert counters["queue_length"] == 0
