from __future__ import annotations

import pytest

from migsim import domain, verifiers
from migsim.domain import BOOTSTRAP_COUNTER, Key, TargetRecord, VersionStamp
from migsim.healing import Trigger
from migsim.stores import ChangeEvent, Clock, FaultProfile, LegacyStore, Snapshot, SourceRecord
from migsim.verifiers import (
    BootstrapJob,
    NearlineResult,
    NearlineVerifier,
    OfflineVerifier,
    RateLimiter,
    ShadowOutcome,
    ShadowReader,
)

from conftest import build_pipeline


def make_snapshot(records, taken_at=0) -> Snapshot:
    return Snapshot(taken_at, {r.key: r for r in records})


def srec(etype, gid, value, counter=1, t=0, tomb=False) -> SourceRecord:
    return SourceRecord(
        Key(etype, gid), {} if tomb else value, VersionStamp(counter, t), tomb
    )


class TestRateLimiter:
    def test_backfill_gets_only_spare_capacity(self):
        limiter = RateLimiter(10)
        limiter.begin_tick(0)
        limiter.note_live(7)
        assert limiter.try_backfill(3)
        assert not limiter.try_backfill(1)

    def test_live_is_never_blocked_by_backfill(self):
        limiter = RateLimiter(10)
        limiter.begin_tick(0)
        assert limiter.try_backfill(10)
        limiter.note_live(5)  # live just runs; accounting only
        assert limiter.used_live == 5

    def test_capacity_resets_each_tick(self):
        limiter = RateLimiter(4)
        limiter.begin_tick(0)
        assert limiter.try_backfill(4)
        limiter.begin_tick(1)
        assert limiter.try_backfill(4)

    def test_usage_trace_records_busy_ticks(self):
        limiter = RateLimiter(4)
        limiter.begin_tick(0)
        limiter.note_live(2)
        limiter.try_backfill(1)
        limiter.begin_tick(1)
        limiter.finish()
        assert limiter.usage_trace == [(0, 2, 1)]


class TestBootstrap:
    def test_empty_snapshot_zero_events(self, pipeline):
        job = BootstrapJob(
            pipeline.schema, make_snapshot([]), pipeline.target, pipeline.queue,
            pipeline.registry, pipeline.log,
        )
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        assert job.done
        assert job.report.groups_total == 0
        assert job.report.events_enqueued == 0
        assert job.report.duration_ticks == 0

    def test_queue_mode_enqueues_in_dependency_order(self, pipeline):
        snap = make_snapshot(
            [
                srec("candidate", "1", {"n": "c", "parent_project": "1", "parent_stage": "1"}),
                srec("stage", "1", {"n": "s", "parent_project": "1"}),
                srec("project", "1", {"n": "p"}),
                srec("candidate", "2", {"n": "c", "parent_project": "1", "parent_stage": "1"}),
            ]
        )
        job = BootstrapJob(
            pipeline.schema, snap, pipeline.target, pipeline.queue,
            pipeline.registry, pipeline.log, mode="queue",
        )
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        types = [e["key"][0] for e in pipeline.log.entries if e["k"] == "enqueue"]
        assert types == ["project_v2", "stage_v2", "candidate_v2", "candidate_v2"]

    def test_direct_mode_writes_snapshot_time_provenance(self, pipeline):
        snap = make_snapshot([srec("project", "1", {"n": "p"}, counter=4, t=3)], taken_at=5)
        job = BootstrapJob(
            pipeline.schema, snap, pipeline.target, pipeline.queue,
            pipeline.registry, pipeline.log, mode="direct",
        )
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        stored = pipeline.target.peek(Key("project_v2", "1"))
        assert stored.provenance == {Key("project", "1"): VersionStamp(BOOTSTRAP_COUNTER, 5)}

    def test_rate_limit_arithmetic(self, pipeline):
        # 1,000 groups through a 159/tick cap with idle live traffic.
        records = [srec("project", str(i), {"n": "p"}) for i in range(1000)]
        job = BootstrapJob(
            pipeline.schema, make_snapshot(records), pipeline.target, pipeline.queue,
            pipeline.registry, pipeline.log, mode="direct",
        )
        limiter = RateLimiter(159)
        now = 0
        while not job.done:
            limiter.begin_tick(now)
            job.step(now, limiter)
            now += 1
        assert job.report.duration_ticks == 7  # ceil(1000 / 159)

    def test_backfill_waits_for_live_traffic(self, pipeline):
        records = [srec("project", str(i), {"n": "p"}) for i in range(10)]
        job = BootstrapJob(
            pipeline.schema, make_snapshot(records), pipeline.target, pipeline.queue,
            pipeline.registry, pipeline.log, mode="direct",
        )
        limiter = RateLimiter(10)
        limiter.begin_tick(0)
        limiter.note_live(10)  # tick saturated by live traffic
        assert job.step(0, limiter) == 0
        limiter.begin_tick(1)
        job.step(1, limiter)
        assert job.done

    def test_descendants_of_failed_parent_route_through_queue(self):
        from migsim.stores import StoreUnavailable

        p = build_pipeline()
        snap = make_snapshot(
            [
                srec("project", "1", {"n": "p"}),
                srec("stage", "1", {"n": "s", "parent_project": "1"}),
            ]
        )
        job = BootstrapJob(
            p.schema, snap, p.target, p.queue, p.registry, p.log, mode="direct"
        )
        original_put = p.target.put_if_fresher

        def failing_project_put(record):
            if record.key.etype == "project_v2":
                raise StoreUnavailable(str(record.key))
            return original_put(record)

        p.target.put_if_fresher = failing_project_put
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        # Neither record was written directly; both ride the queue.
        assert p.target.peek(Key("stage_v2", "1")) is None
        queued = {e.target_key for e in p.queue.pending()}
        assert queued == {Key("project_v2", "1"), Key("stage_v2", "1")}


class TestNearline:
    def test_settled_dual_write_verifies_clean(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "x"})
        pipeline.dualwriter.on_commit(event)
        pipeline.dualwriter.run_due(0)
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, pipeline.clock, settle_delay=0,
        )
        assert verifier.verify(event, 0) is NearlineResult.VERIFIED
        assert len(pipeline.queue) == 0

    def test_silent_dual_write_failure_enqueued(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "x"})  # never replicated
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, pipeline.clock, settle_delay=0,
        )
        assert verifier.verify(event, 0) is NearlineResult.ENQUEUED
        queued = {e.target_key for e in pipeline.queue.pending()}
        assert queued == {Key("project_v2", "1")}
        # The queue later repairs it.
        pipeline.healer.process(0)
        assert pipeline.target.peek(Key("project_v2", "1")).value == {"n": "x"}

    def test_delivery_plus_settle_delay_schedules_check(self, pipeline):
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, pipeline.clock, settle_delay=5,
        )
        event = ChangeEvent(1, Key("project", "1"), VersionStamp(1, 10), "write")
        verifier.on_delivery(event, 12)  # commit at 10, stream lag 2
        pipeline.commit("project", "1", {"n": "x"})
        verifier.run_due(16)
        assert verifier.checked == 0
        verifier.run_due(17)
        assert verifier.checked == 1

    def test_unavailable_target_enqueues_conservatively(self):
        p = build_pipeline(outages=((0, 10),))
        event = p.commit("project", "1", {"n": "x"})
        verifier = NearlineVerifier(
            p.schema, p.legacy, p.target, p.queue, p.log, p.clock, settle_delay=0
        )
        assert verifier.verify(event, 0) is NearlineResult.ENQUEUED


class TestShadowRead:
    def _reader(self, p, interval=10) -> ShadowReader:
        return ShadowReader(
            p.schema, p.legacy, p.target, p.queue, p.log, p.clock, alarm_interval=interval
        )

    def test_consistent_key_matches_quietly(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        result = reader.on_read(Key("project", "1"), record, 0)
        assert result.outcome is ShadowOutcome.MATCH
        assert len(pipeline.queue) == 0

    def test_stale_target_reported_and_enqueued(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "old"})
        pipeline.commit("project", "1", {"n": "new"})  # dual write lost
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        result = reader.on_read(Key("project", "1"), record, 0)
        assert result.outcome is ShadowOutcome.DISCREPANCY
        assert "stale" in result.detail
        assert len(pipeline.queue) == 1

    def test_tombstoned_source_with_live_target_is_resurrection(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        pipeline.commit("project", "1", delete=True)  # delete not replicated
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        result = reader.on_read(Key("project", "1"), record, 0)
        assert result.outcome is ShadowOutcome.DISCREPANCY
        assert "resurrection" in result.detail

    def test_per_key_alarms_are_rate_limited(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})  # missing in target
        reader = self._reader(pipeline, interval=10)
        record = pipeline.legacy.read(Key("project", "1"))
        reader.on_read(Key("project", "1"), record, 0)
        assert pipeline.registry.enqueued == 1
        reader.on_read(Key("project", "1"), record, 5)  # within interval: no new event
        assert pipeline.registry.enqueued + pipeline.registry.coalesced == 1
        reader.on_read(Key("project", "1"), record, 10)  # interval over
        assert pipeline.registry.enqueued + pipeline.registry.coalesced == 2


class TestOfflineVerify:
    def _run(self, p, records, target_view=None, cutoff=0, taken_at=100, now=100):
        snap = make_snapshot(records, taken_at=taken_at)
        verifier = OfflineVerifier(p.schema, p.queue, p.log)
        view = target_view if target_view is not None else dict(p.target.records)
        return verifier.run(snap, view, cutoff, now)

    def test_fully_consistent_rate_one(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        report = self._run(pipeline, list(pipeline.legacy.records.values()))
        assert report.consistency_rate == 1.0
        assert report.enqueued == 0

    def test_missing_key_flagged_and_enqueued(self, pipeline):
        records = [srec("project", str(i), {"n": "p"}) for i in range(100)]
        for r in records[:99]:
            pipeline.legacy.records[r.key] = r
        # replicate 99 of 100 into the target
        for r in records[:99]:
            pipeline.target.put_if_fresher(
                TargetRecord(Key("project_v2", r.key.id), dict(r.value), {r.key: r.version}, False)
            )
        pipeline.legacy.records[records[99].key] = records[99]
        report = self._run(pipeline, records)
        assert report.scanned_keys == 100
        assert report.counts["missing"] == 1
        assert report.enqueued == 1
        assert report.consistency_rate == pytest.approx(0.99)

    def test_cutoff_skips_in_flight_updates(self, pipeline):
        old = srec("project", "1", {"n": "old"}, counter=1, t=10)
        recent = srec("project", "2", {"n": "new"}, counter=1, t=95)
        report = self._run(pipeline, [old, recent], cutoff=24, taken_at=100)
        assert report.scanned_groups == 1
        assert report.skipped_recent_groups == 1

    def test_recent_groups_are_skipped_before_mapping(self, pipeline, monkeypatch):
        calls = []

        def counted(rule, sources):
            calls.append(rule.name)
            return real(rule, sources)

        real = domain.map_source
        monkeypatch.setattr(domain, "map_source", counted)
        monkeypatch.setattr(verifiers, "map_source", counted)
        recent = [srec("project", str(i), {"n": "x"}, t=95) for i in range(3)]
        report = self._run(pipeline, recent, cutoff=24, taken_at=100)
        assert calls == []
        assert report.as_dict() == {
            "run_at": 100, "snapshot_time": 100, "cutoff": 24, "scanned_groups": 0,
            "scanned_keys": 0, "skipped_recent_groups": 3, "counts": {}, "enqueued": 0,
            "consistency_rate": 1.0,
        }

    def test_report_text_contains_rate(self, pipeline):
        report = self._run(pipeline, [])
        assert "consistency rate: 1.000000" in report.to_text()
