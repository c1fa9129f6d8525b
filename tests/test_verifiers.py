from __future__ import annotations

import pytest

from migsim import domain
from migsim.domain import BOOTSTRAP_COUNTER, DiscrepancyClass, Key, TargetRecord, VersionStamp
from migsim.healing import Trigger
from migsim.metrics import ConsistencyTracker, iter_groups
from migsim.scenario import load_file
from migsim.simulation import _SimState, run_scenario
from migsim.stores import ChangeEvent, Clock, FaultProfile, LegacyStore, Snapshot, SourceRecord
from migsim.verifiers import (
    BootstrapJob,
    NearlineVerifier,
    OfflineVerifier,
    RateLimiter,
    ShadowReader,
)

from conftest import (
    SCENARIO_DIR,
    bootstrap_section,
    build_pipeline,
    ignore_note,
    scenario_path,
)

BENCH_SCENARIO_DIR = SCENARIO_DIR.parent / "bench" / "scenarios"


def verify_rows(log, src: str) -> list[str]:
    """The `res` of each `verify` row that trigger `src` logged."""
    return [e["res"] for e in log.entries if e["k"] == "verify" and e["src"] == src]


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
            pipeline.log, ignore_note,
        )
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        assert job.done
        section = bootstrap_section(job, pipeline.log)
        assert section["groups_total"] == 0
        assert section["events_enqueued"] == 0
        assert section["duration_ticks"] == 0

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
            pipeline.log, ignore_note, mode="queue",
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
            pipeline.log, ignore_note, mode="direct",
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
            pipeline.log, ignore_note, mode="direct",
        )
        limiter = RateLimiter(159)
        now = 0
        while not job.done:
            limiter.begin_tick(now)
            job.step(now, limiter)
            now += 1
        assert bootstrap_section(job, pipeline.log)["duration_ticks"] == 7  # ceil(1000 / 159)

    def test_backfill_waits_for_live_traffic(self, pipeline):
        records = [srec("project", str(i), {"n": "p"}) for i in range(10)]
        job = BootstrapJob(
            pipeline.schema, make_snapshot(records), pipeline.target, pipeline.queue,
            pipeline.log, ignore_note, mode="direct",
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
            p.schema, snap, p.target, p.queue, p.log, ignore_note, mode="direct"
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

    def test_section_counts_puts_failures_and_queued_events_from_the_log(self):
        # Tick 0 lies in an outage: both project puts fail and queue their
        # key, and the stage, whose parent failed, is queued unwritten.  A
        # key already queued by another trigger coalesces and still counts;
        # that other trigger's event does not.
        p = build_pipeline(outages=((0, 10),))
        snap = make_snapshot(
            [
                srec("project", "1", {"n": "p"}),
                srec("project", "2", {"n": "p"}),
                srec("stage", "1", {"n": "s", "parent_project": "1"}),
            ]
        )
        job = BootstrapJob(
            p.schema, snap, p.target, p.queue, p.log, ignore_note, mode="direct"
        )
        p.queue.enqueue(Key("project_v2", "2"), Trigger.NEARLINE, 0, 0)
        limiter = RateLimiter(100)
        limiter.begin_tick(0)
        job.step(0, limiter)
        section = bootstrap_section(job, p.log)
        assert (section["puts"], section["put_failures"], section["events_enqueued"]) == (2, 2, 3)
        assert section["groups_processed"] == section["groups_total"] == 3
        assert section["duration_ticks"] == 1
        ends = [row.groups for row in p.log.rows if row.kind == "bootstrap"]
        assert ends == [3, 3]


class TestNearline:
    def test_settled_dual_write_verifies_clean(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "x"})
        pipeline.dualwriter.on_commit(event)
        pipeline.dualwriter.run_due(0)
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, settle_delay=0,
        )
        verifier.verify(event, 0)
        assert verify_rows(pipeline.log, "nearline") == ["ok"]
        assert len(pipeline.queue) == 0

    def test_silent_dual_write_failure_enqueued(self, pipeline):
        event = pipeline.commit("project", "1", {"n": "x"})  # never replicated
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, settle_delay=0,
        )
        verifier.verify(event, 0)
        assert verify_rows(pipeline.log, "nearline") == ["enqueued"]
        queued = {e.target_key for e in pipeline.queue.pending()}
        assert queued == {Key("project_v2", "1")}
        # The queue later repairs it.
        pipeline.healer.process(0)
        assert pipeline.target.peek(Key("project_v2", "1")).value == {"n": "x"}

    def test_delivery_plus_settle_delay_schedules_check(self, pipeline):
        verifier = NearlineVerifier(
            pipeline.schema, pipeline.legacy, pipeline.target, pipeline.queue,
            pipeline.log, settle_delay=5,
        )
        event = ChangeEvent(1, Key("project", "1"), VersionStamp(1, 10), "write")
        verifier.on_delivery(event, 12)  # commit at 10, stream lag 2
        pipeline.commit("project", "1", {"n": "x"})
        verifier.run_due(16)
        assert verify_rows(pipeline.log, "nearline") == []
        verifier.run_due(17)
        assert verify_rows(pipeline.log, "nearline") == ["enqueued"]  # never replicated

    def test_unavailable_target_enqueues_conservatively(self):
        p = build_pipeline(outages=((0, 10),))
        event = p.commit("project", "1", {"n": "x"})
        verifier = NearlineVerifier(
            p.schema, p.legacy, p.target, p.queue, p.log, settle_delay=0
        )
        verifier.verify(event, 0)
        assert verify_rows(p.log, "nearline") == ["enqueued"]
        assert {e.target_key for e in p.queue.pending()} == {Key("project_v2", "1")}


class TestShadowRead:
    def _reader(self, p, interval=10) -> ShadowReader:
        return ShadowReader(
            p.schema, p.legacy, p.target, p.queue, p.log, alarm_interval=interval
        )

    def test_consistent_key_matches_quietly(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        reader.on_read(Key("project", "1"), record, 0)
        assert verify_rows(pipeline.log, "shadow") == []
        assert len(pipeline.queue) == 0

    def test_stale_target_reported_and_enqueued(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "old"})
        pipeline.commit("project", "1", {"n": "new"})  # dual write lost
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        reader.on_read(Key("project", "1"), record, 0)
        assert verify_rows(pipeline.log, "shadow") == ["stale"]
        assert len(pipeline.queue) == 1

    def test_tombstoned_source_with_live_target_is_resurrection(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        pipeline.commit("project", "1", delete=True)  # delete not replicated
        reader = self._reader(pipeline)
        record = pipeline.legacy.read(Key("project", "1"))
        reader.on_read(Key("project", "1"), record, 0)
        assert verify_rows(pipeline.log, "shadow") == ["resurrection"]

    def test_per_key_alarms_are_rate_limited(self, pipeline):
        pipeline.commit("project", "1", {"n": "x"})  # missing in target
        reader = self._reader(pipeline, interval=10)
        record = pipeline.legacy.read(Key("project", "1"))
        reader.on_read(Key("project", "1"), record, 0)
        assert pipeline.counts.enqueued == 1
        reader.on_read(Key("project", "1"), record, 5)  # within interval: no new event
        assert pipeline.counts.enqueued + pipeline.counts.coalesced == 1
        reader.on_read(Key("project", "1"), record, 10)  # interval over
        assert pipeline.counts.enqueued + pipeline.counts.coalesced == 2


class TestOfflineVerify:
    def _tracker(self, p, records) -> ConsistencyTracker:
        """A tracker that saw each of `records` committed at its own commit
        time."""
        tracker = ConsistencyTracker(p.schema, p.legacy.read, p.target.peek)
        for r in sorted(records, key=lambda r: r.version.commit_time):
            p.legacy.records[r.key] = r
            tracker.mark_source(r.key, r.version.commit_time)
        return tracker

    def _run(self, p, records, cutoff=0, now=100):
        return OfflineVerifier(self._tracker(p, records), p.queue, p.log).run(now, cutoff)

    def _done_row(self, p) -> dict:
        entry = p.log.entries[-1]
        assert entry["k"] == "offline_done"
        return entry

    def _queued(self, p) -> list[tuple[Key, int]]:
        return [(e.target_key, e.source_update_time) for e in p.queue.pending()]

    def test_fully_consistent_rate_one(self, pipeline):
        pipeline.commit_and_replicate("project", "1", {"n": "x"})
        report = self._run(pipeline, list(pipeline.legacy.records.values()))
        assert self._done_row(pipeline)["rate"] == 1.0
        assert report.enqueued == 0

    def test_missing_key_flagged_and_enqueued(self, pipeline):
        records = [srec("project", str(i), {"n": "p"}) for i in range(100)]
        # replicate 99 of 100 into the target
        for r in records[:99]:
            pipeline.target.put_if_fresher(
                TargetRecord(Key("project_v2", r.key.id), dict(r.value), {r.key: r.version}, False)
            )
        report = self._run(pipeline, records)
        assert report.scanned_keys == 100
        assert verify_rows(pipeline.log, "offline") == ["missing"]
        assert report.enqueued == 1
        done = self._done_row(pipeline)
        assert (done["scanned"], done["enqueued"]) == (100, 1)
        assert done["rate"] == pytest.approx(0.99)

    def test_cutoff_skips_in_flight_updates(self, pipeline):
        old = srec("project", "1", {"n": "old"}, counter=1, t=10)
        recent = srec("project", "2", {"n": "new"}, counter=1, t=95)
        report = self._run(pipeline, [old, recent], cutoff=24)
        assert report.scanned_keys == 1
        assert self._queued(pipeline) == [(Key("project_v2", "1"), 10)]

    def test_horizon_is_inclusive(self, pipeline):
        # now 100, cutoff 24: the horizon is tick 76.
        at_horizon = srec("project", "1", {"n": "a"}, t=76)
        past_horizon = srec("project", "2", {"n": "b"}, t=77)
        report = self._run(pipeline, [at_horizon, past_horizon], cutoff=24)
        assert (report.scanned_keys, report.enqueued) == (1, 1)
        assert self._queued(pipeline) == [(Key("project_v2", "1"), 76)]

    def test_a_sweep_with_nothing_dirty_maps_nothing(self, pipeline, monkeypatch):
        recent = [srec("project", str(i), {"n": "x"}, t=95) for i in range(3)]
        settled = srec("project", "9", {"n": "y"}, t=10)
        pipeline.target.put_if_fresher(
            TargetRecord(Key("project_v2", "9"), {"n": "y"}, {settled.key: settled.version}, False)
        )
        tracker = self._tracker(pipeline, [*recent, settled])
        tracker.rates(100, 0)  # maps every group
        pipeline.log.rows.clear()
        calls = []

        def counted(rule, sources):
            calls.append(rule.name)
            return real(rule, sources)

        real = domain.map_source
        monkeypatch.setattr(domain, "map_source", counted)
        report = OfflineVerifier(tracker, pipeline.queue, pipeline.log).run(100, 24)
        assert calls == []
        assert (report.scanned_keys, report.enqueued) == (1, 0)
        assert [
            {k: v for k, v in e.items() if k != "seq"} for e in pipeline.log.entries
        ] == [{"t": 100, "k": "offline_done", "scanned": 1, "enqueued": 0, "rate": 1.0}]

    @pytest.mark.parametrize(
        "path",
        [
            scenario_path("catchall"),
            BENCH_SCENARIO_DIR / "live_churn.json",
            BENCH_SCENARIO_DIR / "reshape_queue.json",
        ],
        ids=lambda p: p.stem,
    )
    def test_sweep_rows_equal_a_full_scan_of_settled_groups(self, monkeypatch, path):
        """At every offline tick of a run, the rows the sweep logs are those
        a brute-force `check_group` scan of the settled groups implies."""
        states = []
        init = _SimState.__init__

        def remembered_init(self, *args):
            init(self, *args)
            states.append(self)

        sweeps = []
        run = OfflineVerifier.run

        def checked_run(self, now, cutoff):
            (sim,) = states
            want = _full_scan_rows(sim, now, now - cutoff)
            start = len(sim.log.rows)
            report = run(self, now, cutoff)
            sweeps.append((_sweep_rows(sim.log.rows[start:]), want))
            return report

        monkeypatch.setattr(_SimState, "__init__", remembered_init)
        monkeypatch.setattr(OfflineVerifier, "run", checked_run)
        run_scenario(load_file(path), seed=1)
        assert sweeps
        assert any(got[-1][1] for got, _ in sweeps)  # some sweep scanned keys
        for got, want in sweeps:
            assert got == want


def _full_scan_rows(sim, now: int, horizon: int) -> list[tuple]:
    """The rows an offline sweep at `now` should log, from a full scan of
    the legacy store against the target (read without fault draws), in
    (rule name, group id) order as the sweep logs them."""
    rows, scanned = [], 0
    groups = iter_groups(sim.schema, sim.legacy.records)
    for rule, gid in sorted(groups, key=lambda g: (g[0].name, g[1])):
        sources = domain.read_group(rule, gid, sim.legacy.records.get)
        newest = max(rec.version.commit_time for rec in sources.values())
        if newest > horizon:
            continue
        _expected, verdicts, bug = sim.schema.check_group(
            rule, sources, sim.target.records.get, rule.target_keys(gid), now
        )
        scanned += len(verdicts)
        for tkey, verdict in verdicts.items():
            if verdict is not DiscrepancyClass.CONSISTENT:
                rows.append(("queue", tkey, "offline", newest))
                if not bug:
                    rows.append(("verify", tkey, "offline", verdict.value))
    enqueued = sum(row[0] == "queue" for row in rows)
    rate = (scanned - enqueued) / scanned if scanned else 1.0
    return rows + [("offline_done", scanned, enqueued, round(rate, 6))]


def _sweep_rows(rows) -> list[tuple]:
    """Log rows as `_full_scan_rows` spells them; enqueue and coalesce alike
    are one queue row."""
    out = []
    for row in rows:
        if row.kind in ("enqueue", "coalesce"):
            out.append(("queue", row.key, row.trig, row.sut))
        elif row.kind == "verify":
            out.append(("verify", row.key, row.src, row.res))
        else:
            out.append((row.kind, row.scanned, row.enqueued, row.rate))
    return out
