"""What each trigger and each measurement does with a group that fails to map.

One rule raises `TransformError` on one value.  Every caller that maps a
rule group meets it; each is pinned here by what it returns, the target
reads it makes (none), the registry counters it moves and the log lines it
writes.
"""

from __future__ import annotations

import dataclasses

import pytest

from migsim.domain import (
    DiscrepancyClass,
    EntityType,
    Key,
    MappingRule,
    TransformError,
    register_schema,
)
from migsim.dualwrite import ReplicateResult
from migsim.healing import FixOutcome, FixStatus, RetryPolicy, Trigger
from migsim.metrics import ConsistencyTracker, consistency_rate
from migsim.scenario import load_file
from migsim.simulation import run_scenario
from migsim.verifiers import (
    BootstrapJob,
    NearlineResult,
    NearlineVerifier,
    OfflineVerifier,
    RateLimiter,
    ShadowOutcome,
    ShadowReader,
    ShadowResult,
)

from conftest import build_pipeline, scenario_path

SOURCE = Key("project", "1")
PART_A, PART_B = Key("part_a", "1"), Key("part_b", "1")
REASON = "mapping_bug: bad value on project#1"


def _raising_schema():
    def transform(sources):
        (rec,) = [r for r in sources.values() if not r.tombstone]
        if rec.value.get("n") == "bug":
            raise TransformError(f"bad value on {rec.key}")
        return [(Key(tt, rec.key.id), dict(rec.value)) for tt in ("part_a", "part_b")]

    return register_schema(
        [EntityType("project")],
        [MappingRule("project_rule", ("project",), ("part_a", "part_b"), transform)],
    )


def _enqueue_lines(trigger: str) -> list[dict]:
    return [
        {"t": 0, "k": "enqueue", "key": key, "trig": trigger, "sut": 0}
        for key in (PART_A, PART_B)
    ]


def _dualwrite(p, event):
    return p.dualwriter.replicate(p.dualwriter.on_commit(event), 0)


def _nearline(p, event):
    verifier = NearlineVerifier(p.schema, p.legacy, p.target, p.queue, p.log, p.clock, 0)
    return verifier.verify(event, 0)


def _shadow(p, event):
    reader = ShadowReader(p.schema, p.legacy, p.target, p.queue, p.log, p.clock)
    return reader.on_read(SOURCE, p.legacy.read(SOURCE), 0)


def _healer(p, event):
    p.healer.policy = RetryPolicy(max_attempts=1)
    p.queue.enqueue(PART_A, Trigger.NEARLINE, 0, 0)
    return p.healer.validate_and_fix(PART_A, 0), dataclasses.asdict(p.healer.process(0))


def _offline(p, event):
    verifier = OfflineVerifier(p.schema, p.queue, p.log)
    return verifier.run(p.legacy.take_snapshot(0), dict(p.target.records), 0, 0).as_dict()


def _tracker(p, event):
    tracker = ConsistencyTracker(p.schema, p.legacy.read, p.target.peek)
    tracker.mark_source(SOURCE, 0)
    return tracker.rates(0, 10), tracker.class_counts()


def _full_scan(p, event):
    return consistency_rate(p.schema, p.legacy.records, p.target.records, 0, 10)


_CORRUPT_COUNTS = {c: 0 for c in DiscrepancyClass} | {DiscrepancyClass.CORRUPT: 2}

CASES = {
    "dualwrite": (
        _dualwrite,
        ReplicateResult.FAILED_ENQUEUED,
        {"enqueued": 2, "queue_length": 2},
        _enqueue_lines("dualwrite"),
    ),
    "nearline": (
        _nearline,
        NearlineResult.ENQUEUED,
        {"enqueued": 2, "queue_length": 2},
        [{"t": 0, "k": "verify", "key": SOURCE, "src": "nearline", "res": "enqueued", "n": 2}]
        + _enqueue_lines("nearline"),
    ),
    "shadow": (
        _shadow,
        ShadowResult(ShadowOutcome.DISCREPANCY, REASON),
        {"enqueued": 2, "queue_length": 2},
        [{"t": 0, "k": "verify", "key": SOURCE, "src": "shadow", "res": REASON}]
        + _enqueue_lines("shadowread"),
    ),
    "healer": (
        _healer,
        (
            FixOutcome(FixStatus.FAILED, REASON),
            {"processed": 1, "consistent": 0, "fixed": 0, "failed": 1, "dead_lettered": 1},
        ),
        {"enqueued": 1, "dead_lettered": 1, "validation_failure": 2, "attempts_total": 2},
        [
            {"t": 0, "k": "enqueue", "key": PART_A, "trig": "nearline", "sut": 0},
            {"t": 0, "k": "dead_letter", "key": PART_A, "reason": REASON},
        ],
    ),
    "offline": (
        _offline,
        {
            "run_at": 0, "snapshot_time": 0, "cutoff": 0, "scanned_groups": 1,
            "scanned_keys": 2, "skipped_recent_groups": 0,
            "counts": {"transform_error": 2}, "enqueued": 2, "consistency_rate": 0.0,
        },
        {"enqueued": 2, "queue_length": 2},
        _enqueue_lines("offline")
        + [{"t": 0, "k": "offline_done", "scanned": 2, "enqueued": 2, "rate": 0.0}],
    ),
    "tracker": (_tracker, ((0.0, 1.0, 2, 2), _CORRUPT_COUNTS), {}, []),
    "full_scan": (_full_scan, (0.0, 1.0, _CORRUPT_COUNTS), {}, []),
}


@pytest.mark.parametrize("caller", list(CASES))
def test_a_group_that_fails_to_map_reads_no_target(caller):
    act, want_result, want_counters, want_lines = CASES[caller]
    p = build_pipeline(schema=_raising_schema())
    event = p.commit("project", "1", {"n": "bug"})
    result = act(p, event)
    counters = {
        name: n for name, n in p.registry.counters_dict().items()
        if n and not isinstance(n, dict)
    }
    lines = [{k: v for k, v in e.items() if k != "seq"} for e in p.log.entries]
    assert result == want_result
    assert p.target.op_count == 0
    assert counters == want_counters
    assert lines == want_lines


def test_direct_bootstrap_sends_a_group_that_fails_to_map_to_the_queue():
    p = build_pipeline(schema=_raising_schema())
    p.commit("project", "1", {"n": "bug"})
    p.commit("project", "2", {"n": "ok"})
    job = BootstrapJob(
        p.schema, p.legacy.take_snapshot(0), p.target, p.queue, p.registry, p.log,
        mode="direct",
    )
    limiter = RateLimiter(100)
    limiter.begin_tick(0)
    job.step(0, limiter)
    assert job.done
    queued = sorted((e.target_key, e.trigger) for e in p.queue.pending())
    assert queued == [(PART_A, Trigger.BOOTSTRAP), (PART_B, Trigger.BOOTSTRAP)]
    assert sorted(p.target.records) == [Key("part_a", "2"), Key("part_b", "2")]
    assert job.report.events_enqueued == 2
    assert job.report.puts == 2


def test_direct_bootstrap_inside_the_bug_window_runs_to_the_end():
    scenario = load_file(scenario_path("mapping_bug"))
    scenario = dataclasses.replace(
        scenario, bootstrap=dataclasses.replace(scenario.bootstrap, at=100)
    )
    bug = scenario.bug
    assert scenario.bootstrap.mode == "direct" and bug.active_at(100)
    result = run_scenario(scenario)
    # Every candidate group fails to map, and each of its keys reaches the
    # queue; a key that a failed dual write already queued coalesces.
    routed = [
        tuple(e["key"]) for e in result.log.entries
        if e["k"] in ("enqueue", "coalesce") and e["trig"] == "bootstrap"
    ]
    assert routed
    assert {etype for etype, _ in routed} == {"candidate_v2"}
    assert result.report.bootstrap["events_enqueued"] == len(routed) == len(set(routed))
    assert result.report.dead_letters == []  # drained after the requeue
    assert result.report.ok
