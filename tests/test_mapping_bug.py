"""What each trigger and each measurement does with a group that fails to map.

One rule raises `TransformError` on one value.  Every caller that maps a
rule group meets it; each is pinned here by what it returns (the dual
writer, nearline and shadow triggers return nothing), the target reads it
makes (none), the repair counters folded from its log and the log lines it
writes.  The healer case also calls validate-and-fix directly; only the
attempt that `process` logs counts.
"""

from __future__ import annotations

import dataclasses

import pytest

from migsim.domain import (
    DiscrepancyClass,
    EntityType,
    Key,
    MappingRule,
    Schema,
    TransformError,
)
from migsim.healing import RetryPolicy, Trigger
from migsim.metrics import ConsistencyTracker, consistency_rate
from migsim.oracle import oracle_verify
from migsim.scenario import load_file
from migsim.simulation import run_scenario
from migsim.verifiers import (
    BootstrapJob,
    NearlineVerifier,
    OfflineVerifier,
    RateLimiter,
    ShadowReader,
)

from conftest import bootstrap_section, build_pipeline, scenario_path

SOURCE = Key("project", "1")
PART_A, PART_B = Key("part_a", "1"), Key("part_b", "1")
REASON = "mapping_bug: bad value on project#1"


def _raising_schema():
    def transform(sources):
        (rec,) = [r for r in sources.values() if not r.tombstone]
        if rec.value.get("n") == "bug":
            raise TransformError(f"bad value on {rec.key}")
        return [(Key(tt, rec.key.id), dict(rec.value)) for tt in ("part_a", "part_b")]

    return Schema(
        [EntityType("project")],
        [MappingRule("project_rule", ("project",), ("part_a", "part_b"), transform)],
    )


def _enqueue_lines(trigger: str) -> list[dict]:
    return [
        {"t": 0, "k": "enqueue", "key": key, "trig": trigger, "sut": 0}
        for key in (PART_A, PART_B)
    ]


def _dualwrite(p, event):
    return p.dualwriter.replicate(event, 0)


def _nearline(p, event):
    verifier = NearlineVerifier(p.schema, p.legacy, p.target, p.queue, p.log, 0)
    return verifier.verify(event, 0)


def _shadow(p, event):
    reader = ShadowReader(p.schema, p.legacy, p.target, p.queue, p.log)
    return reader.on_read(SOURCE, p.legacy.read(SOURCE), 0)


def _healer(p, event):
    p.healer.policy = RetryPolicy(max_attempts=1)
    p.queue.enqueue(PART_A, Trigger.NEARLINE, 0, 0)
    return p.healer.validate_and_fix(PART_A, 0), dataclasses.asdict(p.healer.process(0))


def _offline(p, event):
    tracker = ConsistencyTracker(p.schema, p.legacy.read, p.target.peek)
    tracker.mark_source(SOURCE, 0)
    return dataclasses.asdict(OfflineVerifier(tracker, p.queue, p.log).run(0, 0))


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
        None,
        {"enqueued": 2, "queue_length": 2},
        _enqueue_lines("dualwrite"),
    ),
    "nearline": (
        _nearline,
        None,
        {"enqueued": 2, "queue_length": 2},
        [{"t": 0, "k": "verify", "key": SOURCE, "src": "nearline", "res": "enqueued", "n": 2}]
        + _enqueue_lines("nearline"),
    ),
    "shadow": (
        _shadow,
        None,
        {"enqueued": 2, "queue_length": 2},
        [{"t": 0, "k": "verify", "key": SOURCE, "src": "shadow", "res": REASON}]
        + _enqueue_lines("shadowread"),
    ),
    "healer": (
        _healer,
        (
            REASON,
            {"processed": 1},
        ),
        {"enqueued": 1, "dead_lettered": 1, "validation_failure": 1, "attempts_total": 1},
        [
            {"t": 0, "k": "enqueue", "key": PART_A, "trig": "nearline", "sut": 0},
            {"t": 0, "k": "dead_letter", "key": PART_A, "reason": REASON},
        ],
    ),
    "offline": (
        _offline,
        {"scanned_keys": 2, "enqueued": 2},
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
        name: n for name, n in p.counts.as_dict().items()
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
        p.schema, p.legacy.take_snapshot(0), p.target, p.queue, p.log,
        p.tracker.note_written, mode="direct",
    )
    limiter = RateLimiter(100)
    limiter.begin_tick(0)
    job.step(0, limiter)
    assert job.done
    queued = sorted((e.target_key, e.trigger) for e in p.queue.pending())
    assert queued == [(PART_A, Trigger.BOOTSTRAP), (PART_B, Trigger.BOOTSTRAP)]
    assert sorted(p.target.records) == [Key("part_a", "2"), Key("part_b", "2")]
    section = bootstrap_section(job, p.log)
    assert section["events_enqueued"] == 2
    assert section["puts"] == 2
    assert section["put_failures"] == 0


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


def _ending_inside_the_bug_window(candidates_before_the_bug: bool):
    """`mapping_bug.json` with its bug active to the end and no requeue.

    As shipped, every candidate is created inside the window, so no
    candidate group ever maps.  With candidates among the initial records,
    some groups map and are written before the bug switches on.
    """
    scenario = load_file(scenario_path("mapping_bug"))
    scenario = dataclasses.replace(
        scenario, bug=dataclasses.replace(scenario.bug, active_until=10_000, requeue_at=None)
    )
    if candidates_before_the_bug:
        workload = dataclasses.replace(
            scenario.workload, initial_records=300,
            type_weights=(("project", 0.4), ("stage", 0.3), ("candidate", 0.3)),
        )
        scenario = dataclasses.replace(scenario, workload=workload)
    return scenario


@pytest.mark.parametrize(
    "candidates_before_the_bug, report_counts, oracle_counts",
    [
        (False, {"consistent": 1282, "corrupt": 40}, {"consistent": 1282, "missing": 40}),
        (
            True,
            {"consistent": 424, "corrupt": 214},
            {"consistent": 461, "missing": 113, "stale": 64},
        ),
    ],
    ids=["shipped_weights", "candidates_before_the_bug"],
)
def test_a_run_that_ends_inside_the_bug_window_passes_the_oracle(
    candidates_before_the_bug, report_counts, oracle_counts
):
    """The report classifies as the full scan does: a group the bug breaks
    at the last tick is corrupt in every key.  The oracle's own diff stays
    fault-free, and it holds the report to that classification."""
    scenario = _ending_inside_the_bug_window(candidates_before_the_bug)
    result = run_scenario(scenario, seed=1)
    report = result.report
    last = report.duration
    assert scenario.bug.active_at(last) and result.oracle_report.ok
    _overall, _settled, full = consistency_rate(
        result.schema, result.legacy.records, result.target.records, last, 0
    )
    assert report.final_counts == {c.value: n for c, n in full.items() if n} == report_counts
    assert result.oracle_report.final_counts == oracle_counts

    # Not vacuous: a report that moves one key between bad classes, or
    # that says the oracle's fault-free counts, is flagged.
    for counts in ({**report_counts, "corrupt": report_counts["corrupt"] - 1, "missing": 1},
                   oracle_counts):
        tampered = {**report.as_dict(), "final_counts": counts}
        failed = {c.name for c in oracle_verify(result.log, scenario, tampered).checks if not c.ok}
        assert failed == {"final counts match report"}
