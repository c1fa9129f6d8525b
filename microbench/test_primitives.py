"""Microbenchmarks of the run's hot primitives, with pytest-benchmark.

Run them from the repository root:

    PYTHONPATH=src python -m pytest microbench --benchmark-only

They sit outside the `testpaths` of `pyproject.toml`, so the tier-1 suite
never collects them as benches; `tests/test_microbench.py` calls each one
once to keep it working.  A timing is per call of the benched function; the
batch benches make `BATCH` operations per call, each on fresh state, so the
log, store or queue does not grow across rounds.
"""

from __future__ import annotations

import functools
from pathlib import Path

from migsim.domain import (
    DiscrepancyClass,
    EntityType,
    Key,
    Schema,
    SourceRecord,
    TargetRecord,
    VersionStamp,
    compare_records,
    identity_rule,
    map_source,
    split_rule,
)
from migsim.healing import SelfHealingQueue, Trigger
from migsim.metrics import EventLog, iter_groups
from migsim.oracle import oracle_verify
from migsim.rng import named_stream
from migsim.scenario import WorkloadSpec, load_file
from migsim.simulation import SimResult, fold_log, run_scenario
from migsim.stores import Clock, FaultProfile, LegacyStore, PutResult, TargetStore
from migsim.workload import WorkloadGenerator

BATCH = 1_000
PAPER_DEFAULT = Path(__file__).resolve().parents[1] / "bench" / "scenarios" / "paper_default.json"
VALUE = {"name": "n-17", "owner": "o-3", "state": "open"}


def _source(gid: str, counter: int = 1) -> SourceRecord:
    return SourceRecord(Key("project", gid), dict(VALUE), VersionStamp(counter, 5), False)


def _put_record(i: int) -> TargetRecord:
    """The i-th put of a batch: 100 keys, each put fresher than the last."""
    gid = str(i % 100)
    return TargetRecord(
        Key("project_v2", gid),
        dict(VALUE),
        {Key("project", gid): VersionStamp(i // 100 + 1, i)},
        False,
    )


def _filled_log() -> EventLog:
    """A log of BATCH commits and BATCH accepted puts, shaped as a run logs them."""
    log = EventLog()
    for i in range(BATCH):
        key, stamp = Key("project", str(i)), VersionStamp(1, i)
        log.append(i, "commit", key, cseq=i + 1, ver=stamp, op="write", val=dict(VALUE))
        log.append(
            i, "put", Key("project_v2", str(i)), cls="dual", out="accepted",
            prov={key: stamp}, tomb=False, val=dict(VALUE),
        )
    return log


def test_eventlog_append_batch(benchmark):
    keys = [Key("project_v2", str(i)) for i in range(BATCH)]
    prov = {Key("project", "1"): VersionStamp(2, 7)}

    def append_batch() -> EventLog:
        log = EventLog()
        for key in keys:
            log.append(7, "put", key, cls="dual", out="accepted", prov=prov, tomb=False, val=VALUE)
        return log

    assert len(benchmark(append_batch)) == BATCH


def test_eventlog_digest(benchmark):
    log = _filled_log()
    assert len(benchmark(log.digest)) == 64


def test_put_if_fresher_batch(benchmark):
    store = TargetStore(Clock(0), FaultProfile(), named_stream(1, "target_ops"), EventLog())
    records = [_put_record(i) for i in range(BATCH)]

    def put_batch() -> int:
        store.records = {}
        store.log = EventLog()
        accepted = 0
        for rec in records:
            accepted += store.put_if_fresher(rec) is PutResult.ACCEPTED
        return accepted

    assert benchmark(put_batch) == BATCH


def _enqueued(keys: list[Key]) -> SelfHealingQueue:
    """A fresh queue after one enqueue per key, the i-th due at tick i."""
    queue = SelfHealingQueue(EventLog())
    for t, key in enumerate(keys):
        queue.enqueue(key, Trigger.NEARLINE, t, t)
    return queue


def test_queue_enqueue_batch(benchmark):
    """BATCH enqueues of distinct keys into an empty queue."""
    keys = [Key("project_v2", str(i)) for i in range(BATCH)]
    assert len(benchmark(_enqueued, keys)) == BATCH


def test_queue_pop_due_batch(benchmark):
    """One `pop_due` that drains a queue of BATCH due events; the fill is
    untimed setup."""
    keys = [Key("project_v2", str(i)) for i in range(BATCH)]

    def pop_all(queue: SelfHealingQueue) -> int:
        return len(queue.pop_due(BATCH, BATCH))

    def setup():
        return (_enqueued(keys),), {}

    assert benchmark.pedantic(pop_all, setup=setup, rounds=100) == BATCH


def test_compare_records_consistent(benchmark):
    (expected,) = map_source(identity_rule("r", "project", "project_v2"), {
        Key("project", "1"): _source("1"),
    })
    actual = TargetRecord(expected.key, dict(expected.value), dict(expected.provenance), False)
    assert benchmark(compare_records, expected, actual) is DiscrepancyClass.CONSISTENT


def test_map_source_identity(benchmark):
    rule = identity_rule("r", "project", "project_v2")
    sources = {Key("project", "1"): _source("1")}
    assert len(benchmark(map_source, rule, sources)) == 1


def test_map_source_split(benchmark):
    rule = split_rule(
        "r", "project", [("project_core_v2", ("name", "state")), ("project_owner_v2", ("owner",))]
    )
    sources = {Key("project", "1"): _source("1")}
    assert len(benchmark(map_source, rule, sources)) == 2


def test_type_pick_batch(benchmark):
    """BATCH weighted entity-type picks, one per steady write in a run."""
    types = ("project", "stage", "candidate")
    schema = Schema(
        [EntityType(t) for t in types], [identity_rule(f"{t}_rule", t, f"{t}_v2") for t in types]
    )
    spec = WorkloadSpec(type_weights=(("project", 0.2), ("stage", 0.2), ("candidate", 0.6)))
    gen = WorkloadGenerator(spec, schema, named_stream(1, "workload"))

    def pick_batch() -> list[str]:
        return [gen._pick_type() for _ in range(BATCH)]

    assert set(benchmark(pick_batch)) == set(types)


def test_check_available_batch(benchmark):
    """BATCH availability draws of the target store, one per store operation."""
    fault = FaultProfile(availability_p=0.9, outage_windows=((100, 200),))
    store = TargetStore(Clock(0), fault, named_stream(1, "target_ops"), EventLog())

    def check_batch() -> int:
        return sum(store._check_available() for _ in range(BATCH))

    assert 0 < benchmark(check_batch) < BATCH


def test_seed_initial_paper_default(benchmark):
    """The historical records of the `paper_default` workload, 10k records,
    from a fresh generator per call."""
    scenario = load_file(PAPER_DEFAULT)
    schema = scenario.build_schema()

    def seed() -> list:
        gen = WorkloadGenerator(scenario.workload, schema, named_stream(scenario.seed, "workload"))
        return gen.seed_initial()

    assert len(benchmark(seed)) == scenario.workload.initial_records


def test_bootstrap_groups_paper_default(benchmark):
    """The bootstrap's group list of the `paper_default` workload: its
    10k seeded records' (rule, group id) pairs in load order."""
    scenario = load_file(PAPER_DEFAULT)
    schema = scenario.build_schema()
    legacy = LegacyStore(Clock(0))
    gen = WorkloadGenerator(scenario.workload, schema, named_stream(scenario.seed, "workload"))
    for op in gen.seed_initial():
        legacy.commit(op.key, op.value)
    snapshot = legacy.take_snapshot(0)
    groups = benchmark(iter_groups, schema, snapshot.records)
    assert len(groups) == len(snapshot)  # one identity rule per type


@functools.cache
def _paper_default_run() -> SimResult:
    """The seed-1 `paper_default` run, made once for the benches that read it."""
    return run_scenario(load_file(PAPER_DEFAULT), seed=1)


def test_report_fold_paper_default(benchmark):
    """The one pass that reads `report.json`'s log-derived sections, over the
    seed-1 `paper_default` log."""
    result = _paper_default_run()
    fold = benchmark(fold_log, result.log.rows, result.report.duration)
    assert fold.counts == result.registry


def test_export_lines_paper_default(benchmark):
    """Every line of the seed-1 `paper_default` export, built by the row
    classes' line writers, unhashed and unwritten."""
    log = _paper_default_run().log

    def build_lines() -> list[str]:
        return list(log.export_lines())

    assert len(benchmark(build_lines)) == len(log)


def test_oracle_verify_paper_default(benchmark):
    """The oracle over the seed-1 `paper_default` log and report."""
    result = _paper_default_run()
    scenario, report = load_file(PAPER_DEFAULT), result.report.as_dict()
    verdict = benchmark(oracle_verify, result.log, scenario, report)
    assert verdict.as_dict() == result.oracle_report.as_dict()
