from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from migsim.domain import (
    EntityType,
    Key,
    Schema,
    identity_rule,
    split_rule,
)
from migsim.dualwrite import DualWriter
from migsim.healing import Healer, RepairCounts, RetryPolicy, SelfHealingQueue
from migsim.metrics import ConsistencyTracker, EventLog
from migsim.rng import named_stream
from migsim.simulation import fold_log
from migsim.stores import Clock, FaultProfile, LegacyStore, TargetStore

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.json"


def build_figure3_schema() -> Schema:
    types = [
        EntityType("project"),
        EntityType("stage", frozenset({"project"})),
        EntityType("candidate", frozenset({"project", "stage"})),
    ]
    rules = [
        identity_rule("project_rule", "project", "project_v2"),
        identity_rule("stage_rule", "stage", "stage_v2"),
        identity_rule("candidate_rule", "candidate", "candidate_v2"),
    ]
    return Schema(types, rules)


def build_split_schema() -> Schema:
    types = [
        EntityType("project"),
        EntityType("candidate", frozenset({"project"})),
    ]
    rules = [
        identity_rule("project_rule", "project", "project_v2"),
        split_rule(
            "candidate_rule",
            "candidate",
            [
                ("candidate_core_v2", ("profile", "parent_project")),
                ("candidate_notes_v2", ("note",)),
            ],
        ),
    ]
    return Schema(types, rules)


@pytest.fixture
def figure3_schema() -> Schema:
    return build_figure3_schema()


@pytest.fixture
def split_schema() -> Schema:
    return build_split_schema()


@dataclass
class Pipeline:
    """Hand-drivable store pair with queue, healer, and dual writer.

    `tracker` sees every commit made through `commit` and every accepted
    put, as the run's tracker does, and takes the dual writer's notes."""

    clock: Clock
    schema: Schema
    legacy: LegacyStore
    target: TargetStore
    queue: SelfHealingQueue
    healer: Healer
    dualwriter: DualWriter
    log: EventLog
    tracker: ConsistencyTracker

    @property
    def counts(self) -> RepairCounts:
        """The repair counters folded from the log so far."""
        return fold_log(self.log.rows, self.clock.now).counts

    def commit(self, etype: str, gid: str, value=None, delete: bool = False):
        key = Key(etype, gid)
        event = self.legacy.commit(key, None if delete else (value or {"f": "v"}))
        self.tracker.mark_source(key, event.new_version.commit_time)
        return event

    def commit_and_replicate(self, etype: str, gid: str, value=None, delete: bool = False):
        event = self.commit(etype, gid, value, delete)
        self.dualwriter.replicate(event, self.clock.now)


def bootstrap_section(job, log: EventLog) -> dict:
    """`report.json`'s `bootstrap` section of `job`: its progress, and its
    tallies folded from `log`, as the runner assembles it.  The tallies do
    not depend on the run's last tick, so any tick will do."""
    return {**job.report.as_dict(), **fold_log(log.rows, 0).bootstrap}


def build_pipeline(
    schema: Schema | None = None,
    availability: float = 1.0,
    outages: tuple = (),
    policy: RetryPolicy | None = None,
    seed: int = 1,
) -> Pipeline:
    clock = Clock(0)
    schema = schema or build_figure3_schema()
    fault = FaultProfile(availability_p=availability, outage_windows=outages)
    legacy = LegacyStore(clock)
    log = EventLog()
    target = TargetStore(clock, fault, named_stream(seed, "target_ops"), log)
    queue = SelfHealingQueue(log)
    healer = Healer(schema, legacy, target, queue, log, policy or RetryPolicy())
    tracker = ConsistencyTracker(schema, legacy.read, target.peek)
    target.on_accept.append(lambda record, now: tracker.mark_target(record.key))
    dualwriter = DualWriter(schema, legacy, target, queue, tracker.note_written)
    return Pipeline(clock, schema, legacy, target, queue, healer, dualwriter, log, tracker)


def ignore_note(rule, gid: str, as_of: int) -> None:
    """A `note_written` for writers whose groups no tracker follows."""


@pytest.fixture
def pipeline() -> Pipeline:
    return build_pipeline()
