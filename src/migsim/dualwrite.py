"""Asynchronous replication of legacy commits into the target store.

Replication re-reads the current source state instead of shipping the
committed payload; replicating an outdated value is counterproductive when
a fresher one already exists.  Failures never propagate back to the legacy
write path; they hand the affected keys to the self-healing queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .domain import Key, Schema, read_group
from .healing import ParentGate, SelfHealingQueue, Trigger
from .stores import ChangeEvent, Clock, LegacyStore, StoreUnavailable, TargetStore


class ReplicateResult(str, Enum):
    DONE = "done"
    FAILED_ENQUEUED = "failed_enqueued"


@dataclass
class DualWriteTask:
    change: ChangeEvent
    created_at: int


class DualWriter:
    """Per-commit replication tasks, processed in commit order."""

    def __init__(
        self,
        schema: Schema,
        legacy: LegacyStore,
        target: TargetStore,
        queue: SelfHealingQueue,
        clock: Clock,
        enabled: bool = True,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.clock = clock
        self.enabled = enabled
        self._pending: deque[DualWriteTask] = deque()
        self._parents = ParentGate(schema, target)

    def on_commit(self, change: ChangeEvent) -> DualWriteTask:
        """Schedule replication; scheduling itself cannot fail."""
        task = DualWriteTask(change, self.clock.now)
        if self.enabled:
            self._pending.append(task)
        return task

    def run_due(self, now: int) -> int:
        """Replicate every task created by `now`; same-key order is commit order."""
        count = 0
        while self._pending and self._pending[0].created_at <= now:
            task = self._pending.popleft()
            self.replicate(task, now)
            count += 1
        return count

    def pending_count(self) -> int:
        return len(self._pending)

    def replicate(self, task: DualWriteTask, now: int | None = None) -> ReplicateResult:
        """Map the latest source state and write outputs parents-first.

        The first unavailable write or absent parent aborts the rest; every
        target key not yet written gets a validation event, and the queue
        takes it from there.  A stale rejection counts as success since a
        fresher write already landed.
        """
        now = self.clock.now if now is None else now
        skey = task.change.key
        failed: list[Key] = []
        for rule in self.schema.rules_for_source(skey.etype):
            sources = read_group(rule, skey.id, self.legacy.read)
            expected, bug = self.schema.map_group(rule, sources, now)
            if bug:
                failed.extend(rule.target_keys(skey.id))
                continue
            outputs = sorted(
                expected.values(), key=lambda r: self.schema.target_rank(r.key.etype)
            )
            for idx, record in enumerate(outputs):
                if not record.tombstone:
                    try:
                        ok = self._parents.missing(sources) is None
                    except StoreUnavailable:
                        ok = False
                    if not ok:
                        failed.extend(r.key for r in outputs[idx:])
                        break
                try:
                    self.target.put_if_fresher(record)
                except StoreUnavailable:
                    failed.extend(r.key for r in outputs[idx:])
                    break
                if not record.tombstone:
                    self._parents.note(record.key)
        if not failed:
            return ReplicateResult.DONE
        commit_time = task.change.new_version.commit_time
        for tkey in sorted(set(failed)):
            self.queue.enqueue(tkey, Trigger.DUALWRITE, now, commit_time)
        return ReplicateResult.FAILED_ENQUEUED
