"""Asynchronous replication of legacy commits into the target store.

Replication re-reads the current source state instead of shipping the
committed payload; replicating an outdated value is counterproductive when
a fresher one already exists.  Failures never propagate back to the legacy
write path; they hand the affected keys to the self-healing queue.
"""

from __future__ import annotations

from collections import deque

from .domain import Key, Schema, read_group
from .healing import ParentGate, SelfHealingQueue, Trigger
from .metrics import NoteWritten
from .stores import ChangeEvent, LegacyStore, PutResult, StoreUnavailable, TargetStore


class DualWriter:
    """Per-commit replication, processed in commit order.

    The pending changes wait in a deque; each is due from its own commit
    tick.  A failed replication is recorded by the queue's `enqueue` rows.
    A rule group whose every output was accepted is passed to `note_written`
    (`ConsistencyTracker.note_written`) as of the replication tick.
    """

    def __init__(
        self,
        schema: Schema,
        legacy: LegacyStore,
        target: TargetStore,
        queue: SelfHealingQueue,
        note_written: NoteWritten,
    ):
        self.schema = schema
        self.legacy = legacy
        self.target = target
        self.queue = queue
        self.note_written = note_written
        self._pending: deque[ChangeEvent] = deque()
        self._parents = ParentGate(schema, target)

    def on_commit(self, change: ChangeEvent) -> None:
        """Schedule replication; scheduling itself cannot fail."""
        self._pending.append(change)

    def run_due(self, now: int) -> int:
        """Replicate every change committed by `now`, in commit order; returns
        how many."""
        pending = self._pending
        count = 0
        while pending and pending[0].new_version.commit_time <= now:
            self.replicate(pending.popleft(), now)
            count += 1
        return count

    def pending_count(self) -> int:
        return len(self._pending)

    def replicate(self, change: ChangeEvent, now: int) -> None:
        """Map the latest source state and write outputs in transform order.

        The first unavailable write or absent parent aborts the rest; every
        target key not yet written gets a validation event, and the queue
        takes it from there.  A stale rejection counts as success since a
        fresher write already landed.
        """
        skey = change.key
        failed: list[Key] = []
        for rule in self.schema.rules_for_source(skey.etype):
            sources = read_group(rule, skey.id, self.legacy.read)
            expected, bug = self.schema.map_group(rule, sources, now)
            if bug:
                failed.extend(rule.target_keys(skey.id))
                continue
            # Transform order: no output of a group is a parent of another
            # (a type is never its own parent, and a merge has one output).
            # So the outputs, all live or all tombstones, share one parent check.
            outputs = list(expected.values())
            if outputs and not outputs[0].tombstone:
                try:
                    ready = self._parents.missing(sources) is None
                except StoreUnavailable:
                    ready = False
                if not ready:
                    failed.extend(expected)
                    continue
            accepted = 0
            for idx, record in enumerate(outputs):
                try:
                    accepted += self.target.put(record, "dual") is PutResult.ACCEPTED
                except StoreUnavailable:
                    failed.extend(r.key for r in outputs[idx:])
                    break
                if not record.tombstone:
                    self._parents.note(record.key)
            # Every output accepted, and the outputs are the group's target keys.
            if accepted == len(rule.target_types):
                self.note_written(rule, skey.id, now)
        commit_time = change.new_version.commit_time
        for tkey in sorted(set(failed)):
            self.queue.enqueue(tkey, Trigger.DUALWRITE, now, commit_time)
