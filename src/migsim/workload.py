"""Seeded workload generation: steady writes/reads/deletes plus bulk bursts.

Child records always reference parents that already exist in the legacy
store, mirroring how an application can only attach a candidate to a
project that was created first.  All randomness comes from one named
substream so the same seed replays the same operation sequence regardless
of what the rest of the system does with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .domain import PARENT_REF_PREFIX, Key, Schema
from .scenario import WorkloadSpec

OP_WRITE = "write"
OP_DELETE = "delete"
OP_READ = "read"


@dataclass
class WorkloadOp:
    kind: str
    key: Key
    value: dict[str, str] | None = None


class WorkloadGenerator:
    """Deterministic operation stream over the scenario's entity types."""

    def __init__(self, spec: WorkloadSpec, schema: Schema, rng: np.random.Generator):
        self.spec = spec
        self.schema = schema
        self.rng = rng
        self._next_id: dict[str, int] = {t: 0 for t in schema.topo_order()}
        self._live: dict[str, list[str]] = {t: [] for t in schema.topo_order()}
        self._live_pos: dict[Key, int] = {}
        self._all_keys: list[Key] = []
        self._value_counter = 0
        weights = dict(spec.type_weights)
        order = [t for t in schema.topo_order() if weights.get(t, 0) > 0]
        total = sum(weights[t] for t in order) or 1.0
        self._types = order
        self._weights = np.array([weights[t] / total for t in order]) if order else None

    # -- bookkeeping -------------------------------------------------------

    def _register(self, key: Key) -> None:
        if key in self._live_pos:
            return
        self._live_pos[key] = len(self._live[key.etype])
        self._live[key.etype].append(key.id)
        self._all_keys.append(key)

    def _forget_live(self, key: Key) -> None:
        pos = self._live_pos.pop(key, None)
        if pos is None:
            return
        ids = self._live[key.etype]
        last = ids[-1]
        ids[pos] = last
        ids.pop()
        if last != key.id:
            self._live_pos[Key(key.etype, last)] = pos

    def _pick_live(self, etype: str) -> Key | None:
        ids = self._live[etype]
        if not ids:
            return None
        return Key(etype, ids[int(self.rng.integers(len(ids)))])

    def _fresh_value(self, etype: str, gid: str) -> dict[str, str]:
        self._value_counter += 1
        n = self._value_counter
        value = {"profile": f"{etype}-{gid}-p{n}", "note": f"{etype}-{gid}-n{n}"}
        for ptype in sorted(self.schema.types[etype].parents):
            parent = self._pick_live(ptype)
            if parent is None:
                return {}
            value[PARENT_REF_PREFIX + ptype] = parent.id
        return value

    def _updated_value(self, key: Key, current: dict[str, str]) -> dict[str, str]:
        # Payload changes, parent references stay put.
        self._value_counter += 1
        n = self._value_counter
        value = dict(current)
        value["profile"] = f"{key.etype}-{key.id}-p{n}"
        value["note"] = f"{key.etype}-{key.id}-n{n}"
        return value

    def _create_op(self, etype: str) -> WorkloadOp | None:
        gid = str(self._next_id[etype] + 1)
        value = self._fresh_value(etype, gid)
        if not value and self.schema.types[etype].parents:
            return None  # no live parent to attach to yet
        self._next_id[etype] += 1
        key = Key(etype, gid)
        self._register(key)
        return WorkloadOp(OP_WRITE, key, value)

    # -- generation --------------------------------------------------------

    def seed_initial(self) -> list[WorkloadOp]:
        """Historical data: initial records in dependency order, at tick 0."""
        ops: list[WorkloadOp] = []
        if not self._types or self.spec.initial_records <= 0:
            return ops
        weights = dict(self.spec.type_weights)
        total = sum(weights[t] for t in self._types)
        counts = {
            t: int(round(self.spec.initial_records * weights[t] / total))
            for t in self._types
        }
        for etype in self._types:  # topo order: parents first
            for _ in range(counts[etype]):
                op = self._create_op(etype)
                if op is not None:
                    ops.append(op)
        return ops

    def rate_factor(self, now: int) -> float:
        day_len = 2 * self.spec.day_ticks if self.spec.day_ticks else 0
        if day_len == 0 or self.spec.night_rate_factor == 1.0:
            return 1.0
        return 1.0 if (now % day_len) < self.spec.day_ticks else self.spec.night_rate_factor

    def generate_step(
        self, now: int, read_current, bulk_frozen: bool = False
    ) -> list[WorkloadOp]:
        """Operations for one tick: thinned steady traffic plus due bursts."""
        ops: list[WorkloadOp] = []
        writing = self.spec.writes_until is None or now <= self.spec.writes_until
        if self._types:
            factor = self.rate_factor(now)
            if writing:
                n_writes = int(self.rng.poisson(self.spec.write_rate * factor))
                for _ in range(n_writes):
                    ops.extend(self._steady_write(read_current))
            n_reads = int(self.rng.poisson(self.spec.read_rate * factor))
            for _ in range(n_reads):
                if self._all_keys:
                    key = self._all_keys[int(self.rng.integers(len(self._all_keys)))]
                    ops.append(WorkloadOp(OP_READ, key))
        if not bulk_frozen and writing:
            for burst in self.spec.bursts:
                if burst.at == now:
                    for _ in range(burst.size):
                        op = self._create_op(burst.etype)
                        if op is not None:
                            ops.append(op)
        return ops

    def _steady_write(self, read_current) -> Iterable[WorkloadOp]:
        etype = self._types[int(self.rng.choice(len(self._types), p=self._weights))]
        roll = self.rng.random()
        if roll < self.spec.delete_fraction and etype in self.spec.delete_types:
            victim = self._pick_live(etype)
            if victim is None:
                return []
            self._forget_live(victim)
            return [WorkloadOp(OP_DELETE, victim)]
        if roll < self.spec.delete_fraction + self.spec.update_fraction:
            key = self._pick_live(etype)
            if key is not None:
                current = read_current(key)
                base = current.value if current is not None else {}
                return [WorkloadOp(OP_WRITE, key, self._updated_value(key, base))]
        op = self._create_op(etype)
        return [op] if op is not None else []
