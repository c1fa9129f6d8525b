"""Seeded workload generation: steady writes/reads/deletes plus bulk bursts.

Child records always reference parents that already exist in the legacy
store, mirroring how an application can only attach a candidate to a
project that was created first.  All randomness comes from one named
substream so the same seed replays the same operation sequence regardless
of what the rest of the system does with it.

Records are created in bulk, and the bulk path keeps the draws of one
record at a time.  A create attempt takes a value number, then picks one
live parent per parent type, in sorted type order, and makes no record if
a parent pool is empty; it still keeps the picks drawn before that pool
and the value number.  One call `_create(etype, n)` makes n attempts with
one `rng.integers(bounds)` draw over the n attempts' pool sizes, in record
order.  numpy draws an array of bounds element by element, as one scalar
`rng.integers(bound)` call per element, and leaves the same generator
state (`tests/test_workload.py` pins this).  The pools cannot change within
a call, since a type is never its own parent.
"""

from __future__ import annotations

from bisect import bisect_right
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
        self._next_id: dict[str, int] = {t: 0 for t in schema.source_order}
        self._live: dict[str, list[str]] = {t: [] for t in schema.source_order}
        self._live_pos: dict[Key, int] = {}
        self._all_keys: list[Key] = []
        self._value_counter = 0
        self._parents = {t: sorted(schema.types[t].parents) for t in schema.source_order}
        weights = dict(spec.type_weights)
        order = [t for t in schema.source_order if weights.get(t, 0) > 0]
        total = sum(weights[t] for t in order) or 1.0
        self._types = order
        # What `rng.choice(len(order), p=p)` searches for the normalised
        # weights p: `p.cumsum()` divided by its last element.
        cdf = np.cumsum([weights[t] / total for t in order])
        self._type_cdf = (cdf / cdf[-1]).tolist() if order else []

    # -- bookkeeping -------------------------------------------------------

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

    def _updated_value(self, key: Key, current: dict[str, str]) -> dict[str, str]:
        # Payload changes, parent references stay put.
        self._value_counter += 1
        n = self._value_counter
        value = dict(current)
        value["profile"] = f"{key.etype}-{key.id}-p{n}"
        value["note"] = f"{key.etype}-{key.id}-n{n}"
        return value

    def _create(self, etype: str, n: int) -> list[WorkloadOp]:
        """n create attempts of `etype`, with the draws of n single attempts:
        all n records, or none while a parent pool is empty."""
        parents = self._parents[etype]
        sizes = [len(self._live[p]) for p in parents]
        drawn = sizes[: sizes.index(0)] if 0 in sizes else sizes
        picks = self.rng.integers(np.array(drawn * n)).tolist() if drawn and n > 0 else []
        first = self._value_counter + 1
        self._value_counter += n
        if len(drawn) < len(parents):
            return []  # no live parent to attach to yet
        next_id = self._next_id[etype]
        self._next_id[etype] = next_id + n
        gids = [str(i) for i in range(next_id + 1, next_id + n + 1)]
        keys = [Key(etype, gid) for gid in gids]
        live = self._live[etype]
        self._live_pos.update(zip(keys, range(len(live), len(live) + n)))
        live.extend(gids)
        self._all_keys.extend(keys)
        values = [
            {"profile": f"{etype}-{gid}-p{v}", "note": f"{etype}-{gid}-n{v}"}
            for gid, v in zip(gids, range(first, first + n))
        ]
        for j, ptype in enumerate(parents):
            field, pool = PARENT_REF_PREFIX + ptype, self._live[ptype]
            for value, pick in zip(values, picks[j :: len(parents)]):
                value[field] = pool[pick]
        return [WorkloadOp(OP_WRITE, key, value) for key, value in zip(keys, values)]

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
            ops.extend(self._create(etype, counts[etype]))
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
                    ops.extend(self._create(burst.etype, burst.size))
        return ops

    def _pick_type(self) -> str:
        """A weighted entity type, as `rng.choice` over the weights picks it.

        `choice` draws one uniform and searches `_type_cdf` from the right,
        so this is the same pick, draw for draw, without numpy's per-call
        cost.
        """
        return self._types[bisect_right(self._type_cdf, self.rng.random())]

    def _steady_write(self, read_current) -> Iterable[WorkloadOp]:
        etype = self._pick_type()
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
        return self._create(etype, 1)
