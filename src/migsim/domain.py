"""Entity model, record versioning, mapping rules, and the dependency graph.

The translation layer is deliberately declarative: a schema is a set of
entity types with parent links plus mapping rules that are pure functions
from source records to target records.  Everything downstream (dual writes,
repair, verification) leans on two facts established here: transforms are
deterministic, and every produced record carries a provenance vector naming
the exact source versions it was derived from.  An injected mapping bug is
data on the schema, consulted with an explicit time by `Schema.map_group`;
`Schema.check_group` is the one place where a rule group is mapped and
judged.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .scenario import BugSpec

PARENT_REF_PREFIX = "parent_"

# Counter value reserved for provenance stamps attached by bulk loads that
# only know the snapshot time, not the per-record commit counter.
BOOTSTRAP_COUNTER = 0


class SchemaError(Exception):
    """Invalid schema definition."""


class CycleError(SchemaError):
    """The declared dependency relation contains a cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("dependency cycle: " + " -> ".join(cycle + (cycle[0],)))


class UnknownTypeError(SchemaError):
    """A rule or parent link references a type that was never registered."""


class TransformError(Exception):
    """A rule failed on well-formed-looking input; the signature of a mapping bug."""


class StoreUnavailable(Exception):
    """Transient store failure; the operation left no trace and may be retried."""


class InvariantError(AssertionError):
    """An internal invariant does not hold: always a bug, never a fault to
    recover from.  Raised explicitly so that `python -O` keeps the check."""


class Key(NamedTuple):
    etype: str
    id: str

    def __str__(self) -> str:
        return f"{self.etype}#{self.id}"


# Builds a `Key` from an (etype, id) pair without the Python-level
# `NamedTuple.__new__`: 0.26 µs against 0.51 µs a key on a 2-vCPU VM under
# CPython 3.11.  The hot key-level queries and `map_source` below call it
# for keys and records alike.
_tuple_new = tuple.__new__


class VersionStamp(NamedTuple):
    counter: int  # per-key monotonic commit counter; BOOTSTRAP_COUNTER for defaults
    commit_time: int  # virtual-clock tick of the commit


def at_least_as_fresh(a: VersionStamp, b: VersionStamp) -> bool:
    """Freshness order over stamps.

    Real commits are ordered by their per-key counter.  A bootstrap default
    stamp has no counter, so whenever either side is a default the order
    falls back to commit time.
    """
    if a.counter > BOOTSTRAP_COUNTER and b.counter > BOOTSTRAP_COUNTER:
        return a.counter >= b.counter
    return a.commit_time >= b.commit_time


class SourceRecord(NamedTuple):
    key: Key
    value: Mapping[str, str]
    version: VersionStamp
    tombstone: bool


class TargetRecord(NamedTuple):
    key: Key
    value: Mapping[str, str]
    provenance: Mapping[Key, VersionStamp]
    tombstone: bool


SourceRead = Callable[[Key], SourceRecord | None]
TargetRead = Callable[[Key], TargetRecord | None]


def provenance_covers(
    actual: Mapping[Key, VersionStamp], wanted: Mapping[Key, VersionStamp]
) -> bool:
    """True when `actual` is at least as fresh as `wanted` on every entry."""
    for skey, stamp in wanted.items():
        have = actual.get(skey)
        if have is None or not at_least_as_fresh(have, stamp):
            return False
    return True


class DiscrepancyClass(str, Enum):
    CONSISTENT = "consistent"
    MISSING = "missing"
    STALE = "stale"
    CORRUPT = "corrupt"
    UNEXPECTED_EXTRA = "unexpected_extra"
    RESURRECTION = "resurrection"


def compare_records(
    expected: TargetRecord | None, actual: TargetRecord | None
) -> DiscrepancyClass:
    """Classify one target key given its expected and observed state.

    Expected is the record produced by mapping the current source state
    (None when the sources never existed).  A deletion that simply never
    reached the target is treated as consistent: no live data is visible on
    either side.  A deletion that the target still shows live is the one
    state that must never survive repair, and gets its own class.
    """
    if expected is None:
        if actual is None or actual.tombstone:
            return DiscrepancyClass.CONSISTENT
        return DiscrepancyClass.UNEXPECTED_EXTRA
    if actual is None:
        if expected.tombstone:
            return DiscrepancyClass.CONSISTENT
        return DiscrepancyClass.MISSING
    if expected.tombstone and not actual.tombstone:
        return DiscrepancyClass.RESURRECTION
    if not provenance_covers(actual.provenance, expected.provenance):
        return DiscrepancyClass.STALE
    if actual.tombstone == expected.tombstone and actual.value == expected.value:
        return DiscrepancyClass.CONSISTENT
    return DiscrepancyClass.CORRUPT


@dataclass(frozen=True)
class EntityType:
    name: str
    parents: frozenset[str] = frozenset()


Transform = Callable[[Mapping[Key, SourceRecord]], Iterable[tuple[Key, Mapping[str, str]]]]


@dataclass(frozen=True)
class MappingRule:
    """Declarative translation of one group of source entities.

    Instances of the rule are aligned by id: the group with id `g` consumes
    `(st, g)` for every source type and produces `(tt, g)` for every target
    type.  `transform` only sees the record values; provenance and tombstone
    propagation are applied uniformly by `map_source`.
    """

    name: str
    source_types: tuple[str, ...]
    target_types: tuple[str, ...]
    transform: Transform

    # The key-level queries here and in `Schema` build their tuples from
    # lists: a generator expression costs a frame per call.
    def input_keys(self, gid: str) -> tuple[Key, ...]:
        return tuple([_tuple_new(Key, (st, gid)) for st in self.source_types])

    def target_keys(self, gid: str) -> tuple[Key, ...]:
        return tuple([_tuple_new(Key, (tt, gid)) for tt in self.target_types])


def map_source(rule: MappingRule, sources: Mapping[Key, SourceRecord]) -> tuple[TargetRecord, ...]:
    """Apply one rule to the present source records of a group.

    Output provenance is exactly the versions of the consumed records.  If
    every consumed record is a tombstone the outputs are tombstones too, so
    deletions survive translation.  An empty input set produces nothing.
    Transforms must return fresh (or never-mutated) value mappings; they are
    attached to the produced records without copying.  Provenance is keyed by
    each record's own `key`, so stored targets share the source's key objects.
    """
    if not sources:
        return ()
    provenance = {}
    live = False
    for rec in sources.values():
        provenance[rec.key] = rec.version
        if not rec.tombstone:
            live = True
    if not live:
        gid = next(iter(sources)).id
        return tuple([TargetRecord(tk, {}, provenance, True) for tk in rule.target_keys(gid)])
    return tuple(
        [_tuple_new(TargetRecord, (tk, value, provenance, False))
         for tk, value in rule.transform(sources)]
    )


def identity_rule(name: str, source: str, target: str) -> MappingRule:
    def transform(sources: Mapping[Key, SourceRecord]):
        (rec,) = [r for r in sources.values() if not r.tombstone]
        if not isinstance(rec.value, Mapping):
            raise TransformError(f"{name}: value of {rec.key} is not a field map")
        return [(_tuple_new(Key, (target, rec.key.id)), rec.value)]

    return MappingRule(name, (source,), (target,), transform)


def split_rule(name: str, source: str, targets: Iterable[tuple[str, Iterable[str]]]) -> MappingRule:
    parts = tuple((tt, tuple(fields)) for tt, fields in targets)

    def transform(sources: Mapping[Key, SourceRecord]):
        (rec,) = [r for r in sources.values() if not r.tombstone]
        if not isinstance(rec.value, Mapping):
            raise TransformError(f"{name}: value of {rec.key} is not a field map")
        out = []
        for tt, fields in parts:
            out.append((Key(tt, rec.key.id), {f: rec.value[f] for f in fields if f in rec.value}))
        return out

    return MappingRule(name, (source,), tuple(tt for tt, _ in parts), transform)


def merge_rule(name: str, sources: Iterable[str], target: str) -> MappingRule:
    stypes = tuple(sources)

    def transform(recs: Mapping[Key, SourceRecord]):
        gid = next(iter(recs)).id
        merged: dict[str, str] = {}
        for st in stypes:
            rec = recs.get(Key(st, gid))
            if rec is None or rec.tombstone:
                continue
            if not isinstance(rec.value, Mapping):
                raise TransformError(f"{name}: value of {rec.key} is not a field map")
            for fname, fval in rec.value.items():
                merged[f"{st}_{fname}"] = fval
        return [(Key(target, gid), merged)]

    return MappingRule(name, stypes, (target,), transform)


class Schema:
    """Registered entity types and rules with frozen topological orders.

    `source_order` lists the source types and `target_order` the target
    types, every parent before any of its children.  Construction validates
    the schema and raises CycleError, UnknownTypeError or SchemaError.
    `fault` is the run's injected mapping bug, if any; `map_group` and so
    `check_group` consult it.
    """

    def __init__(
        self,
        types: Iterable[EntityType],
        rules: Iterable[MappingRule],
        fault: BugSpec | None = None,
    ):
        self.fault = fault
        self.types: dict[str, EntityType] = {}
        for et in types:
            if et.name in self.types:
                raise SchemaError(f"duplicate entity type {et.name!r}")
            self.types[et.name] = et
        for et in self.types.values():
            for parent in et.parents:
                if parent not in self.types:
                    raise UnknownTypeError(
                        f"type {et.name!r} depends on unregistered type {parent!r}"
                    )
        self.source_order: tuple[str, ...] = _toposort(
            {name: set(et.parents) for name, et in self.types.items()}
        )

        self.rules: tuple[MappingRule, ...] = tuple(rules)
        rules_by_source: dict[str, list[MappingRule]] = {}
        self._rule_by_target: dict[str, MappingRule] = {}
        for rule in self.rules:
            for st in rule.source_types:
                if st not in self.types:
                    raise UnknownTypeError(f"rule {rule.name!r} consumes unknown type {st!r}")
                rules_by_source.setdefault(st, []).append(rule)
            for tt in rule.target_types:
                if tt in self._rule_by_target:
                    raise SchemaError(f"target type {tt!r} produced by more than one rule")
                if tt in self.types:
                    raise SchemaError(f"target type {tt!r} collides with a source type")
                self._rule_by_target[tt] = rule

        # Per-type key maps: the key-level queries below only attach an id.
        # Keys that share an id sort by type, so sorted types give sorted keys.
        self._rules_by_source: dict[str, tuple[MappingRule, ...]] = {
            st: tuple(rules) for st, rules in rules_by_source.items()
        }
        self._affected_types: dict[str, tuple[str, ...]] = {
            st: tuple(sorted({tt for rule in rules for tt in rule.target_types}))
            for st, rules in rules_by_source.items()
        }
        # Per source type, one row per parent type in sorted order: the
        # record field that references the parent, the parent type, and the
        # target types that parent affects.
        self._parent_rows: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
            name: tuple(
                (PARENT_REF_PREFIX + ptype, ptype, self._affected_types.get(ptype, ()))
                for ptype in sorted(et.parents)
            )
            for name, et in self.types.items()
        }
        # Per target type, the parent rows of its rule's input types whose
        # parent affects some target type, each led by the input type.
        self._parent_refs: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
            tt: tuple(
                (st, field_name, ttypes)
                for st in rule.source_types
                for field_name, _ptype, ttypes in self._parent_rows[st]
                if ttypes
            )
            for tt, rule in self._rule_by_target.items()
        }

        self.target_order: tuple[str, ...] = _toposort(self._target_parents())
        self._target_rank = {tt: i for i, tt in enumerate(self.target_order)}

    def _target_parents(self) -> dict[str, set[str]]:
        """Dependency relation induced on target types via the rules."""
        parents: dict[str, set[str]] = {tt: set() for tt in self._rule_by_target}
        for tt, rule in self._rule_by_target.items():
            for st in rule.source_types:
                for parent_source in self.types[st].parents:
                    for prule in self._rules_by_source.get(parent_source, ()):
                        parents[tt].update(t for t in prule.target_types if t != tt)
        return parents

    def target_rank(self, ttype: str) -> int:
        return self._target_rank[ttype]

    def rules_for_source(self, etype: str) -> tuple[MappingRule, ...]:
        return self._rules_by_source.get(etype, ())

    def rule_for_target(self, ttype: str) -> MappingRule:
        try:
            return self._rule_by_target[ttype]
        except KeyError:
            raise UnknownTypeError(f"no rule produces target type {ttype!r}") from None

    def affected_targets(self, skey: Key) -> tuple[Key, ...]:
        """All target keys whose expected state depends on a source key, sorted."""
        gid = skey.id
        return tuple(
            [_tuple_new(Key, (tt, gid)) for tt in self._affected_types.get(skey.etype, ())]
        )

    def parent_source_keys(self, record: SourceRecord) -> tuple[Key, ...]:
        """Parent instances referenced by a record via its parent_* fields."""
        value = record.value
        keys = []
        for field_name, ptype, _ttypes in self._parent_rows[record.key.etype]:
            ref = value.get(field_name)
            if ref is not None:
                keys.append(_tuple_new(Key, (ptype, ref)))
        return tuple(keys)

    def parent_target_keys(self, sources: Mapping[Key, SourceRecord]) -> tuple[Key, ...]:
        """Target records that must exist before this group's live outputs,
        sorted: callers read them in this order."""
        out: set[Key] = set()
        for rec in sources.values():
            if rec.tombstone:
                continue
            value = rec.value
            for field_name, _ptype, ttypes in self._parent_rows[rec.key.etype]:
                ref = value.get(field_name)
                if ref is not None:
                    for tt in ttypes:
                        out.add(_tuple_new(Key, (tt, ref)))
        return tuple(sorted(out))

    def parent_refs(self, ttype: str) -> tuple[tuple[str, str, tuple[str, ...]], ...]:
        """Where a group's live outputs of `ttype` find their parents: per
        input type of the rule that produces it and per parent type of that
        input, in sorted order, (input type, the record field that references
        the parent, the target types that parent affects).  A live input
        record whose field holds `ref` needs each `(tt, ref)`: the keys
        `parent_target_keys` gives, unsorted and maybe repeated."""
        try:
            return self._parent_refs[ttype]
        except KeyError:
            raise UnknownTypeError(f"no rule produces target type {ttype!r}") from None

    def map_group(
        self, rule: MappingRule, sources: dict[Key, SourceRecord], now: int
    ) -> tuple[dict[Key, TargetRecord], str]:
        """The map step of `check_group`: (expected, bug).

        Applies the fault if it breaks the group at `now`, or else the rule,
        to the group's sources (`read_group`).  `bug` is "" when the group
        mapped and "mapping_bug: <message>" when it did not; `expected` is
        then empty.
        """
        if not sources:
            return {}, ""
        if self.fault is not None:
            broken = self.fault.broken_source(rule.name, sources, now)
            if broken is not None:
                return {}, f"mapping_bug: injected mapping bug on {broken}"
        try:
            outputs = map_source(rule, sources)
        except TransformError as exc:
            return {}, f"mapping_bug: {exc}"
        return {r.key: r for r in outputs}, ""

    def check_group(
        self, rule: MappingRule, sources: dict[Key, SourceRecord], get: TargetRead,
        keys: Iterable[Key], now: int,
    ) -> tuple[dict[Key, TargetRecord], dict[Key, DiscrepancyClass | None], str]:
        """Map one rule group and judge the requested target keys against
        it: (expected, verdicts, bug), as `map_group` plus one verdict per key.

        Each key is read with `get` in the order given, and only the keys
        given: with a faulty store every read draws from its fault stream.
        A verdict is None when its read raised StoreUnavailable.  A group
        that fails to map reads no target at all; each requested key is
        then corrupt, and `bug` says why.
        """
        expected, bug = self.map_group(rule, sources, now)
        if bug:
            return expected, dict.fromkeys(keys, DiscrepancyClass.CORRUPT), bug
        verdicts: dict[Key, DiscrepancyClass | None] = {}
        for tkey in keys:
            try:
                actual = get(tkey)
            except StoreUnavailable:
                verdicts[tkey] = None
                continue
            verdicts[tkey] = compare_records(expected.get(tkey), actual)
        return expected, verdicts, bug


def read_group(rule: MappingRule, gid: str, read: SourceRead) -> dict[Key, SourceRecord]:
    """The present source records of one rule group, in input-key order."""
    sources: dict[Key, SourceRecord] = {}
    for k in rule.input_keys(gid):
        rec = read(k)
        if rec is not None:
            sources[k] = rec
    return sources


def _toposort(parents: dict[str, set[str]]) -> tuple[str, ...]:
    """Dependency-first order with a lexicographic tie-break.

    `parents[n]` is the set of nodes n depends on; every parent precedes all
    of its children in the result.  Raises CycleError naming one cycle.
    """
    remaining = {n: set(p) for n, p in parents.items()}
    ready = [n for n, p in sorted(remaining.items()) if not p]
    heapq.heapify(ready)
    dependants: dict[str, list[str]] = {n: [] for n in remaining}
    for n, p in remaining.items():
        for parent in p:
            dependants[parent].append(n)
    order: list[str] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for child in sorted(dependants[node]):
            remaining[child].discard(node)
            if not remaining[child]:
                heapq.heappush(ready, child)
    if len(order) != len(parents):
        raise CycleError(_find_cycle(parents))
    return tuple(order)


def _find_cycle(parents: dict[str, set[str]]) -> tuple[str, ...]:
    seen: set[str] = set()
    for start in sorted(parents):
        path: list[str] = []
        on_path: set[str] = set()

        def walk(node: str) -> tuple[str, ...] | None:
            if node in on_path:
                idx = path.index(node)
                return tuple(path[idx:])
            if node in seen:
                return None
            seen.add(node)
            path.append(node)
            on_path.add(node)
            for parent in sorted(parents.get(node, ())):
                found = walk(parent)
                if found:
                    return found
            path.pop()
            on_path.discard(node)
            return None

        cycle = walk(start)
        if cycle:
            return cycle
    return tuple(sorted(parents))
