"""Scenario files: schema, workload, faults, and run configuration.

A scenario is canonical JSON; equal scenarios produce bit-identical event
logs.  One codec maps `Scenario` and every spec inside it to JSON objects and
back, walking the dataclass fields in declaration order:

- A field's annotation sets how its value is decoded.  `Ticks` goes through
  `parse_ticks`, so "90m" / "10h" / "3d" normalize to ticks (1 tick = 1
  simulated minute), and ticks are never negative.  `X | None` also takes
  null; an optional spec reads any false value ({}, [], 0, "", false) as
  absent.  `tuple[...]` is a JSON list (of exactly its length, unless it
  ends in `...`), and a nested spec is a nested object.  `int`, `float` and
  `bool` values are coerced; `str` values are kept as given.
- A key missing from the document takes the field's default; a field without
  one is required.  A key that names no field is an error.
- Field metadata covers the irregular spots: `key` names the document key
  when it is not the field name (a dotted key nests it in an object),
  `sorted` sorts the value both ways, and `omit_default` leaves the key out
  of the text when the value is the field's default.

Parsing normalizes, so serialize(parse(serialize(x))) is byte-identical.
"""

from __future__ import annotations

import functools
import json
import re
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

from .domain import (
    EntityType,
    Key,
    MappingRule,
    Schema,
    SourceRecord,
    identity_rule,
    merge_rule,
    split_rule,
)
from .healing import RetryPolicy
from .stores import FaultProfile, Ticks

TICKS_PER_HOUR = 60
TICKS_PER_DAY = 1440

_DURATION_RE = re.compile(r"^(\d+)([mhd])$")
_UNIT_TICKS = {"m": 1, "h": TICKS_PER_HOUR, "d": TICKS_PER_DAY}


class ConfigError(Exception):
    """Scenario file is structurally or semantically invalid."""


def parse_ticks(value, label: str = "duration") -> int:
    """Accept plain ticks or '<n>m|h|d' sugar; never a negative count."""
    if isinstance(value, bool):
        raise ConfigError(f"{label}: expected ticks, got a boolean")
    if isinstance(value, int):
        if value < 0:
            raise ConfigError(f"{label} must be >= 0")
        return value
    if isinstance(value, str):
        m = _DURATION_RE.match(value.strip())
        if m:
            return int(m.group(1)) * _UNIT_TICKS[m.group(2)]
    raise ConfigError(f"{label}: cannot parse {value!r} as ticks")


@dataclass(frozen=True)
class TypeSpec:
    name: str
    parents: tuple[str, ...] = field(default=(), metadata={"sorted": True})


@dataclass(frozen=True)
class RuleSpec:
    name: str
    kind: str = "identity"  # "identity" | "split" | "merge"
    sources: tuple[str, ...] = ()
    targets: tuple[str, ...] = ()
    split_fields: tuple[tuple[str, tuple[str, ...]], ...] = field(
        default=(), metadata={"omit_default": True}
    )

    def __post_init__(self) -> None:
        # A split rule's targets are its split fields' target types; any
        # other kind has no split fields.
        if self.kind == "split":
            object.__setattr__(self, "targets", tuple(tt for tt, _ in self.split_fields))
        else:
            object.__setattr__(self, "split_fields", ())

    def build(self) -> MappingRule:
        if self.kind == "identity":
            return identity_rule(self.name, self.sources[0], self.targets[0])
        if self.kind == "split":
            return split_rule(self.name, self.sources[0], self.split_fields)
        if self.kind == "merge":
            return merge_rule(self.name, self.sources, self.targets[0])
        raise ConfigError(f"rule {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class BurstSpec:
    at: Ticks
    size: int
    etype: str = field(metadata={"key": "type"})


@dataclass(frozen=True)
class WorkloadSpec:
    initial_records: int = 0
    type_weights: tuple[tuple[str, float], ...] = ()
    write_rate: float = 0.0
    read_rate: float = 0.0
    delete_fraction: float = 0.0
    update_fraction: float = 0.7
    delete_types: tuple[str, ...] = field(default=(), metadata={"sorted": True})
    bursts: tuple[BurstSpec, ...] = ()
    night_rate_factor: float = 1.0
    day_ticks: Ticks = TICKS_PER_DAY // 2  # first half of each day runs at full rate
    writes_until: Ticks | None = None  # stop writes/deletes after this tick


@dataclass(frozen=True)
class BootstrapSpec:
    enabled: bool = True
    mode: str = "direct"  # "direct" | "queue"
    at: Ticks = 0
    limiter_capacity: int = 15_900


@dataclass(frozen=True)
class OfflineSpec:
    enabled: bool = True
    interval: Ticks = 10 * TICKS_PER_HOUR
    cutoff: Ticks = 24 * TICKS_PER_HOUR


@dataclass(frozen=True)
class MetricsSpec:
    sample_interval: Ticks = TICKS_PER_HOUR
    ttc_window: Ticks = 300
    staleness_floor: Ticks = 10
    staleness_bound_override: Ticks | None = None


@dataclass(frozen=True)
class RampSpec:
    """The switch-over: its timing, its mode and its clearance criteria."""

    enabled: bool = False
    time: Ticks = 0
    mode: str = "drained"
    bulk_freeze_lead: Ticks = 3 * TICKS_PER_DAY
    freeze_timeout: Ticks = 60
    clearance_lead: Ticks = 10
    required_settled_rate: float = 1.0
    max_queue_length: int = 0
    max_window_ttc: Ticks | None = None  # None: the current staleness bound


@dataclass(frozen=True)
class BugSpec:
    """Time-boxed injected mapping bug plus the operator requeue action."""

    rule: str
    etype: str
    id_mod: int
    id_rem: int
    active_from: Ticks
    active_until: Ticks
    requeue_at: Ticks | None = None

    def active_at(self, now: int) -> bool:
        return self.active_from <= now < self.active_until

    def broken_source(
        self, rule_name: str, sources: Mapping[Key, SourceRecord], now: int
    ) -> Key | None:
        """The source on which this bug breaks a group of `rule_name` at `now`:
        the first live one of its type whose id matches.  None when it maps."""
        if rule_name == self.rule and self.active_at(now):
            for skey, rec in sources.items():
                if skey.etype == self.etype and not rec.tombstone:
                    if int(skey.id) % self.id_mod == self.id_rem:
                        return skey
        return None


@dataclass(frozen=True)
class ExpectSpec:
    """Assertions the CLI evaluates after a run; any failure is a nonzero exit."""

    outcome: str | None = None  # expected switch outcome
    max_attempts_ratio: float | None = None
    min_attempts_ratio: float | None = None
    final_settled_rate: float | None = None
    zero_dead_letters: bool = False
    lost_updates_positive: bool = False


@dataclass(frozen=True)
class TogglesSpec:
    enable_dualwrite: bool = True
    enable_nearline: bool = True
    enable_shadow: bool = True
    settle_delay: Ticks | None = None  # None: 2 * stream_lag
    shadow_alarm_interval: Ticks = 10
    run_oracle: bool = True


@dataclass(frozen=True)
class Scenario:
    name: str = "unnamed"
    seed: int = 0
    duration: Ticks = 0
    types: tuple[TypeSpec, ...] = field(default=(), metadata={"key": "schema.types"})
    rules: tuple[RuleSpec, ...] = field(default=(), metadata={"key": "schema.rules"})
    workload: WorkloadSpec = WorkloadSpec()
    fault: FaultProfile = FaultProfile()
    retry: RetryPolicy = RetryPolicy()
    bootstrap: BootstrapSpec = BootstrapSpec()
    offline: OfflineSpec = OfflineSpec()
    metrics: MetricsSpec = MetricsSpec()
    ramp: RampSpec = RampSpec()
    bug: BugSpec | None = None
    expect: ExpectSpec = ExpectSpec()
    toggles: TogglesSpec = TogglesSpec()

    def build_schema(self) -> Schema:
        """The run's schema; the injected bug, if any, is its fault."""
        types = [EntityType(t.name, frozenset(t.parents)) for t in self.types]
        rules = [r.build() for r in self.rules]
        return Schema(types, rules, self.bug)

    def settle_delay(self) -> int:
        if self.toggles.settle_delay is not None:
            return self.toggles.settle_delay
        return 2 * self.fault.stream_lag


def serialize(scenario: Scenario) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(_encode(scenario), indent=2, sort_keys=True) + "\n"


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if not is_dataclass(value):
        return value
    doc: dict = {}
    for f in fields(value):
        item = getattr(value, f.name)
        if f.metadata.get("omit_default") and item == f.default:
            continue
        item = _encode(item)
        if f.metadata.get("sorted"):
            item = sorted(item)
        *outer, key = f.metadata.get("key", f.name).split(".")
        into = doc
        for part in outer:
            into = into.setdefault(part, {})
        into[key] = item
    return doc


def parse(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    try:
        scenario = _decode(Scenario, doc, "")
        _validate(scenario)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    return scenario


@functools.cache
def _fields(cls) -> tuple:
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _decode(tp, value, path: str):
    """Decode `value` from the document as annotation `tp`; `path` labels errors."""
    if tp == Ticks:
        return parse_ticks(value, path)
    if is_dataclass(tp):
        return _decode_spec(tp, value, path)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # X | None
        if value is None or (not value and is_dataclass(args[0])):
            return None
        return _decode(args[0], value, path)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], item, path) for item in value)
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{path}: expected a list of {len(args)}, got {value!r}")
        return tuple(_decode(t, item, path) for t, item in zip(args, value))
    return value if tp is str else tp(value)


def _decode_spec(cls, doc, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    _reject_unknown(doc, [f.metadata.get("key", f.name) for f, _ in _fields(cls)], path)
    kwargs = {}
    for f, tp in _fields(cls):
        src, label, key = doc, path, f.metadata.get("key", f.name)
        *outer, last = key.split(".")
        for part in outer:
            src, label = src.get(part, {}), _join(label, part)
            if not isinstance(src, dict):
                raise ConfigError(f"{label}: expected an object")
        if last in src:
            value = _decode(tp, src[last], _join(path, key))
            kwargs[f.name] = tuple(sorted(value)) if f.metadata.get("sorted") else value
        elif f.default is MISSING:
            raise KeyError(last)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _reject_unknown(doc: dict, keys: list[str], path: str) -> None:
    """Raise ConfigError naming the first key of `doc` that no dotted key in `keys` covers."""
    for name, value in doc.items():
        inner = [key[len(name) + 1:] for key in keys if key.startswith(name + ".")]
        if inner and isinstance(value, dict):
            _reject_unknown(value, inner, _join(path, name))
        elif not inner and name not in keys:
            raise ConfigError(f"{_join(path, name)}: unknown key")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _validate(scenario: Scenario) -> None:
    if scenario.bootstrap.mode not in ("direct", "queue"):
        raise ConfigError(f"bootstrap.mode: unknown mode {scenario.bootstrap.mode!r}")
    if scenario.ramp.mode not in ("drained", "forced"):
        raise ConfigError(f"ramp.mode: unknown mode {scenario.ramp.mode!r}")
    if scenario.metrics.sample_interval <= 0:
        raise ConfigError("metrics.sample_interval must be > 0")
    if scenario.offline.interval <= 0:
        raise ConfigError("offline.interval must be > 0")
    try:
        scenario.build_schema()
    except Exception as exc:
        raise ConfigError(f"schema: {exc}") from exc
    names = {t.name for t in scenario.types}
    for name, weight in scenario.workload.type_weights:
        if name not in names:
            raise ConfigError(f"workload weight for unknown type {name!r}")
        if weight < 0:
            raise ConfigError("type weights must be >= 0")
    for name in ("write_rate", "read_rate", "night_rate_factor"):
        if not 0 <= getattr(scenario.workload, name) < float("inf"):
            raise ConfigError(f"workload.{name} must be a finite number >= 0")
    for dt in scenario.workload.delete_types:
        if dt not in names:
            raise ConfigError(f"delete_types names unknown type {dt!r}")
    for burst in scenario.workload.bursts:
        if burst.etype not in names:
            raise ConfigError(f"burst targets unknown type {burst.etype!r}")
    if scenario.bug is not None:
        if scenario.bug.rule not in {r.name for r in scenario.rules}:
            raise ConfigError(f"bug names unknown rule {scenario.bug.rule!r}")
        if scenario.bug.id_mod <= 0:
            raise ConfigError("bug.id_mod must be > 0")
    if scenario.ramp.enabled and scenario.ramp.time > scenario.duration:
        raise ConfigError("ramp.time is past the end of the run")


def load_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
