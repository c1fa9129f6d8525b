"""Scenario files: schema, workload, faults, and run configuration.

A scenario is fully serializable canonical JSON; equal scenarios produce
bit-identical event logs.  Durations accept "90m" / "10h" / "3d" sugar and
are normalized to ticks (1 tick = 1 simulated minute) on parse, so
serialize(parse(serialize(x))) is byte-identical.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field

from .domain import (
    EntityType,
    MappingRule,
    Schema,
    identity_rule,
    merge_rule,
    register_schema,
    split_rule,
)
from .healing import RetryPolicy
from .ramp import RampCriteria, RampPlan
from .stores import FaultProfile

TICKS_PER_HOUR = 60
TICKS_PER_DAY = 1440

_DURATION_RE = re.compile(r"^(\d+)([mhd])$")
_UNIT_TICKS = {"m": 1, "h": TICKS_PER_HOUR, "d": TICKS_PER_DAY}


class ConfigError(Exception):
    """Scenario file is structurally or semantically invalid."""


def parse_ticks(value, label: str = "duration") -> int:
    """Accept plain ticks or '<n>m|h|d' sugar."""
    if isinstance(value, bool):
        raise ConfigError(f"{label}: expected ticks, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        m = _DURATION_RE.match(value.strip())
        if m:
            return int(m.group(1)) * _UNIT_TICKS[m.group(2)]
    raise ConfigError(f"{label}: cannot parse {value!r} as ticks")


@dataclass(frozen=True)
class TypeSpec:
    name: str
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleSpec:
    name: str
    kind: str  # "identity" | "split" | "merge"
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    split_fields: tuple[tuple[str, tuple[str, ...]], ...] = ()

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
    at: int
    size: int
    etype: str


@dataclass(frozen=True)
class WorkloadSpec:
    initial_records: int = 0
    type_weights: tuple[tuple[str, float], ...] = ()
    write_rate: float = 0.0
    read_rate: float = 0.0
    delete_fraction: float = 0.0
    update_fraction: float = 0.7
    delete_types: tuple[str, ...] = ()
    bursts: tuple[BurstSpec, ...] = ()
    night_rate_factor: float = 1.0
    day_ticks: int = TICKS_PER_DAY // 2  # first half of each day runs at full rate
    writes_until: int | None = None  # stop writes/deletes after this tick


@dataclass(frozen=True)
class BootstrapSpec:
    enabled: bool = True
    mode: str = "direct"  # "direct" | "queue"
    at: int = 0
    limiter_capacity: int = 15_900


@dataclass(frozen=True)
class OfflineSpec:
    enabled: bool = True
    interval: int = 10 * TICKS_PER_HOUR
    cutoff: int = 24 * TICKS_PER_HOUR


@dataclass(frozen=True)
class MetricsSpec:
    sample_interval: int = TICKS_PER_HOUR
    ttc_window: int = 300
    staleness_floor: int = 10
    staleness_bound_override: int | None = None


@dataclass(frozen=True)
class RampSpec:
    enabled: bool = False
    time: int = 0
    mode: str = "drained"
    bulk_freeze_lead: int = 3 * TICKS_PER_DAY
    freeze_timeout: int = 60
    clearance_lead: int = 10
    required_settled_rate: float = 1.0
    max_queue_length: int = 0
    max_window_ttc: int | None = None

    def plan(self) -> RampPlan:
        return RampPlan(
            ramp_time=self.time,
            mode=self.mode,
            bulk_freeze_lead=self.bulk_freeze_lead,
            freeze_timeout=self.freeze_timeout,
            clearance_lead=self.clearance_lead,
        )

    def criteria(self) -> RampCriteria:
        return RampCriteria(
            required_settled_rate=self.required_settled_rate,
            max_queue_length=self.max_queue_length,
            max_window_ttc=self.max_window_ttc,
        )


@dataclass(frozen=True)
class BugSpec:
    """Time-boxed injected mapping bug plus the operator requeue action."""

    rule: str
    etype: str
    id_mod: int
    id_rem: int
    active_from: int
    active_until: int
    requeue_at: int | None = None

    def active_at(self, now: int) -> bool:
        return self.active_from <= now < self.active_until


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
    settle_delay: int | None = None  # None: 2 * stream_lag
    shadow_alarm_interval: int = 10
    run_oracle: bool = True


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration: int
    types: tuple[TypeSpec, ...]
    rules: tuple[RuleSpec, ...]
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
        types = [EntityType(t.name, frozenset(t.parents)) for t in self.types]
        rules = [r.build() for r in self.rules]
        return register_schema(types, rules)

    def settle_delay(self) -> int:
        if self.toggles.settle_delay is not None:
            return self.toggles.settle_delay
        return 2 * self.fault.stream_lag


def serialize(scenario: Scenario) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    doc = {
        "name": scenario.name,
        "seed": scenario.seed,
        "duration": scenario.duration,
        "schema": {
            "types": [
                {"name": t.name, "parents": sorted(t.parents)} for t in scenario.types
            ],
            "rules": [_rule_doc(r) for r in scenario.rules],
        },
        "workload": {
            "initial_records": scenario.workload.initial_records,
            "type_weights": [[n, w] for n, w in scenario.workload.type_weights],
            "write_rate": scenario.workload.write_rate,
            "read_rate": scenario.workload.read_rate,
            "delete_fraction": scenario.workload.delete_fraction,
            "update_fraction": scenario.workload.update_fraction,
            "delete_types": sorted(scenario.workload.delete_types),
            "bursts": [
                {"at": b.at, "size": b.size, "type": b.etype}
                for b in scenario.workload.bursts
            ],
            "night_rate_factor": scenario.workload.night_rate_factor,
            "day_ticks": scenario.workload.day_ticks,
            "writes_until": scenario.workload.writes_until,
        },
        "fault": {
            "availability_p": scenario.fault.availability_p,
            "outage_windows": [list(w) for w in scenario.fault.outage_windows],
            "stream_lag": scenario.fault.stream_lag,
            "stream_drop_p": scenario.fault.stream_drop_p,
        },
        "retry": {
            "max_attempts": scenario.retry.max_attempts,
            "backoff_base": scenario.retry.backoff_base,
            "backoff_cap": scenario.retry.backoff_cap,
            "rate_limit": scenario.retry.rate_limit,
        },
        "bootstrap": asdict(scenario.bootstrap),
        "offline": asdict(scenario.offline),
        "metrics": asdict(scenario.metrics),
        "ramp": asdict(scenario.ramp),
        "bug": asdict(scenario.bug) if scenario.bug else None,
        "expect": asdict(scenario.expect),
        "toggles": asdict(scenario.toggles),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _rule_doc(rule: RuleSpec) -> dict:
    doc = {
        "name": rule.name,
        "kind": rule.kind,
        "sources": list(rule.sources),
        "targets": list(rule.targets),
    }
    if rule.kind == "split":
        doc["split_fields"] = [[tt, list(fields)] for tt, fields in rule.split_fields]
    return doc


def parse(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a JSON object")
    try:
        return _parse_doc(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid scenario: {exc}") from exc


def _parse_doc(doc: dict) -> Scenario:
    schema_doc = doc.get("schema", {})
    types = tuple(
        TypeSpec(t["name"], tuple(sorted(t.get("parents", []))))
        for t in schema_doc.get("types", [])
    )
    rules = tuple(_parse_rule(r) for r in schema_doc.get("rules", []))

    wl = doc.get("workload", {})
    workload = WorkloadSpec(
        initial_records=int(wl.get("initial_records", 0)),
        type_weights=tuple((n, float(w)) for n, w in wl.get("type_weights", [])),
        write_rate=float(wl.get("write_rate", 0.0)),
        read_rate=float(wl.get("read_rate", 0.0)),
        delete_fraction=float(wl.get("delete_fraction", 0.0)),
        update_fraction=float(wl.get("update_fraction", 0.7)),
        delete_types=tuple(sorted(wl.get("delete_types", []))),
        bursts=tuple(
            BurstSpec(parse_ticks(b["at"], "burst.at"), int(b["size"]), b["type"])
            for b in wl.get("bursts", [])
        ),
        night_rate_factor=float(wl.get("night_rate_factor", 1.0)),
        day_ticks=parse_ticks(wl.get("day_ticks", TICKS_PER_DAY // 2), "day_ticks"),
        writes_until=(
            parse_ticks(wl["writes_until"], "writes_until")
            if wl.get("writes_until") is not None
            else None
        ),
    )

    ft = doc.get("fault", {})
    try:
        fault = FaultProfile(
            availability_p=float(ft.get("availability_p", 1.0)),
            outage_windows=tuple(
                (parse_ticks(a, "outage start"), parse_ticks(b, "outage end"))
                for a, b in ft.get("outage_windows", [])
            ),
            stream_lag=parse_ticks(ft.get("stream_lag", 0), "stream_lag"),
            stream_drop_p=float(ft.get("stream_drop_p", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"fault profile: {exc}") from exc

    rt = doc.get("retry", {})
    try:
        retry = RetryPolicy(
            max_attempts=int(rt.get("max_attempts", 10)),
            backoff_base=parse_ticks(rt.get("backoff_base", 1), "backoff_base"),
            backoff_cap=parse_ticks(rt.get("backoff_cap", 64), "backoff_cap"),
            rate_limit=int(rt.get("rate_limit", 100)),
        )
    except ValueError as exc:
        raise ConfigError(f"retry policy: {exc}") from exc

    bs = doc.get("bootstrap", {})
    bootstrap = BootstrapSpec(
        enabled=bool(bs.get("enabled", True)),
        mode=bs.get("mode", "direct"),
        at=parse_ticks(bs.get("at", 0), "bootstrap.at"),
        limiter_capacity=int(bs.get("limiter_capacity", 15_900)),
    )
    if bootstrap.mode not in ("direct", "queue"):
        raise ConfigError(f"bootstrap.mode: unknown mode {bootstrap.mode!r}")

    off = doc.get("offline", {})
    offline = OfflineSpec(
        enabled=bool(off.get("enabled", True)),
        interval=parse_ticks(off.get("interval", "10h"), "offline.interval"),
        cutoff=parse_ticks(off.get("cutoff", "24h"), "offline.cutoff"),
    )

    mt = doc.get("metrics", {})
    metrics = MetricsSpec(
        sample_interval=parse_ticks(mt.get("sample_interval", "1h"), "sample_interval"),
        ttc_window=parse_ticks(mt.get("ttc_window", 300), "ttc_window"),
        staleness_floor=parse_ticks(mt.get("staleness_floor", 10), "staleness_floor"),
        staleness_bound_override=(
            parse_ticks(mt["staleness_bound_override"], "staleness_bound_override")
            if mt.get("staleness_bound_override") is not None
            else None
        ),
    )

    rp = doc.get("ramp", {})
    ramp = RampSpec(
        enabled=bool(rp.get("enabled", False)),
        time=parse_ticks(rp.get("time", 0), "ramp.time"),
        mode=rp.get("mode", "drained"),
        bulk_freeze_lead=parse_ticks(rp.get("bulk_freeze_lead", "3d"), "bulk_freeze_lead"),
        freeze_timeout=parse_ticks(rp.get("freeze_timeout", 60), "freeze_timeout"),
        clearance_lead=parse_ticks(rp.get("clearance_lead", 10), "clearance_lead"),
        required_settled_rate=float(rp.get("required_settled_rate", 1.0)),
        max_queue_length=int(rp.get("max_queue_length", 0)),
        max_window_ttc=(
            parse_ticks(rp["max_window_ttc"], "max_window_ttc")
            if rp.get("max_window_ttc") is not None
            else None
        ),
    )
    if ramp.mode not in ("drained", "forced"):
        raise ConfigError(f"ramp.mode: unknown mode {ramp.mode!r}")

    bug_doc = doc.get("bug")
    bug = None
    if bug_doc:
        bug = BugSpec(
            rule=bug_doc["rule"],
            etype=bug_doc["etype"],
            id_mod=int(bug_doc["id_mod"]),
            id_rem=int(bug_doc["id_rem"]),
            active_from=parse_ticks(bug_doc["active_from"], "bug.active_from"),
            active_until=parse_ticks(bug_doc["active_until"], "bug.active_until"),
            requeue_at=(
                parse_ticks(bug_doc["requeue_at"], "bug.requeue_at")
                if bug_doc.get("requeue_at") is not None
                else None
            ),
        )

    ex = doc.get("expect", {})
    expect = ExpectSpec(
        outcome=ex.get("outcome"),
        max_attempts_ratio=(
            float(ex["max_attempts_ratio"]) if ex.get("max_attempts_ratio") is not None else None
        ),
        min_attempts_ratio=(
            float(ex["min_attempts_ratio"]) if ex.get("min_attempts_ratio") is not None else None
        ),
        final_settled_rate=(
            float(ex["final_settled_rate"]) if ex.get("final_settled_rate") is not None else None
        ),
        zero_dead_letters=bool(ex.get("zero_dead_letters", False)),
        lost_updates_positive=bool(ex.get("lost_updates_positive", False)),
    )

    tg = doc.get("toggles", {})
    toggles = TogglesSpec(
        enable_dualwrite=bool(tg.get("enable_dualwrite", True)),
        enable_nearline=bool(tg.get("enable_nearline", True)),
        enable_shadow=bool(tg.get("enable_shadow", True)),
        settle_delay=(
            parse_ticks(tg["settle_delay"], "settle_delay")
            if tg.get("settle_delay") is not None
            else None
        ),
        shadow_alarm_interval=parse_ticks(
            tg.get("shadow_alarm_interval", 10), "shadow_alarm_interval"
        ),
        run_oracle=bool(tg.get("run_oracle", True)),
    )

    scenario = Scenario(
        name=str(doc.get("name", "unnamed")),
        seed=int(doc.get("seed", 0)),
        duration=parse_ticks(doc.get("duration", 0), "duration"),
        types=types,
        rules=rules,
        workload=workload,
        fault=fault,
        retry=retry,
        bootstrap=bootstrap,
        offline=offline,
        metrics=metrics,
        ramp=ramp,
        bug=bug,
        expect=expect,
        toggles=toggles,
    )
    _validate(scenario)
    return scenario


def _parse_rule(doc: dict) -> RuleSpec:
    kind = doc.get("kind", "identity")
    sources = tuple(doc.get("sources", []))
    targets = tuple(doc.get("targets", []))
    split_fields: tuple = ()
    if kind == "split":
        split_fields = tuple(
            (tt, tuple(fields)) for tt, fields in doc.get("split_fields", [])
        )
        targets = tuple(tt for tt, _ in split_fields)
    return RuleSpec(doc["name"], kind, sources, targets, split_fields)


def _validate(scenario: Scenario) -> None:
    if scenario.duration < 0:
        raise ConfigError("duration must be >= 0")
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
    for dt in scenario.workload.delete_types:
        if dt not in names:
            raise ConfigError(f"delete_types names unknown type {dt!r}")
    for burst in scenario.workload.bursts:
        if burst.etype not in names:
            raise ConfigError(f"burst targets unknown type {burst.etype!r}")
    if scenario.bug is not None:
        if scenario.bug.rule not in {r.name for r in scenario.rules}:
            raise ConfigError(f"bug names unknown rule {scenario.bug.rule!r}")
    if scenario.ramp.enabled and scenario.ramp.time > scenario.duration:
        raise ConfigError("ramp.time is past the end of the run")


def load_file(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
