"""Deterministic scenario runner on a virtual clock.

Tick phases, in order: ramp controller, workload (legacy commits or, after
the flip, native target traffic), dual-write replication, change-stream
delivery, nearline checks, shadow reads, offline verification, self-healing
queue processing, bootstrap backfill, metrics sampling.  Live traffic always
runs before repair and backfill, which only get the tick's spare capacity.

Equal scenarios produce byte-identical event logs; every random draw comes
from a named substream of the scenario seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .domain import Key, Schema, SourceRecord, TargetRecord, VersionStamp
from .dualwrite import DualWriter
from .healing import Healer, SelfHealingQueue
from .metrics import (
    ConsistencyReport,
    ConsistencyTracker,
    EventLog,
    MetricsRegistry,
    SettlementTracker,
    consistency_rate,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    loop_gauges,
    time_to_converge,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    window_ttcs,
)
from .oracle import OracleReport, oracle_verify
from .ramp import RampController
from .rng import named_stream
from .scenario import Scenario, serialize
from .stores import ChangeStream, Clock, LegacyStore, Snapshot, StoreUnavailable, TargetStore
from .verifiers import BootstrapJob, NearlineVerifier, OfflineVerifier, RateLimiter, ShadowReader
from .workload import OP_DELETE, OP_READ, WorkloadGenerator


@dataclass
class RunReport:
    """Serializable summary of one run; the oracle cross-checks its claims."""

    name: str
    seed: int
    duration: int
    initial_records: int
    samples: list[ConsistencyReport] = field(default_factory=list)
    bootstrap: dict | None = None
    switch: dict | None = None
    counters: dict = field(default_factory=dict)
    attempts_total: int = 0
    attempts_ratio: float | None = None
    dead_letters: list = field(default_factory=list)
    final_overall: float = 1.0
    final_settled: float = 1.0
    final_counts: dict = field(default_factory=dict)
    rejected_writes: int = 0
    log_digest: str = ""
    oracle: dict | None = None
    expect_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        oracle_ok = self.oracle is None or self.oracle.get("ok", False)
        return oracle_ok and not self.expect_failures

    def as_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}

    def headline(self) -> str:
        last = self.samples[-1] if self.samples else None
        lines = ["convergence headline:"]
        if last is not None:
            lines.append(f"  overall consistency:  {last.overall_rate:.6f}")
            lines.append(f"  settled consistency:  {last.settled_rate:.6f}")
            lines.append(f"  in the loop (queue):  {last.queue_length}")
            lines.append(f"  max in-loop data age: {last.max_in_loop_age}")
        lines.append(f"  validate+fix attempts: {self.attempts_total}")
        if self.attempts_ratio is not None:
            lines.append(f"  attempts / N:          {self.attempts_ratio:.4f}")
        if self.switch:
            lines.append(
                f"  switch: {self.switch['outcome']}"
                f" window={self.switch['unavailability_window']}"
                f" lost={self.switch['lost_updates']}"
                f" residual={self.switch['post_switch_discrepancies']}"
            )
        return "\n".join(lines)


@dataclass
class SimResult:
    """Run artifacts kept in memory for tests and the CLI."""

    report: RunReport
    log: EventLog
    schema: Schema
    legacy: LegacyStore
    target: TargetStore
    queue: SelfHealingQueue
    registry: MetricsRegistry
    settlement: SettlementTracker
    limiter: RateLimiter
    live_ops: int  # live ops dispatched
    live_ops_digest: str  # sha256 over the (tick, kind, key) of each live op
    oracle_report: OracleReport | None = None


class _SimState:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.clock = Clock(0)
        self.log = EventLog()
        self.registry = MetricsRegistry()
        self.schema = scenario.build_schema()
        self.legacy = LegacyStore(self.clock)
        self.target = TargetStore(
            self.clock, scenario.fault, named_stream(seed, "target_ops")
        )
        self.target.event_log = self.log
        self.queue = SelfHealingQueue(self.registry, self.log)
        self.healer = Healer(
            self.schema, self.legacy, self.target, self.queue,
            self.registry, self.log, self.clock, scenario.retry,
        )
        self.dualwriter = DualWriter(
            self.schema, self.legacy, self.target, self.queue, self.clock,
            enabled=scenario.toggles.enable_dualwrite,
        )
        self.nearline = NearlineVerifier(
            self.schema, self.legacy, self.target, self.queue,
            self.log, scenario.settle_delay(),
        )
        self.stream = ChangeStream(
            scenario.fault, named_stream(seed, "stream"),
            self.nearline.on_delivery if scenario.toggles.enable_nearline else None,
        )
        self.shadow = ShadowReader(
            self.schema, self.legacy, self.target, self.queue, self.log,
            scenario.toggles.shadow_alarm_interval,
        )
        self.offline = OfflineVerifier(self.schema, self.queue, self.log)
        self.settlement = SettlementTracker(self.schema.affected_targets)
        self.ctracker = ConsistencyTracker(self.schema, self.legacy.read, self.target.peek)
        self.limiter = RateLimiter(scenario.bootstrap.limiter_capacity)
        self.workload = WorkloadGenerator(
            scenario.workload, self.schema, named_stream(seed, "workload")
        )
        self.ramp: RampController | None = None
        if scenario.ramp.enabled:
            self.ramp = RampController(scenario.ramp, self.log)
        self.bootstrap_job: BootstrapJob | None = None
        self.live_ops = 0
        self.live_ops_hash = hashlib.sha256()
        self.samples: list[ConsistencyReport] = []
        self.flip_rates: tuple[float, float] | None = None

        def _on_accept(record: TargetRecord, now: int) -> None:
            self.settlement.on_accepted_put(record, now)
            self.ctracker.mark_target(record.key)

        self.target.on_accept.append(_on_accept)

    # -- phases --------------------------------------------------------

    def seed_phase(self) -> None:
        for op in self.workload.seed_initial():
            self._commit(op.key, op.value, attach=False)

    def _commit(self, key: Key, value, attach: bool) -> None:
        event = self.legacy.commit(key, value)
        entry = {"cseq": event.seq, "ver": event.new_version, "op": event.op}
        if event.op == "write":
            entry["val"] = self.legacy.records[key].value
        self.log.append(self.clock.now, "commit", key, **entry)
        self.settlement.on_commit(key, event.new_version)
        self.ctracker.mark_source(key, event.new_version.commit_time)
        if attach:
            self.dualwriter.on_commit(event)
            self.stream.feed(event, self.clock.now)

    def take_snapshot(self, now: int) -> Snapshot:
        """A legacy snapshot as of `now`, logged."""
        snap = self.legacy.take_snapshot(now)
        self.log.append(
            now, "snapshot", taken=snap.taken_at, lut=snap.last_update_time, n=len(snap)
        )
        return snap

    def workload_phase(self, now: int) -> list:
        scenario = self.scenario
        flipped = self.ramp is not None and self.ramp.flipped
        frozen_writes = self.ramp is not None and self.ramp.writes_frozen
        bulk_frozen = self.ramp is not None and self.ramp.bulk_frozen
        read_current = self._post_flip_read if flipped else self.legacy.read
        ops = self.workload.generate_step(now, read_current, bulk_frozen=bulk_frozen)
        reads: list = []
        for op in ops:
            self.live_ops += 1
            self.live_ops_hash.update(f"{now}\t{op.kind}\t{op.key}\n".encode())
            if op.kind == OP_READ:
                if flipped:
                    self._native_read(op.key)
                else:
                    rec = self.legacy.read(op.key)
                    if rec is not None:
                        reads.append((op.key, rec))
                continue
            if flipped:
                self._native_write(op)
                continue
            if frozen_writes:
                self.ramp.note_rejected_write()
                self.log.append(now, "reject_write", op.key)
                continue
            self._commit(op.key, None if op.kind == OP_DELETE else op.value, attach=True)
        return reads

    def _post_flip_read(self, key: Key):
        # The generator wants current values for updates; post flip the new
        # store is the truth, so serve the mapped view without fault draws.
        for rule in self.schema.rules_for_source(key.etype):
            for tkey in rule.target_keys(key.id):
                rec = self.target.peek(tkey)
                if rec is not None and not rec.tombstone:
                    return SourceRecord(key, rec.value, VersionStamp(0, self.clock.now), False)
        return None

    def _native_write(self, op) -> None:
        tomb = op.kind == OP_DELETE
        value = {} if tomb else op.value
        for rule in self.schema.rules_for_source(op.key.etype):
            for tkey in rule.target_keys(op.key.id):
                try:
                    self.target.put_native(TargetRecord(tkey, value, {}, tomb))
                except StoreUnavailable:
                    pass  # ordinary availability, client-visible, no repair loop

    def _native_read(self, key: Key) -> None:
        for rule in self.schema.rules_for_source(key.etype):
            for tkey in rule.target_keys(key.id):
                try:
                    self.target.get(tkey)
                except StoreUnavailable:
                    pass

    # -- the ramp controller's view of the run ---------------------------

    def fresh_report(self) -> ConsistencyReport:
        return self.sample_report(self.clock.now, record=False)

    def dead_letter_count(self) -> int:
        return len(self.queue.dead_letters())

    def drained(self) -> bool:
        return (
            len(self.queue) == 0
            and self.dualwriter.pending_count() == 0
            and self.stream.pending_count() == 0
            and self.nearline.pending_count() == 0
        )

    def unsettled_count(self) -> int:
        return self.settlement.unsettled_count()

    def flip_measurements(self, now: int) -> tuple[int, int]:
        """At the flip: unsettled source updates and the residual exact diff."""
        lost = self.settlement.unsettled_count()
        overall, settled, _expected, discrepancies = self.ctracker.rates(
            now, self._staleness_bound(now)
        )
        self.flip_rates = (overall, settled)
        return lost, discrepancies

    def _staleness_bound(self, now: int) -> int:
        override = self.scenario.metrics.staleness_bound_override
        if override is not None:
            return override
        window = self.scenario.metrics.ttc_window
        observed = self.settlement.settled_latency_max(now - window, now)
        return max(2 * observed, self.scenario.metrics.staleness_floor)

    def phase_label(self, now: int) -> str:
        if self.ramp is not None and self.ramp.flipped:
            return "post"
        if self.ramp is not None and self.scenario.ramp.enabled and now >= self.scenario.ramp.time:
            return "ramp"
        job = self.bootstrap_job
        if self.scenario.bootstrap.enabled:
            if job is None or not job.done:
                return "bootstrap"
            finished = job.report.finished_at
            if finished is not None and now <= finished + 30:
                return "settling"
        return "steady"

    def sample_report(self, now: int, record: bool = True) -> ConsistencyReport:
        bound = self._staleness_bound(now)
        if self.ramp is not None and self.ramp.flipped and self.flip_rates is not None:
            overall, settled = self.flip_rates
            expected = bad = 0
        else:
            overall, settled, expected, bad = self.ctracker.rates(now, bound)
        qlen, age = loop_gauges(self.queue, now)
        report = ConsistencyReport(
            at=now,
            phase=self.phase_label(now),
            overall_rate=overall,
            settled_rate=settled,
            queue_length=qlen,
            max_in_loop_age=age,
            staleness_bound=bound,
            expected_keys=expected,
            inconsistent_keys=bad,
        )
        if record:
            # window_ttc is filled after the run, when every settlement in
            # the window is known; recorded samples stay definition-exact.
            self.samples.append(report)
            self.log.append(
                now, "sample",
                overall=round(overall, 9), settled=round(settled, 9),
                qlen=qlen, age=age, bound=bound, phase=report.phase,
            )
        else:
            # Causal view for clearance checks: any unsettled update in the
            # window legitimately shows up as an undefined TTC and blocks.
            report.window_ttc = self.settlement.window_ttc(
                now - self.scenario.metrics.ttc_window, now
            )
        return report


def run_scenario(
    scenario: Scenario, seed: int | None = None, out_dir: str | Path | None = None
) -> SimResult:
    """Execute one scenario end to end and assemble its report."""
    use_seed = scenario.seed if seed is None else seed
    sim = _SimState(scenario, use_seed)
    scn = scenario

    sim.seed_phase()

    for now in range(scn.duration + 1):
        sim.clock.now = now
        sim.limiter.begin_tick(now)
        if sim.ramp is not None and not sim.ramp.finished:
            sim.ramp.step(now, sim)
        flipped = sim.ramp.flipped if sim.ramp else False

        ops_before = sim.target.op_count
        reads = sim.workload_phase(now)

        if not flipped:
            sim.target.writer_class = "dual"
            sim.dualwriter.run_due(now)
            sim.stream.deliver_due(now)
            sim.target.writer_class = "live"
            sim.nearline.run_due(now)
            if scn.toggles.enable_shadow:
                for skey, rec in reads:
                    sim.shadow.on_read(skey, rec, now)
        sim.limiter.note_live(sim.target.op_count - ops_before)

        if (
            not flipped
            and scn.offline.enabled
            and now > 0
            and now % scn.offline.interval == 0
        ):
            snap = sim.take_snapshot(now)
            sim.offline.run(snap, sim.target.records, scn.offline.cutoff, now)

        if (
            scn.bug is not None
            and scn.bug.requeue_at is not None
            and now == scn.bug.requeue_at
        ):
            sim.queue.requeue_dead_letters(now)

        if not flipped:
            ops_before = sim.target.op_count
            sim.target.writer_class = "repair"
            sim.healer.process(now)
            sim.target.writer_class = "live"
            sim.limiter.note_backfill(sim.target.op_count - ops_before)

        if scn.bootstrap.enabled and not flipped:
            if sim.bootstrap_job is None and now >= scn.bootstrap.at:
                sim.bootstrap_job = BootstrapJob(
                    sim.schema, sim.take_snapshot(now), sim.target, sim.queue, sim.registry,
                    sim.log, mode=scn.bootstrap.mode, start_at=now,
                )
            if sim.bootstrap_job is not None and not sim.bootstrap_job.done:
                sim.target.writer_class = "backfill"
                sim.bootstrap_job.step(now, sim.limiter)
                sim.target.writer_class = "live"

        if now % scn.metrics.sample_interval == 0 or now == scn.duration:
            sim.sample_report(now)

    sim.limiter.finish()
    sim.registry.check_algebra()

    # Window TTC per sample, with full end-of-run settlement knowledge.
    ttcs = window_ttcs(
        sim.settlement.updates_as_pairs(),
        [(sample.at - scn.metrics.ttc_window, sample.at) for sample in sim.samples],
    )
    for sample, ttc in zip(sim.samples, ttcs):
        sample.window_ttc = ttc

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    report = _assemble_report(sim, out_dir)
    if scn.toggles.run_oracle:
        oracle_report = oracle_verify(sim.log, scn, report.as_dict())
        report.oracle = oracle_report.as_dict()
        sim_oracle = oracle_report
    else:
        sim_oracle = None
    report.expect_failures = _check_expectations(scn, report)

    result = SimResult(
        report=report,
        log=sim.log,
        schema=sim.schema,
        legacy=sim.legacy,
        target=sim.target,
        queue=sim.queue,
        registry=sim.registry,
        settlement=sim.settlement,
        limiter=sim.limiter,
        live_ops=sim.live_ops,
        live_ops_digest=sim.live_ops_hash.hexdigest(),
        oracle_report=sim_oracle,
    )
    if out_dir is not None:
        _write_artifacts(result, scn, out_dir)
    return result


def _assemble_report(sim: _SimState, out_dir: Path | None) -> RunReport:
    """Final rates and counters; the log digest pass also writes
    `eventlog.jsonl` into `out_dir` when one is given."""
    scn = sim.scenario
    flipped = sim.ramp is not None and sim.ramp.flipped
    if flipped and sim.flip_rates is not None:
        final_overall, final_settled = sim.flip_rates
        counts: dict = {}
    else:
        # The tracker stands in for a full scan: the last sample refreshed
        # it at `duration` under this same bound.
        final_overall, final_settled, _expected, _bad = sim.ctracker.rates(
            scn.duration, sim._staleness_bound(scn.duration)
        )
        counts = {cls.value: n for cls, n in sim.ctracker.class_counts().items() if n}
    n_initial = scn.workload.initial_records
    report = RunReport(
        name=scn.name,
        seed=sim.seed,
        duration=scn.duration,
        initial_records=n_initial,
        samples=sim.samples,
        bootstrap=sim.bootstrap_job.report.as_dict() if sim.bootstrap_job else None,
        switch=sim.ramp.report.as_dict() if sim.ramp else None,
        counters=sim.registry.counters_dict(),
        attempts_total=sim.registry.attempts_total,
        attempts_ratio=(
            sim.registry.attempts_total / n_initial if n_initial > 0 else None
        ),
        dead_letters=[
            [list(d.event.target_key), d.last_error] for d in sim.queue.dead_letters()
        ],
        final_overall=final_overall,
        final_settled=final_settled,
        final_counts=counts,
        rejected_writes=sim.ramp.report.rejected_writes if sim.ramp else 0,
        log_digest=sim.log.digest(
            out_dir / "eventlog.jsonl" if out_dir is not None else None
        ),
    )
    return report


def _check_expectations(scn: Scenario, report: RunReport) -> list[str]:
    expect = scn.expect
    failures: list[str] = []
    if expect.outcome is not None:
        got = report.switch["outcome"] if report.switch else "none"
        if got != expect.outcome:
            failures.append(f"outcome {got!r} != expected {expect.outcome!r}")
    if expect.max_attempts_ratio is not None and report.attempts_ratio is not None:
        if report.attempts_ratio > expect.max_attempts_ratio:
            failures.append(
                f"attempts ratio {report.attempts_ratio:.4f} > {expect.max_attempts_ratio}"
            )
    if expect.min_attempts_ratio is not None and report.attempts_ratio is not None:
        if report.attempts_ratio < expect.min_attempts_ratio:
            failures.append(
                f"attempts ratio {report.attempts_ratio:.4f} < {expect.min_attempts_ratio}"
            )
    if expect.final_settled_rate is not None:
        if report.final_settled < expect.final_settled_rate:
            failures.append(
                f"final settled rate {report.final_settled:.6f} < {expect.final_settled_rate}"
            )
    if expect.zero_dead_letters and report.dead_letters:
        failures.append(f"{len(report.dead_letters)} dead letters, expected none")
    if expect.lost_updates_positive:
        lost = report.switch["lost_updates"] if report.switch else 0
        if lost <= 0:
            failures.append("expected lost updates > 0")
    return failures


def _write_artifacts(result: SimResult, scenario: Scenario, out_dir: Path) -> None:
    """Every artifact but `eventlog.jsonl`, which the digest pass wrote."""
    (out_dir / "scenario.json").write_text(serialize(scenario), encoding="utf-8")
    (out_dir / "report.json").write_text(
        json.dumps(result.report.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if result.oracle_report is not None:
        (out_dir / "oracle.txt").write_text(
            result.oracle_report.to_text() + "\n", encoding="utf-8"
        )
