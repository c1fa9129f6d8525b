"""Deterministic scenario runner on a virtual clock.

Tick phases, in order: ramp controller, workload (legacy commits and
reads), dual-write replication, change-stream delivery, nearline checks,
shadow reads, offline verification, self-healing queue processing,
bootstrap backfill, metrics sampling.  Live traffic always runs before
repair and backfill, which only get the tick's spare capacity.

The flip ends the run.  The flip tick runs the ramp controller and a
metrics sample and nothing else, so the run's end state is its state at the
flip, where the switch report measures it.

Equal scenarios produce byte-identical event logs; every random draw comes
from a named substream of the scenario seed.  The run itself is one
process.  Once the last tick has logged its rows, the log is frozen, and a
helper process forked from the run exports and hashes it (`EventLog.digest`)
while the run folds the repair counters, assembles the report and runs the
oracle.  The run then waits for the helper and fills the report's
`log_digest` before it checks expectations and writes the other artifacts.
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, NoReturn

from .domain import Key, Schema, TargetRecord
from .dualwrite import DualWriter
from .healing import Healer, RepairCounts, SelfHealingQueue, repair_counts
from .metrics import (
    ConsistencyReport,
    ConsistencyTracker,
    EventLog,
    SettlementTracker,
    consistency_rate,  # noqa: F401  re-exported: bench/tracing.py wraps it here
    loop_gauges,
    time_to_converge,
    window_ttcs,
)
from .oracle import OracleReport, oracle_verify
from .ramp import RampController
from .rng import named_stream
from .scenario import Scenario, serialize
from .stores import ChangeStream, Clock, LegacyStore, TargetStore
from .verifiers import BootstrapJob, NearlineVerifier, OfflineVerifier, RateLimiter, ShadowReader
from .workload import OP_DELETE, OP_READ, WorkloadGenerator


@dataclass
class RunReport:
    """Serializable summary of one run; the oracle cross-checks its claims."""

    name: str
    seed: int
    duration: int  # the run's last tick: the flip's, or the scenario's `duration`
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


@dataclass
class SimResult:
    """Run artifacts kept in memory for tests and the CLI."""

    report: RunReport
    log: EventLog
    schema: Schema
    legacy: LegacyStore
    target: TargetStore
    queue: SelfHealingQueue
    registry: RepairCounts  # folded from `log` after the run
    settlement: SettlementTracker
    limiter: RateLimiter
    oracle_report: OracleReport | None = None


class _SimState:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.clock = Clock(0)
        self.log = EventLog()
        self.schema = scenario.build_schema()
        self.legacy = LegacyStore(self.clock)
        self.target = TargetStore(
            self.clock, scenario.fault, named_stream(seed, "target_ops")
        )
        self.target.event_log = self.log
        self.queue = SelfHealingQueue(self.log)
        self.healer = Healer(
            self.schema, self.legacy, self.target, self.queue,
            self.log, self.clock, scenario.retry,
        )
        self.ctracker = ConsistencyTracker(self.schema, self.legacy.read, self.target.peek)
        self.dualwriter = DualWriter(
            self.schema, self.legacy, self.target, self.queue, self.ctracker.note_written,
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
        self.settlement = SettlementTracker(self.schema.affected_targets)
        self.offline = OfflineVerifier(self.ctracker, self.queue, self.log)
        self.limiter = RateLimiter(scenario.bootstrap.limiter_capacity)
        self.workload = WorkloadGenerator(
            scenario.workload, self.schema, named_stream(seed, "workload")
        )
        self.ramp: RampController | None = None
        if scenario.ramp.enabled:
            self.ramp = RampController(scenario.ramp, self.log)
        self.bootstrap_job: BootstrapJob | None = None
        self.samples: list[ConsistencyReport] = []

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
        self.log.append(
            self.clock.now, "commit", key, cseq=event.seq, op=event.op, ver=event.new_version,
            val=self.legacy.records[key].value if event.op == "write" else None,
        )
        self.settlement.on_commit(key, event.new_version)
        self.ctracker.mark_source(key, event.new_version.commit_time)
        if attach:
            self.dualwriter.on_commit(event)
            self.stream.feed(event, self.clock.now)

    def log_snapshot(self, now: int) -> None:
        """Log the `snapshot` row of the legacy store as of `now`: its size
        and newest commit time, read from the live store."""
        legacy = self.legacy
        self.log.append(
            now, "snapshot", taken=now, lut=legacy.last_update_time, n=len(legacy.records)
        )

    def workload_phase(self, now: int) -> list:
        frozen_writes = self.ramp is not None and self.ramp.writes_frozen
        bulk_frozen = self.ramp is not None and self.ramp.bulk_frozen
        ops = self.workload.generate_step(now, self.legacy.read, bulk_frozen=bulk_frozen)
        reads: list = []
        for op in ops:
            if op.kind == OP_READ:
                rec = self.legacy.read(op.key)
                if rec is not None:
                    reads.append((op.key, rec))
                continue
            if frozen_writes:
                self.ramp.note_rejected_write()
                self.log.append(now, "reject_write", op.key)
                continue
            self._commit(op.key, None if op.kind == OP_DELETE else op.value, attach=True)
        return reads

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
        *_, discrepancies = self.ctracker.rates(now, self._staleness_bound(now))
        return lost, discrepancies

    def _staleness_bound(self, now: int) -> int:
        override = self.scenario.metrics.staleness_bound_override
        if override is not None:
            return override
        window = self.scenario.metrics.ttc_window
        observed = self.settlement.settled_latency_max(now - window, now)
        return max(2 * observed, self.scenario.metrics.staleness_floor)

    def phase_label(self, now: int) -> str:
        if self.ramp is not None and now >= self.scenario.ramp.time:
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
            report.window_ttc = time_to_converge(
                self.settlement.updates_as_pairs(), now - self.scenario.metrics.ttc_window, now
            )
        return report


# The cyclic collector's thresholds while a run executes.  A run builds
# hundreds of thousands of long-lived containers (records, rows, queue
# entries), and at CPython's default (700, 10, 10) the collector runs after
# every 700 net container allocations.  On a 2-vCPU machine the 100k default
# run collected 3,825 times and spent 20 % of its wall time in GC pauses at
# the default, and 52 times and 6 % at this setting.
RUN_GC_THRESHOLD = (50_000, 20, 100)


def run_scenario(
    scenario: Scenario, seed: int | None = None, out_dir: str | Path | None = None
) -> SimResult:
    """Execute one scenario end to end and assemble its report.

    The collector runs at `RUN_GC_THRESHOLD` for the run and gets its old
    thresholds back afterwards, also when the run raises.  The event-log
    export helper (`_exported`) has ended by the time this returns or raises.
    """
    saved = gc.get_threshold()
    gc.set_threshold(*RUN_GC_THRESHOLD)
    try:
        return _run(scenario, seed, out_dir)
    finally:
        gc.set_threshold(*saved)


def _run(scenario: Scenario, seed: int | None, out_dir: str | Path | None) -> SimResult:
    use_seed = scenario.seed if seed is None else seed
    sim = _SimState(scenario, use_seed)
    scn = scenario

    sim.seed_phase()

    for now in range(scn.duration + 1):
        sim.clock.now = now
        sim.limiter.begin_tick(now)
        if sim.ramp is not None and sim.ramp.step(now, sim):
            # The flip ends the run: its tick is sampled and nothing else
            # runs.
            sim.sample_report(now)
            break

        ops_before = sim.target.op_count
        reads = sim.workload_phase(now)
        sim.dualwriter.run_due(now)
        sim.stream.deliver_due(now)
        sim.nearline.run_due(now)
        if scn.toggles.enable_shadow:
            for skey, rec in reads:
                sim.shadow.on_read(skey, rec, now)
        sim.limiter.note_live(sim.target.op_count - ops_before)

        if scn.offline.enabled and now > 0 and now % scn.offline.interval == 0:
            sim.log_snapshot(now)
            sim.offline.run(now, scn.offline.cutoff)

        if (
            scn.bug is not None
            and scn.bug.requeue_at is not None
            and now == scn.bug.requeue_at
        ):
            sim.queue.requeue_dead_letters(now)

        ops_before = sim.target.op_count
        sim.healer.process(now)
        sim.limiter.note_backfill(sim.target.op_count - ops_before)

        if scn.bootstrap.enabled:
            if sim.bootstrap_job is None and now >= scn.bootstrap.at:
                sim.log_snapshot(now)
                sim.bootstrap_job = BootstrapJob(
                    sim.schema, sim.legacy.take_snapshot(now), sim.target, sim.queue,
                    sim.log, sim.ctracker.note_written, mode=scn.bootstrap.mode,
                )
            if sim.bootstrap_job is not None and not sim.bootstrap_job.done:
                sim.bootstrap_job.step(now, sim.limiter)

        if now % scn.metrics.sample_interval == 0 or now == scn.duration:
            sim.sample_report(now)

    sim.limiter.finish()

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    eventlog_path = out_dir / "eventlog.jsonl" if out_dir is not None else None
    with _exported(sim.log, eventlog_path) as log_digest:
        # Window TTC per sample, with full end-of-run settlement knowledge.
        ttcs = window_ttcs(
            sim.settlement.updates_as_pairs(),
            [(sample.at - scn.metrics.ttc_window, sample.at) for sample in sim.samples],
        )
        for sample, ttc in zip(sim.samples, ttcs):
            sample.window_ttc = ttc

        counts = repair_counts(sim.log.rows)
        report = _assemble_report(sim, counts)
        if scn.toggles.run_oracle:
            # The oracle never reads `log_digest`, which is still empty here.
            oracle_report = oracle_verify(sim.log, scn, report.as_dict())
            report.oracle = oracle_report.as_dict()
            sim_oracle = oracle_report
        else:
            sim_oracle = None
        report.log_digest = log_digest()
    report.expect_failures = _check_expectations(scn, report)

    result = SimResult(
        report=report,
        log=sim.log,
        schema=sim.schema,
        legacy=sim.legacy,
        target=sim.target,
        queue=sim.queue,
        registry=counts,
        settlement=sim.settlement,
        limiter=sim.limiter,
        oracle_report=sim_oracle,
    )
    if out_dir is not None:
        _write_artifacts(result, scn, out_dir)
    return result


# The most of a failed export's message the helper sends back; far below a
# pipe's buffer, so its one write never blocks.
_HELPER_MESSAGE_MAX = 2048


@contextmanager
def _exported(log: EventLog, path: Path | None) -> Iterator[Callable[[], str]]:
    """Export the frozen `log` in a helper process while the block runs.

    Yields `join`, which waits for the helper and returns
    `log.digest(path)`: the same digest and bytes as an inline call.  An
    export that fails in the helper raises RuntimeError in `join`, naming
    the helper's exit status.  The helper is reaped when the block exits,
    also when it raises, so none outlives the run.  The helper is forked,
    so it reads the rows the run built, shared copy-on-write, with nothing
    pickled; threads would not overlap, since JSON encoding holds the GIL.
    The helper runs only the export, which takes no lock that another
    thread of the caller could hold at the fork.  Where `os.fork` does not
    exist, the digest is computed inline.
    """
    if not hasattr(os, "fork"):
        digest = log.digest(path)
        yield lambda: digest
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _export_and_exit(log, path, read_fd, write_fd)
    os.close(write_fd)
    exit_code: int | None = None

    def reap() -> int:
        nonlocal exit_code
        if exit_code is None:
            os.close(read_fd)
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return exit_code

    def join() -> str:
        chunks = []
        while chunk := os.read(read_fd, _HELPER_MESSAGE_MAX):
            chunks.append(chunk)
        code = reap()
        text = b"".join(chunks).decode("utf-8", "replace")
        if code != 0:
            raise RuntimeError(f"event-log export helper exited with status {code}: {text}")
        return text

    try:
        yield join
    finally:
        reap()


def _export_and_exit(log: EventLog, path: Path | None, read_fd: int, write_fd: int) -> NoReturn:
    """The helper's whole life: write the digest, or what went wrong, to
    `write_fd` and end with `os._exit`, never returning into the run's
    frames or flushing the stdio buffers it shares with the run.  The
    collector stays off: the helper only reads rows that no longer change."""
    status = 1
    try:
        os.close(read_fd)
        gc.disable()
        try:
            message = log.digest(path).encode("ascii")
            status = 0
        except Exception as exc:
            message = repr(exc).encode("utf-8", "replace")[:_HELPER_MESSAGE_MAX]
        os.write(write_fd, message)
    finally:
        # Also on an interrupt, which reaches the run as status 1.
        os._exit(status)


def _assemble_report(sim: _SimState, counts: RepairCounts) -> RunReport:
    """Final rates, and the repair `counts` folded from the log.

    `log_digest` is left empty: the export helper computes it while the
    oracle runs, and the runner fills it in once the helper ends."""
    scn = sim.scenario
    # The tracker stands in for a full scan: the last sample refreshed it at
    # the run's last tick (the flip or `duration`) under this same bound.
    last = sim.clock.now
    final_overall, final_settled, _expected, _bad = sim.ctracker.rates(
        last, sim._staleness_bound(last)
    )
    final_counts = {cls.value: n for cls, n in sim.ctracker.class_counts().items() if n}
    n_initial = scn.workload.initial_records
    return RunReport(
        name=scn.name,
        seed=sim.seed,
        duration=last,
        initial_records=n_initial,
        samples=sim.samples,
        bootstrap=sim.bootstrap_job.report.as_dict() if sim.bootstrap_job else None,
        switch=sim.ramp.report.as_dict() if sim.ramp else None,
        counters=counts.as_dict(),
        attempts_total=counts.attempts_total,
        attempts_ratio=counts.attempts_total / n_initial if n_initial > 0 else None,
        dead_letters=[
            [list(d.event.target_key), d.last_error] for d in sim.queue.dead_letters()
        ],
        final_overall=final_overall,
        final_settled=final_settled,
        final_counts=final_counts,
        rejected_writes=sim.ramp.report.rejected_writes if sim.ramp else 0,
    )


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
    """Every artifact but `eventlog.jsonl`, which the export helper wrote."""
    (out_dir / "scenario.json").write_text(serialize(scenario), encoding="utf-8")
    (out_dir / "report.json").write_text(
        json.dumps(result.report.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if result.oracle_report is not None:
        (out_dir / "oracle.txt").write_text(
            result.oracle_report.to_text() + "\n", encoding="utf-8"
        )
