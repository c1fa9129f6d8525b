"""Switch-over controller: clearance, bulk freeze, write freeze, drain, flip.

The flip trades a bounded write-unavailability window for consistency: the
controller only moves the source of truth once nothing is left in flight,
or aborts without flipping when the drain outlasts its timeout.  A forced
mode flips with no drain and counts what that costs in lost updates, which
is the other side of the same trade.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

from .metrics import ConsistencyReport, EventLog

TICKS_PER_DAY = 1440


@dataclass(frozen=True)
class RampPlan:
    ramp_time: int
    mode: str = "drained"  # "drained" | "forced"
    bulk_freeze_lead: int = 3 * TICKS_PER_DAY
    freeze_timeout: int = 60
    clearance_lead: int = 10

    def __post_init__(self) -> None:
        if self.mode not in ("drained", "forced"):
            raise ValueError(f"unknown ramp mode {self.mode!r}")
        if self.bulk_freeze_lead < 0 or self.freeze_timeout < 0:
            raise ValueError("freeze parameters must be >= 0")


@dataclass(frozen=True)
class RampCriteria:
    required_settled_rate: float = 1.0
    max_queue_length: int = 0
    max_window_ttc: int | None = None  # None: use the current staleness bound
    require_no_dead_letters: bool = True


@dataclass
class Clearance:
    cleared: bool
    reasons: list[str] = field(default_factory=list)


def check_clearance(
    criteria: RampCriteria, report: ConsistencyReport, dead_letter_count: int
) -> Clearance:
    """Evaluate every criterion against a fresh report; list each violation."""
    reasons: list[str] = []
    if report.settled_rate < criteria.required_settled_rate:
        reasons.append(
            f"settled_rate {report.settled_rate:.6f} < {criteria.required_settled_rate}"
        )
    if report.queue_length > criteria.max_queue_length:
        reasons.append(
            f"queue_length {report.queue_length} > {criteria.max_queue_length}"
        )
    ttc_limit = criteria.max_window_ttc
    if ttc_limit is None:
        ttc_limit = report.staleness_bound
    if report.window_ttc is None:
        reasons.append("window_ttc undefined: unsettled updates in window")
    elif report.window_ttc > ttc_limit:
        reasons.append(f"window_ttc {report.window_ttc} > {ttc_limit}")
    if criteria.require_no_dead_letters and dead_letter_count > 0:
        reasons.append(f"dead_letters {dead_letter_count} > 0")
    return Clearance(not reasons, reasons)


@dataclass
class SwitchReport:
    outcome: str = "pending"  # "switched" | "aborted" | "pending"
    unavailability_window: int = 0
    lost_updates: int = 0
    post_switch_discrepancies: int = 0
    flip_time: int | None = None
    rejected_writes: int = 0
    blocked_reasons: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


class RampController:
    """Drives the freeze-drain-flip sequence on the virtual clock.

    The controller is the only writer of the source-of-truth flag.  It gets
    stepped at the top of every tick with a status callback bundle supplied
    by the harness, and exposes three flags the rest of the system reads:
    bulk_frozen, writes_frozen, flipped.
    """

    def __init__(self, plan: RampPlan, criteria: RampCriteria, log: EventLog):
        self.plan = plan
        self.criteria = criteria
        self.log = log
        self.report = SwitchReport()
        self.bulk_frozen = False
        self.writes_frozen = False
        self.flipped = False
        self.aborted = False
        self._clearance_done = False

    @property
    def finished(self) -> bool:
        return self.flipped or self.aborted

    def note_rejected_write(self) -> None:
        self.report.rejected_writes += 1

    def step(self, now: int, status) -> None:
        """Advance the state machine; `status` supplies live run telemetry.

        Required callables on status: fresh_report() -> ConsistencyReport,
        dead_letter_count() -> int, drained() -> bool,
        unsettled_count() -> int, on_flip(now) -> (lost, discrepancies).
        """
        plan = self.plan
        if self.finished:
            return
        if not self.bulk_frozen and now >= plan.ramp_time - plan.bulk_freeze_lead:
            self.bulk_frozen = True
            self.log.append(now, "ramp", act="bulk_freeze")
        if (
            plan.mode == "drained"
            and not self._clearance_done
            and now >= plan.ramp_time - plan.clearance_lead
        ):
            self._clearance_done = True
            clearance = check_clearance(
                self.criteria, status.fresh_report(), status.dead_letter_count()
            )
            self.log.append(
                now, "ramp", act="clearance",
                cleared=clearance.cleared, reasons=clearance.reasons,
            )
            if not clearance.cleared:
                self.aborted = True
                self.report.outcome = "aborted"
                self.report.blocked_reasons = clearance.reasons
                self.log.append(now, "ramp", act="abort", why="clearance_blocked")
                return
        if now < plan.ramp_time:
            return

        if plan.mode == "forced":
            self._flip(now, status)
            return

        if not self.writes_frozen:
            self.writes_frozen = True
            self.log.append(now, "ramp", act="write_freeze")
        if status.drained() and status.unsettled_count() == 0:
            self._flip(now, status)
        elif now - plan.ramp_time >= plan.freeze_timeout:
            self.writes_frozen = False
            self.aborted = True
            self.report.outcome = "aborted"
            self.report.unavailability_window = now - plan.ramp_time
            self.report.blocked_reasons = ["drain exceeded freeze_timeout"]
            self.log.append(now, "ramp", act="abort", why="freeze_timeout")

    def _flip(self, now: int, status) -> None:
        self.flipped = True
        self.writes_frozen = False
        self.report.outcome = "switched"
        self.report.flip_time = now
        self.report.unavailability_window = now - self.plan.ramp_time
        lost, discrepancies = status.on_flip(now)
        self.report.lost_updates = lost
        self.report.post_switch_discrepancies = discrepancies
        self.log.append(
            now, "ramp", act="flip", mode=self.plan.mode,
            window=self.report.unavailability_window, lost=lost,
            discrepancies=discrepancies,
        )
