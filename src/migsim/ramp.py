"""Switch-over controller: clearance, bulk freeze, write freeze, drain, flip.

The flip trades a bounded write-unavailability window for consistency: the
controller only moves the source of truth once nothing is left in flight,
or aborts without flipping when the drain outlasts its timeout.  A forced
mode flips with no drain and counts what that costs in lost updates, which
is the other side of the same trade.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from .metrics import ConsistencyReport, EventLog

if TYPE_CHECKING:
    from .scenario import RampSpec


@dataclass
class Clearance:
    cleared: bool
    reasons: list[str] = field(default_factory=list)


def check_clearance(
    spec: RampSpec, report: ConsistencyReport, dead_letter_count: int
) -> Clearance:
    """Evaluate every criterion against a fresh report; list each violation.

    Any dead letter blocks: it is an update the repair loop gave up on.
    `spec.max_window_ttc` None means the report's own staleness bound.
    """
    reasons: list[str] = []
    if report.settled_rate < spec.required_settled_rate:
        reasons.append(
            f"settled_rate {report.settled_rate:.6f} < {spec.required_settled_rate}"
        )
    if report.queue_length > spec.max_queue_length:
        reasons.append(
            f"queue_length {report.queue_length} > {spec.max_queue_length}"
        )
    ttc_limit = spec.max_window_ttc
    if ttc_limit is None:
        ttc_limit = report.staleness_bound
    if report.window_ttc is None:
        reasons.append("window_ttc undefined: unsettled updates in window")
    elif report.window_ttc > ttc_limit:
        reasons.append(f"window_ttc {report.window_ttc} > {ttc_limit}")
    if dead_letter_count > 0:
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
    stepped at the top of every tick with the run state, and exposes three
    flags the rest of the system reads: bulk_frozen, writes_frozen, flipped.
    """

    def __init__(self, spec: RampSpec, log: EventLog):
        self.spec = spec
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

    def step(self, now: int, sim) -> None:
        """Advance the state machine; `sim` is the live run state.

        The protocol `sim` meets: fresh_report() -> ConsistencyReport,
        dead_letter_count() -> int, drained() -> bool, unsettled_count() ->
        int, flip_measurements(now) -> (lost, discrepancies).
        """
        spec = self.spec
        if self.finished:
            return
        if not self.bulk_frozen and now >= spec.time - spec.bulk_freeze_lead:
            self.bulk_frozen = True
            self.log.append(now, "ramp", act="bulk_freeze")
        if (
            spec.mode == "drained"
            and not self._clearance_done
            and now >= spec.time - spec.clearance_lead
        ):
            self._clearance_done = True
            clearance = check_clearance(spec, sim.fresh_report(), sim.dead_letter_count())
            self.log.append(
                now, "ramp", act="clearance",
                cleared=clearance.cleared, reasons=tuple(clearance.reasons),
            )
            if not clearance.cleared:
                self.aborted = True
                self.report.outcome = "aborted"
                self.report.blocked_reasons = clearance.reasons
                self.log.append(now, "ramp", act="abort", why="clearance_blocked")
                return
        if now < spec.time:
            return

        if spec.mode == "forced":
            self._flip(now, sim)
            return

        if not self.writes_frozen:
            self.writes_frozen = True
            self.log.append(now, "ramp", act="write_freeze")
        if sim.drained() and sim.unsettled_count() == 0:
            self._flip(now, sim)
        elif now - spec.time >= spec.freeze_timeout:
            self.writes_frozen = False
            self.aborted = True
            self.report.outcome = "aborted"
            self.report.unavailability_window = now - spec.time
            self.report.blocked_reasons = ["drain exceeded freeze_timeout"]
            self.log.append(now, "ramp", act="abort", why="freeze_timeout")

    def _flip(self, now: int, sim) -> None:
        self.flipped = True
        self.writes_frozen = False
        self.report.outcome = "switched"
        self.report.flip_time = now
        self.report.unavailability_window = now - self.spec.time
        lost, discrepancies = sim.flip_measurements(now)
        self.report.lost_updates = lost
        self.report.post_switch_discrepancies = discrepancies
        self.log.append(
            now, "ramp", act="flip", mode=self.spec.mode,
            window=self.report.unavailability_window, lost=lost,
            discrepancies=discrepancies,
        )
