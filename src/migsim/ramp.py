"""Switch-over controller: clearance, bulk freeze, write freeze, drain, flip.

The flip trades a bounded write-unavailability window for consistency: the
controller only moves the source of truth once nothing is left in flight,
or aborts without flipping when the drain outlasts its timeout.  A forced
mode flips with no drain and logs what that costs in lost updates, the
other side of the same trade.  The controller states each step in a `ramp`
row, and `simulation.fold_log` reads the `switch` section of `report.json`
back from those rows and the `reject_write` rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .metrics import ConsistencyReport, EventLog

if TYPE_CHECKING:
    from .scenario import RampSpec


def check_clearance(
    spec: RampSpec, report: ConsistencyReport, dead_letter_count: int
) -> list[str]:
    """Evaluate every criterion against a fresh report; list each violation.
    An empty list means cleared.

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
    return reasons


class RampController:
    """Drives the freeze-drain-flip sequence on the virtual clock.

    The controller is the only writer of the source-of-truth flag.  It gets
    stepped at the top of every tick with the run state, and exposes two
    flags the rest of the system reads: bulk_frozen and writes_frozen.  The
    step that flips returns True, and the runner ends the run in that tick.
    """

    def __init__(self, spec: RampSpec, log: EventLog):
        self.spec = spec
        self.log = log
        self.bulk_frozen = False
        self.writes_frozen = False
        # Set by the flip or abort; the `ramp` rows say which.
        self.finished = False
        self._clearance_done = False

    def step(self, now: int, sim) -> bool:
        """Advance the state machine; `sim` is the live run state.  True in
        the step that flips.

        The protocol `sim` meets: fresh_report() -> ConsistencyReport,
        dead_letter_count() -> int, drained() -> bool (and every update
        settled), flip_measurements(now) -> (lost, discrepancies).
        """
        spec = self.spec
        if self.finished:
            return False
        if not self.bulk_frozen and now >= spec.time - spec.bulk_freeze_lead:
            self.bulk_frozen = True
            self.log.append(now, "ramp", act="bulk_freeze")
        if (
            spec.mode == "drained"
            and not self._clearance_done
            and now >= spec.time - spec.clearance_lead
        ):
            self._clearance_done = True
            reasons = check_clearance(spec, sim.fresh_report(), sim.dead_letter_count())
            self.log.append(
                now, "ramp", act="clearance", cleared=not reasons, reasons=tuple(reasons)
            )
            if reasons:
                self.finished = True
                self.log.append(now, "ramp", act="abort", why="clearance_blocked")
                return False
        if now < spec.time:
            return False

        if spec.mode == "forced":
            self._flip(now, sim)
            return True

        if not self.writes_frozen:
            self.writes_frozen = True
            self.log.append(now, "ramp", act="write_freeze")
        if sim.drained():
            self._flip(now, sim)
            return True
        if now - spec.time >= spec.freeze_timeout:
            self.writes_frozen = False
            self.finished = True
            self.log.append(now, "ramp", act="abort", why="freeze_timeout")
        return False

    def _flip(self, now: int, sim) -> None:
        self.finished = True
        self.writes_frozen = False
        lost, discrepancies = sim.flip_measurements(now)
        self.log.append(
            now, "ramp", act="flip", mode=self.spec.mode, window=now - self.spec.time,
            lost=lost, discrepancies=discrepancies,
        )
