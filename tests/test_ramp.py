from __future__ import annotations

from migsim.metrics import ConsistencyReport, EventLog
from migsim.ramp import RampController, check_clearance
from migsim.scenario import RampSpec


def report(
    settled=1.0, qlen=0, ttc=0, bound=10, at=100, overall=1.0
) -> ConsistencyReport:
    return ConsistencyReport(
        at=at,
        phase="steady",
        overall_rate=overall,
        settled_rate=settled,
        queue_length=qlen,
        max_in_loop_age=0,
        staleness_bound=bound,
        window_ttc=ttc,
    )


class TestClearance:
    def test_perfect_report_cleared(self):
        assert check_clearance(RampSpec(), report(), 0) == []

    def test_queue_length_blocks(self):
        reasons = check_clearance(RampSpec(max_queue_length=0), report(qlen=3), 0)
        assert any("queue_length" in r for r in reasons)

    def test_dead_letters_block(self):
        reasons = check_clearance(RampSpec(), report(), 2)
        assert any("dead_letters" in r for r in reasons)

    def test_unsettled_window_blocks(self):
        reasons = check_clearance(RampSpec(), report(ttc=None), 0)
        assert any("window_ttc" in r for r in reasons)

    def test_settled_rate_blocks(self):
        reasons = check_clearance(RampSpec(required_settled_rate=1.0), report(settled=0.999), 0)
        assert any("settled_rate" in r for r in reasons)

    def test_explicit_ttc_limit(self):
        reasons = check_clearance(RampSpec(max_window_ttc=5), report(ttc=9), 0)
        assert reasons == ["window_ttc 9 > 5"]

    def test_every_violation_listed(self):
        reasons = check_clearance(RampSpec(), report(settled=0.9, qlen=4, ttc=None), 3)
        assert len(reasons) == 4


class _Status:
    """Scriptable stand-in for the run state the controller polls."""

    def __init__(self, drained_at=None, cleared=True, unsettled=0, lost=0, disc=0):
        self.drained_at = drained_at
        self.cleared = cleared
        self.unsettled = unsettled
        self.lost = lost
        self.disc = disc
        self.now = 0

    def fresh_report(self):
        return report() if self.cleared else report(qlen=5)

    def dead_letter_count(self):
        return 0

    def drained(self):
        return self.drained_at is not None and self.now >= self.drained_at

    def unsettled_count(self):
        return self.unsettled if not self.drained() else 0

    def flip_measurements(self, now):
        return (self.lost, self.disc)


def drive(controller: RampController, status: _Status, until: int) -> list[int]:
    """Step until the controller finishes; the ticks whose step returned True."""
    flips = []
    for now in range(until + 1):
        status.now = now
        if controller.step(now, status):
            flips.append(now)
        if controller.finished:
            break
    return flips


class TestController:
    def test_bulk_freeze_engages_at_lead(self):
        spec = RampSpec(time=100, bulk_freeze_lead=30)
        controller = RampController(spec, EventLog())
        status = _Status(drained_at=100)
        for now in range(0, 70):
            status.now = now
            controller.step(now, status)
            assert not controller.bulk_frozen  # before ramp_time - lead
        status.now = 70
        controller.step(70, status)
        assert controller.bulk_frozen
        assert not controller.writes_frozen

    def test_drained_flip_with_zero_window(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=20)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=0), 60) == [50]
        assert controller.report.outcome == "switched"
        assert controller.report.unavailability_window == 0
        assert controller.report.flip_time == 50

    def test_drained_flip_waits_for_drain(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=20)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=57), 80) == [57]
        assert controller.report.outcome == "switched"
        assert controller.report.unavailability_window == 7

    def test_drain_timeout_aborts_without_flip(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=20)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=None), 200) == []
        assert controller.report.outcome == "aborted"
        assert not controller.flipped
        assert not controller.writes_frozen  # writes resumed on the old side

    def test_blocked_clearance_aborts_before_freeze(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, clearance_lead=5)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=0, cleared=False), 60) == []
        assert controller.report.outcome == "aborted"
        assert controller.report.unavailability_window == 0
        assert controller.report.blocked_reasons

    def test_forced_mode_flips_instantly_and_counts_losses(self):
        spec = RampSpec(time=50, mode="forced", bulk_freeze_lead=10)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=None, lost=7), 60) == [50]
        assert controller.report.outcome == "switched"
        assert controller.report.unavailability_window == 0
        assert controller.report.lost_updates == 7
