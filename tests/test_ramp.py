from __future__ import annotations

import dataclasses

from migsim.metrics import ConsistencyReport, EventLog
from migsim.ramp import RampController, check_clearance
from migsim.scenario import RampSpec, load_file
from migsim.simulation import fold_log, run_scenario

from conftest import scenario_path


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

    def __init__(self, drained_at=None, cleared=True, lost=0, disc=0):
        self.drained_at = drained_at
        self.cleared = cleared
        self.lost = lost
        self.disc = disc
        self.now = 0

    def fresh_report(self):
        return report() if self.cleared else report(qlen=5)

    def dead_letter_count(self):
        return 0

    def drained(self):
        """Nothing in flight and every update settled, from `drained_at` on."""
        return self.drained_at is not None and self.now >= self.drained_at

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


def switch(controller: RampController, last: int) -> dict:
    """The switch section folded from the controller's rows; `last` is the
    last tick driven."""
    return fold_log(controller.log.rows, last).switch


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
        section = switch(controller, 50)
        assert section["outcome"] == "switched"
        assert section["unavailability_window"] == 0
        assert section["flip_time"] == 50

    def test_drained_flip_waits_for_drain(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=20)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=57), 80) == [57]
        section = switch(controller, 57)
        assert section["outcome"] == "switched"
        assert section["unavailability_window"] == 7
        assert section["flip_time"] == 57

    def test_drain_timeout_aborts_without_flip(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=20)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=None), 200) == []
        section = switch(controller, 70)
        assert section["outcome"] == "aborted"
        assert section["unavailability_window"] == 20
        assert section["blocked_reasons"] == ["drain exceeded freeze_timeout"]
        assert section["flip_time"] is None
        assert controller.finished
        assert not any(row.kind == "ramp" and row.act == "flip" for row in controller.log.rows)
        assert not controller.writes_frozen  # writes resumed on the old side

    def test_blocked_clearance_aborts_before_freeze(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, clearance_lead=5)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=0, cleared=False), 60) == []
        section = switch(controller, 45)
        assert section["outcome"] == "aborted"
        assert section["unavailability_window"] == 0
        assert section["blocked_reasons"] == ["queue_length 5 > 0"]

    def test_forced_mode_flips_instantly_and_counts_losses(self):
        spec = RampSpec(time=50, mode="forced", bulk_freeze_lead=10)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=None, lost=7, disc=3), 60) == [50]
        section = switch(controller, 50)
        assert section["outcome"] == "switched"
        assert section["unavailability_window"] == 0
        assert section["lost_updates"] == 7
        assert section["post_switch_discrepancies"] == 3

    def test_freeze_still_on_at_the_last_tick_counts_every_frozen_tick(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10, freeze_timeout=100)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=None), 60) == []
        assert controller.writes_frozen
        section = switch(controller, 60)
        assert section["outcome"] == "pending"
        # Ticks 50 through 60.
        assert section["unavailability_window"] == 11
        assert section["flip_time"] is None

    def test_before_the_ramp_time_nothing_is_frozen(self):
        spec = RampSpec(time=50, bulk_freeze_lead=10)
        controller = RampController(spec, EventLog())
        assert drive(controller, _Status(drained_at=0), 45) == []
        assert switch(controller, 45) == {
            "outcome": "pending", "unavailability_window": 0, "lost_updates": 0,
            "post_switch_discrepancies": 0, "flip_time": None, "rejected_writes": 0,
            "blocked_reasons": [],
        }


class TestSwitchSectionOfARun:
    def test_run_that_ends_with_writes_frozen_reports_its_frozen_ticks(self):
        # The write freeze at tick 190 meets an outage that outlasts the run
        # (duration 200), so nothing drains, and the freeze timeout (30) is
        # never reached: the run ends frozen and rejects writes to its end.
        scenario = load_file(scenario_path("small"))
        scenario = dataclasses.replace(
            scenario,
            ramp=dataclasses.replace(scenario.ramp, time=190, bulk_freeze_lead=50),
            workload=dataclasses.replace(scenario.workload, write_rate=20.0),
            fault=dataclasses.replace(scenario.fault, outage_windows=((186, 260),)),
        )
        result = run_scenario(scenario, seed=1)
        rejected = [row.t for row in result.log.rows if row.kind == "reject_write"]
        assert (min(rejected), max(rejected), result.report.duration) == (190, 200, 200)
        switch = result.report.switch
        assert switch["outcome"] == "pending"
        assert switch["rejected_writes"] == len(rejected) == 206
        # last tick + 1 - write_freeze tick: ticks 190 through 200.
        assert switch["unavailability_window"] == 11
        checks = {c.name: c.ok for c in result.oracle_report.checks}
        assert checks["no downtime outside the write freeze"]
