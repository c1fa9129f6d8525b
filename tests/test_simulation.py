from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os

import pytest

from migsim import metrics, simulation
from migsim.domain import DiscrepancyClass, Key
from migsim.healing import Latency, RepairCounts, SelfHealingQueue, Trigger
from migsim.metrics import EventLog, consistency_rate
from migsim.oracle import oracle_verify
from migsim.scenario import Scenario, load_file
from migsim.simulation import _SimState, fold_log, run_scenario

from conftest import SCENARIO_DIR, build_pipeline, scenario_path

BENCH_SCENARIO_DIR = SCENARIO_DIR.parent / "bench" / "scenarios"

# The default scenario is exercised (five seeds deep) by the acceptance
# suite; everything else shipped runs here.
FAST_SCENARIOS = sorted(
    p.stem for p in SCENARIO_DIR.glob("*.json") if p.stem != "default"
)
# Every shipped input with the ramp enabled, the default scenario aside.
RAMP_INPUTS = [
    path
    for path in [*map(scenario_path, FAST_SCENARIOS), *sorted(BENCH_SCENARIO_DIR.glob("*.json"))]
    if load_file(path).ramp.enabled
]


def load(name: str) -> Scenario:
    return load_file(scenario_path(name))


@pytest.fixture(scope="module")
def small_result():
    return run_scenario(load("small"))


class TestDeterminism:
    def test_same_scenario_same_log_digest(self, small_result):
        again = run_scenario(load("small"))
        assert again.report.log_digest == small_result.report.log_digest
        assert again.report.as_dict() == small_result.report.as_dict()

    def test_seed_override_changes_the_run(self, small_result):
        other = run_scenario(load("small"), seed=99)
        assert other.report.log_digest != small_result.report.log_digest

    def test_components_draw_from_independent_streams(self):
        # Disabling a consumer of randomness must not perturb the workload.
        base = load("small")
        no_shadow = dataclasses.replace(
            base, toggles=dataclasses.replace(base.toggles, enable_shadow=False)
        )

        def commits(result):
            # Global log sequence shifts when other entries disappear; the
            # committed operations themselves must be identical.
            return [
                (e["t"], e["key"], e["cseq"], e["op"], e.get("val"))
                for e in result.log.entries
                if e["k"] == "commit"
            ]

        assert commits(run_scenario(base)) == commits(run_scenario(no_shadow))


def _empty(duration: int = 10) -> Scenario:
    """`small.json` without records, traffic or ramp: a run of `duration`
    ticks that does next to nothing."""
    base = load("small")
    return dataclasses.replace(
        base,
        name="empty",
        duration=duration,
        workload=dataclasses.replace(
            base.workload, initial_records=0, write_rate=0.0, read_rate=0.0
        ),
        ramp=dataclasses.replace(base.ramp, enabled=False),
    )


class TestEmptyScenario:
    def test_no_records_no_workload_rates_one(self):
        result = run_scenario(_empty())
        report = result.report
        assert report.attempts_total == 0
        assert report.attempts_ratio is None
        assert report.final_overall == 1.0 and report.final_settled == 1.0
        assert all(s.overall_rate == 1.0 for s in report.samples)
        assert report.oracle["ok"]


class TestGcThreshold:
    """A run sets `RUN_GC_THRESHOLD` and gives the collector its old
    thresholds back."""

    @pytest.fixture
    def caller_threshold(self):
        saved = gc.get_threshold()
        mine = (1234, 5, 6)
        gc.set_threshold(*mine)
        yield mine
        gc.set_threshold(*saved)

    def test_run_uses_its_threshold_and_restores_the_callers(
        self, caller_threshold, monkeypatch
    ):
        seen = []
        seed_phase = _SimState.seed_phase

        def recording_seed_phase(state):
            seen.append(gc.get_threshold())
            seed_phase(state)

        monkeypatch.setattr(_SimState, "seed_phase", recording_seed_phase)
        run_scenario(_empty())
        assert seen == [simulation.RUN_GC_THRESHOLD]
        assert gc.get_threshold() == caller_threshold

    def test_a_run_that_raises_restores_the_callers(self, caller_threshold, monkeypatch):
        def failing_offline_run(self, now, cutoff):
            raise RuntimeError("offline sweep failed")

        monkeypatch.setattr(simulation.OfflineVerifier, "run", failing_offline_run)
        scenario = _empty(duration=200)
        assert scenario.offline.enabled and scenario.offline.interval <= 200
        with pytest.raises(RuntimeError, match="offline sweep failed"):
            run_scenario(scenario)
        assert gc.get_threshold() == caller_threshold


class TestOracleAgreement:
    @pytest.mark.parametrize("name", FAST_SCENARIOS)
    def test_shipped_scenarios_pass_oracle_and_expectations(self, name):
        result = run_scenario(load(name))
        report = result.report
        failed = [c for c in report.oracle["checks"] if not c["ok"]]
        assert not failed, failed
        assert not report.expect_failures, report.expect_failures


class TestFoldLog:
    def test_one_call_fills_every_section(self):
        p, c, x = Key("project_v2", "1"), Key("candidate_v2", "1"), Key("project", "9")
        missing = f"missing_parent: {p}"
        log = EventLog()
        for t, kind, key, data in [
            (0, "put", p, {"cls": "backfill", "out": "unavailable"}),
            (0, "enqueue", p, {"trig": "bootstrap", "sut": 0}),
            (1, "coalesce", p, {"trig": "bootstrap", "sut": 1}),
            (3, "put", p, {"cls": "repair", "out": "stale_rejected"}),
            (3, "dequeue", p, {"res": "consistent"}),
            (4, "enqueue", c, {"trig": "nearline", "sut": 4}),
            (4, "retry", c, {"attempts": 1, "due": 6, "reason": "fix_unavailable"}),
            (6, "dead_letter", c, {"reason": missing}),
            (7, "requeue", c, {}),
            (7, "enqueue", c, {"trig": "nearline", "sut": 4}),
            (8, "dead_letter", c, {"reason": "unavailable"}),
            (9, "ramp", None, {"act": "write_freeze"}),
            (10, "reject_write", x, {}),
            (11, "ramp", None, {"act": "flip", "mode": "drained", "window": 2, "lost": 3,
                                "discrepancies": 1}),
        ]:
            log.append(t, kind, key, **data)
        fold = fold_log(log.rows, 11)
        assert fold.counts == RepairCounts(
            enqueued=3, coalesced=1, dequeued=1, dead_lettered=2, requeued=1,
            validation_success=1, validation_failure=4, fix_success=0, fix_failure=2,
            retries=1, attempts_total=5,
            in_queue_latency=Latency(1, 3, 3), pipeline_latency=Latency(1, 2, 2),
        )
        assert fold.bootstrap == dict(puts=1, put_failures=1, events_enqueued=2)
        assert fold.switch == dict(
            outcome="switched", lost_updates=3, post_switch_discrepancies=1, flip_time=11,
            rejected_writes=1, blocked_reasons=[], unavailability_window=2,
        )
        assert fold.dead_letters == [[["candidate_v2", "1"], "unavailable"]]

    def test_a_key_dead_lettered_again_keeps_its_place(self):
        log = EventLog()
        queue = SelfHealingQueue(log)
        a, b = Key("project_v2", "1"), Key("project_v2", "2")
        for now, (key, reason) in enumerate([(a, "x"), (b, "y"), (a, "z")]):
            queue.enqueue(key, Trigger.NEARLINE, now, now)
            (event,) = queue.pop_due(now, 1)
            queue.dead_letter(event, reason, now)
        queued = [[list(d.event.target_key), d.last_error] for d in queue.dead_letters()]
        assert queued == [[["project_v2", "1"], "z"], [["project_v2", "2"], "y"]]
        assert fold_log(log.rows, 2).dead_letters == queued

    @pytest.mark.parametrize(
        "requeue_at, dead_letter_rows, stuck",
        [(None, 40, 40), (200, 80, 40), ("shipped", 40, 0)],
    )
    def test_dead_letters_are_the_queues_in_its_order(self, requeue_at, dead_letter_rows, stuck):
        scenario = load("mapping_bug")
        if requeue_at != "shipped":
            bug = dataclasses.replace(scenario.bug, requeue_at=requeue_at)
            scenario = dataclasses.replace(scenario, bug=bug)
        result = run_scenario(scenario, seed=1)
        rows = result.log.rows
        assert sum(row.kind == "dead_letter" for row in rows) == dead_letter_rows
        queued = [[list(d.event.target_key), d.last_error] for d in result.queue.dead_letters()]
        assert len(queued) == stuck
        assert fold_log(rows, result.report.duration).dead_letters == queued
        assert result.report.dead_letters == queued


class TestRampIntegration:
    def test_cap_witness_pair(self):
        drained = run_scenario(load("ramp_pair_drained")).report
        forced = run_scenario(load("ramp_pair_forced")).report
        assert drained.switch["outcome"] == "switched"
        assert drained.switch["lost_updates"] == 0
        assert drained.switch["post_switch_discrepancies"] == 0
        assert drained.switch["unavailability_window"] > 0
        assert forced.switch["outcome"] == "switched"
        assert forced.switch["unavailability_window"] == 0
        assert forced.switch["lost_updates"] > 0

    def test_outage_spanning_freeze_timeout_aborts(self):
        base = load("ramp_pair_drained")
        stuck = dataclasses.replace(
            base,
            name="stuck",
            duration=1150,
            fault=dataclasses.replace(base.fault, outage_windows=((992, 1090),)),
            expect=dataclasses.replace(base.expect, outcome="aborted"),
        )
        result = run_scenario(stuck)
        report = result.report
        assert report.switch["outcome"] == "aborted"
        assert report.switch["unavailability_window"] >= base.ramp.freeze_timeout
        # Writes resumed on the legacy side after the abort.
        late_commits = [
            e for e in result.log.entries
            if e["k"] == "commit" and e["t"] > 1000 + base.ramp.freeze_timeout + 5
        ]
        assert late_commits

    @pytest.mark.parametrize("path", RAMP_INPUTS, ids=lambda p: p.stem)
    def test_post_switch_closure(self, path):
        # The flip ends the run: its row is followed only by that tick's
        # sample, and that sample is the last one.
        result = run_scenario(load_file(path), seed=1)
        flip_t = result.report.switch["flip_time"]
        rows = result.log.rows
        flip = next(i for i, row in enumerate(rows) if row.kind == "ramp" and row.act == "flip")
        assert [(row.kind, row.t) for row in rows[flip + 1:]] == [("sample", flip_t)]
        assert result.report.samples[-1].at == flip_t

    def test_bulk_freeze_zeroes_bursts_in_window(self):
        from migsim.scenario import BurstSpec

        base = load("small")
        bursty = dataclasses.replace(
            base,
            name="bursty",
            workload=dataclasses.replace(
                base.workload,
                bursts=(BurstSpec(60, 300, "candidate"), BurstSpec(120, 300, "candidate")),
            ),
        )
        result = run_scenario(bursty)
        commits_by_tick = {}
        for e in result.log.entries:
            if e["k"] == "commit":
                commits_by_tick[e["t"]] = commits_by_tick.get(e["t"], 0) + 1
        # ramp at 150, lead 50: the burst at 120 falls inside the freeze window.
        assert commits_by_tick.get(60, 0) >= 300
        assert commits_by_tick.get(120, 0) < 300

    def test_freeze_window_ttc_not_worse_than_bursty_window(self):
        # Desk-size comparison; the default-scale run is covered by the
        # acceptance suite.
        from migsim.metrics import time_to_converge
        from migsim.scenario import BurstSpec

        base = load("small")
        scn = dataclasses.replace(
            base,
            name="bursty_ttc",
            workload=dataclasses.replace(
                base.workload, bursts=(BurstSpec(60, 500, "candidate"),)
            ),
        )
        res = run_scenario(scn)
        pairs = res.settlement.updates_as_pairs()
        bursty_ttc = time_to_converge(pairs, 55, 95)
        freeze_ttc = time_to_converge(pairs, 100, 140)
        assert bursty_ttc is not None and freeze_ttc is not None
        assert freeze_ttc <= bursty_ttc


class TestTrackerAgainstFullScan:
    @pytest.mark.parametrize(
        "path",
        [scenario_path(name) for name in FAST_SCENARIOS] + sorted(BENCH_SCENARIO_DIR.glob("*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_recorded_samples_equal_full_scan(self, monkeypatch, path):
        # Seed 2: the golden digests already pin seed 1's sample rows.  The
        # tracker skips the groups its writers note as consistent, and the
        # injected mapping bug depends on the clock, so group verdicts cached
        # while it was active go stale once it switches off; every recorded
        # sample must still be the full scan's.
        rows = []
        sample_report = _SimState.sample_report

        def checked(self, now, record=True):
            report = sample_report(self, now, record)
            if record:
                overall, settled, counts = consistency_rate(
                    self.schema, self.legacy.records, self.target.records,
                    now, report.staleness_bound,
                )
                expected = sum(counts.values())
                bad = expected - counts[DiscrepancyClass.CONSISTENT]
                rows.append((
                    now,
                    (report.overall_rate, report.settled_rate,
                     report.expected_keys, report.inconsistent_keys),
                    (overall, settled, expected, bad),
                ))
            return report

        monkeypatch.setattr(_SimState, "sample_report", checked)
        result = run_scenario(load_file(path), seed=2)
        assert len(rows) == len(result.report.samples) > 1
        assert [row for row in rows if row[1] != row[2]] == []

    @pytest.mark.parametrize(
        "path",
        [
            scenario_path("ramp_pair_drained"),
            scenario_path("ramp_pair_forced"),
            BENCH_SCENARIO_DIR / "paper_default.json",
        ],
        ids=lambda p: p.stem,
    )
    def test_flip_measurements_equal_full_scan(self, monkeypatch, path):
        flips = []
        flip_measurements = _SimState.flip_measurements

        def checked(self, now):
            lost, discrepancies = flip_measurements(self, now)
            overall, settled, counts = consistency_rate(
                self.schema, self.legacy.records, self.target.records,
                now, self._staleness_bound(now),
            )
            bad = sum(n for cls, n in counts.items() if cls is not DiscrepancyClass.CONSISTENT)
            flips.append((discrepancies, (overall, settled, bad)))
            return lost, discrepancies

        monkeypatch.setattr(_SimState, "flip_measurements", checked)
        result = run_scenario(load_file(path), seed=1)
        assert len(flips) == 1
        # The flip tick's sample carries the rates at the flip.
        last = result.report.samples[-1]
        discrepancies, full = flips[0]
        assert (last.overall_rate, last.settled_rate, discrepancies) == full
        # The oracle takes the end state for the state at the flip: from the
        # flip row on, the run commits nothing.
        rows = result.log.rows
        flip = next(i for i, row in enumerate(rows) if row.kind == "ramp" and row.act == "flip")
        assert not any(row.kind == "commit" for row in rows[flip:])

    @pytest.mark.parametrize(
        "path",
        [scenario_path(name) for name in [*FAST_SCENARIOS, "default"]]
        + sorted(BENCH_SCENARIO_DIR.glob("*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_tracker_counts_equal_full_scan_where_the_report_reads_them(
        self, monkeypatch, path
    ):
        # The report reads the tracker at the run's last tick: the flip on
        # runs with one, `duration` on the others.
        seen = []
        assemble = simulation._assemble_report

        def at_end(sim, counts):
            report = assemble(sim, counts)
            last = sim.clock.now
            overall, settled, counts = consistency_rate(
                sim.schema, sim.legacy.records, sim.target.records,
                last, sim._staleness_bound(last),
            )
            seen.append(
                ((report.final_overall, report.final_settled, sim.ctracker.class_counts()),
                 (overall, settled, counts))
            )
            assert report.final_counts == {c.value: n for c, n in counts.items() if n}
            return report

        monkeypatch.setattr(simulation, "_assemble_report", at_end)
        scenario = load_file(path)
        report = run_scenario(scenario, seed=1).report
        flip_t = report.switch["flip_time"] if report.switch else None
        last_tick = scenario.duration if flip_t is None else flip_t
        assert report.samples[-1].at == report.duration == last_tick
        assert len(seen) == 1
        assert seen[0][0] == seen[0][1]

    @pytest.mark.parametrize(
        "path",
        [scenario_path(name) for name in FAST_SCENARIOS] + sorted(BENCH_SCENARIO_DIR.glob("*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}",
    )
    def test_final_rates_are_the_last_samples(self, path):
        report = run_scenario(load_file(path), seed=1).report
        last = report.samples[-1]
        assert (report.final_overall, report.final_settled) == (last.overall_rate, last.settled_rate)


class TestTriggerEquivalence:
    def test_all_triggers_repair_to_identical_state(self):
        final_states = []
        for trigger in (Trigger.DUALWRITE, Trigger.NEARLINE, Trigger.SHADOWREAD,
                        Trigger.OFFLINE, Trigger.BOOTSTRAP):
            p = build_pipeline()
            p.commit("project", "1", {"n": "same"})
            p.queue.enqueue(Key("project_v2", "1"), trigger, 0, 0)
            p.healer.process(0)
            final_states.append(p.target.peek(Key("project_v2", "1")))
        assert all(state == final_states[0] for state in final_states)


def _holds_list(value) -> bool:
    if type(value) is list:
        return True
    if isinstance(value, tuple):
        return any(map(_holds_list, value))
    if isinstance(value, dict):
        return any(map(_holds_list, value.values()))
    return False


class TestCompactLog:
    def test_run_path_never_decodes_the_whole_log(self, monkeypatch, tmp_path):
        def decode_all(_log):
            raise AssertionError("the run decoded EventLog.entries")

        monkeypatch.setattr(EventLog, "entries", property(decode_all))
        result = run_scenario(load("small"), out_dir=tmp_path / "run")
        assert result.oracle_report is not None and result.oracle_report.ok
        assert (tmp_path / "run" / "eventlog.jsonl").exists()

    def test_the_export_builds_no_entry_dicts(self, monkeypatch, tmp_path):
        def build_entry(_seq, _row):
            raise AssertionError("the export built an entry dict")

        # Patched before the helper forks, so the helper sees it too.
        monkeypatch.setattr(metrics, "_as_entry", build_entry)
        result = run_scenario(load("small"), out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "eventlog.jsonl").read_bytes()
        assert result.report.log_digest == hashlib.sha256(data).hexdigest()
        assert len(data.splitlines()) == len(result.log.rows)

    @pytest.mark.parametrize("name", ["small", "ramp_pair_drained", "reshape"])
    def test_rows_are_tuples_that_hold_no_list(self, name):
        result = run_scenario(load(name))
        assert result.log.rows
        for row in result.log.rows:
            assert isinstance(row, tuple) and type(row) is not tuple
            assert not _holds_list(row), row
        kinds = {row.kind for row in result.log.rows}
        assert {"commit", "put", "sample"} <= kinds

    def test_put_rows_share_the_stored_maps(self, small_result):
        last = {}
        for row in small_result.log.rows:
            if row.kind == "put" and row.out == "accepted":
                last[row.key] = row
        assert last
        for row in last.values():
            stored = small_result.target.records[row.key]
            assert row.prov is stored.provenance and row.val is stored.value
        # Every rule of small.json is an identity: a target that holds its
        # source's current version holds the source's own value map.
        legacy = small_result.legacy.records
        current = 0
        for tkey, stored in small_result.target.records.items():
            (stype,) = small_result.schema.rule_for_target(tkey.etype).source_types
            skey = Key(stype, tkey.id)
            source = legacy.get(skey)
            if source is None or source.tombstone:
                continue
            if stored.provenance.get(skey) == source.version:
                assert stored.value is source.value
                current += 1
        assert current > 100


class TestArtifacts:
    def test_out_dir_contains_run_artifacts(self, tmp_path):
        result = run_scenario(load("small"), out_dir=tmp_path / "run")
        out = tmp_path / "run"
        assert (out / "scenario.json").exists()
        assert (out / "eventlog.jsonl").exists()
        assert (out / "report.json").exists()
        assert (out / "oracle.txt").exists()
        lines = (out / "eventlog.jsonl").read_text().splitlines()
        assert len(lines) == len(result.log)

    def test_parsed_export_equals_run_entries_and_oracle(self, small_result):
        parsed = EventLog.parse_lines(small_result.log.export_lines())
        assert [(type(r), r) for r in parsed.rows] == [
            (type(r), r) for r in small_result.log.rows
        ]
        again = oracle_verify(parsed, load("small"), small_result.report.as_dict())
        assert again.as_dict() == small_result.oracle_report.as_dict()

    def test_eventlog_written_by_digest_pass_matches_digest(self, tmp_path):
        result = run_scenario(load("small"), out_dir=tmp_path / "run")
        data = (tmp_path / "run" / "eventlog.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == result.report.log_digest
        assert data.decode("utf-8").splitlines() == list(result.log.export_lines())
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["log_digest"] == result.report.log_digest


class TestExportHelper:
    """The event log is exported and hashed by a helper process forked after
    the last tick; the run reaps it on every path out."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_digest_and_bytes_equal_an_inline_export(self, tmp_path):
        result = run_scenario(load("small"), out_dir=tmp_path / "run")
        inline = result.log.digest(tmp_path / "inline.jsonl")
        assert result.report.log_digest == inline
        assert (tmp_path / "run" / "eventlog.jsonl").read_bytes() == (
            tmp_path / "inline.jsonl"
        ).read_bytes()

    def test_digest_without_out_dir_equals_an_inline_export(self, small_result):
        assert len(small_result.report.log_digest) == 64
        assert small_result.report.log_digest == small_result.log.digest()

    def test_without_fork_the_digest_is_computed_inline(self, monkeypatch, small_result):
        monkeypatch.delattr(os, "fork")
        result = run_scenario(load("small"))
        assert result.report.log_digest == small_result.report.log_digest

    def test_an_export_that_fails_in_the_helper_raises_in_the_run(self, tmp_path):
        out = tmp_path / "run"
        (out / "eventlog.jsonl").mkdir(parents=True)
        with pytest.raises(RuntimeError, match=r"helper exited with status 1: IsADirectoryError"):
            run_scenario(load("small"), out_dir=out)
        assert not (out / "report.json").exists()

    def test_a_run_that_raises_after_the_fork_reaps_the_helper(self, tmp_path, monkeypatch):
        def failing_oracle(*args, **kwargs):
            raise ValueError("oracle failed")

        monkeypatch.setattr(simulation, "oracle_verify", failing_oracle)
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="oracle failed"):
            run_scenario(load("small"), out_dir=out)
        # The helper was waited for, not killed: its export is whole.
        data = (out / "eventlog.jsonl").read_bytes()
        assert data.endswith(b"\n") and data.count(b"\n") > 1000
