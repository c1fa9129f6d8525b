"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

One test per criterion; run with `pytest tests/test_acceptance.py -v -s` to
get one pass/fail line each.  The default scenario (100k records, p=0.99,
bootstrap, 1,000-tick steady state, drained switch-over) is executed once
per fixed seed and shared across criteria.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time

import pytest

from migsim.domain import Key, TargetRecord, VersionStamp
from migsim.healing import FixStatus
from migsim.metrics import time_to_converge
from migsim.oracle import LogReplay, OracleReport, settlement_times, window_ttc_bruteforce
from migsim.scenario import load_file
from migsim.simulation import RunReport, run_scenario

from conftest import build_pipeline, scenario_path

DEFAULT_SEEDS = (101, 102, 103, 104, 105)
RESURRECTION_SEEDS = (31, 32, 33, 34, 35)


def _announce(tag: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n{tag}: PASS{suffix}")


@dataclasses.dataclass
class DefaultRun:
    """What the criteria read from one default run; the run's stores, log
    and trackers are dropped as soon as these are taken."""

    report: RunReport
    oracle_report: OracleReport
    elapsed: float
    puts: int  # `put` entries in the event log


@pytest.fixture(scope="session")
def default_runs():
    scenario = load_file(scenario_path("default"))
    runs = {}
    for seed in DEFAULT_SEEDS:
        started = time.monotonic()
        result = run_scenario(scenario, seed=seed)
        elapsed = time.monotonic() - started
        runs[seed] = DefaultRun(
            result.report,
            result.oracle_report,
            elapsed,
            sum(1 for row in result.log.rows if row.kind == "put"),
        )
        del result
    return runs


def test_c01_attempt_bound_reproduction(default_runs):
    """N=100,000 at p=0.99: attempts/N within [1.000, 1.02] per seed, <60s."""
    ratios = []
    for seed, result in default_runs.items():
        ratio = result.report.attempts_ratio
        assert ratio is not None
        assert 1.000 <= ratio <= 1.02, f"seed {seed}: ratio {ratio:.5f}"
        assert result.elapsed < 60.0, f"seed {seed}: {result.elapsed:.1f}s"
        ratios.append(ratio)
    _announce(
        "ACCEPT-01 attempt-bound",
        f"ratios {min(ratios):.4f}..{max(ratios):.4f} over {len(ratios)} seeds",
    )


def test_c02_steady_state_consistency(default_runs):
    """Every steady sample: overall >= 0.99999 and settled == 1.0 exactly."""
    worst = 1.0
    samples_checked = 0
    for seed, result in default_runs.items():
        steady = [s for s in result.report.samples if s.phase == "steady"]
        assert steady, f"seed {seed}: no steady samples"
        for sample in steady:
            samples_checked += 1
            assert sample.overall_rate >= 0.99999, (
                f"seed {seed} t={sample.at}: overall {sample.overall_rate:.7f}"
            )
            assert sample.settled_rate == 1.0, (
                f"seed {seed} t={sample.at}: settled {sample.settled_rate:.7f}"
            )
            worst = min(worst, sample.overall_rate)
    _announce(
        "ACCEPT-02 steady-state consistency",
        f"{samples_checked} samples, worst overall {worst:.7f}",
    )


def test_c03_drained_switch_and_cap_witness(default_runs):
    """Drained: switched, zero residual diff, bounded window.  Forced on the
    same scenario: lost updates > 0.  Both sides of the trade must show."""
    for seed, result in default_runs.items():
        switch = result.report.switch
        assert switch["outcome"] == "switched", f"seed {seed}"
        assert switch["post_switch_discrepancies"] == 0, f"seed {seed}"
        assert switch["unavailability_window"] <= 60, f"seed {seed}"
        oracle_checks = {c["name"]: c["ok"] for c in result.report.oracle["checks"]}
        assert oracle_checks["post-switch diff matches report"], f"seed {seed}"
        assert oracle_checks["lost updates match report"], f"seed {seed}"

    drained_doc = json.loads(scenario_path("ramp_pair_drained").read_text())
    forced_doc = json.loads(scenario_path("ramp_pair_forced").read_text())
    for doc in (drained_doc, forced_doc):
        doc.pop("name"), doc.pop("expect"), doc["ramp"].pop("mode")
    assert drained_doc == forced_doc  # same scenario, only the mode differs

    drained = run_scenario(load_file(scenario_path("ramp_pair_drained"))).report
    forced = run_scenario(load_file(scenario_path("ramp_pair_forced"))).report
    assert drained.switch["outcome"] == "switched"
    assert drained.switch["post_switch_discrepancies"] == 0
    assert drained.switch["lost_updates"] == 0
    assert drained.switch["unavailability_window"] > 0
    assert drained.switch["unavailability_window"] <= 60
    assert forced.switch["outcome"] == "switched"
    assert forced.switch["lost_updates"] > 0
    _announce(
        "ACCEPT-03 drained switch + CAP witness",
        f"drained window {drained.switch['unavailability_window']}, "
        f"forced lost {forced.switch['lost_updates']}",
    )


def test_c04_anti_resurrection():
    """Deletes racing a stale bootstrap: final oracle diff shows zero rebirth."""
    scenario = load_file(scenario_path("resurrection"))
    for seed in RESURRECTION_SEEDS:
        result = run_scenario(scenario, seed=seed)
        counts = result.oracle_report.final_counts
        assert counts.get("resurrection", 0) == 0, f"seed {seed}: {counts}"
        assert result.oracle_report.ok, f"seed {seed}"
        assert not result.report.expect_failures, f"seed {seed}"
    _announce("ACCEPT-04 anti-resurrection", f"{len(RESURRECTION_SEEDS)} seeds clean")


def test_c05_idempotency_property():
    """1,000 generated (store-state, key) cases: fixing twice equals once."""
    rng = random.Random(20_26)
    cases = 0
    while cases < 1000:
        p = build_pipeline(seed=cases)
        gid = str(rng.randint(1, 6))
        has_parents = rng.random() < 0.5
        if has_parents:
            p.commit("project", gid, {"n": "p"})
            p.commit_and_replicate("project", gid, {"n": "p2"})
        source_state = rng.random()
        etype, tkey = ("project", Key("project_v2", gid))
        if has_parents and rng.random() < 0.5:
            etype, tkey = ("stage", Key("stage_v2", gid))
            source_value = {"n": "s", "parent_project": gid}
        else:
            source_value = {"n": "x"}
        if source_state < 0.75:
            p.commit(etype, gid, source_value)
            if source_state < 0.2:
                p.commit(etype, gid, delete=True)
        target_roll = rng.random()
        if target_roll < 0.3:
            pass  # absent target
        elif target_roll < 0.6:
            p.target.put_if_fresher(
                TargetRecord(tkey, {"n": "stale"}, {Key(etype, gid): VersionStamp(0, 0)}, False)
            )
        elif target_roll < 0.8:
            p.target.put_if_fresher(
                TargetRecord(tkey, {"n": "other"}, {Key(etype, gid): VersionStamp(1, 0)}, False)
            )
        else:
            p.target.put_if_fresher(
                TargetRecord(tkey, {}, {Key(etype, gid): VersionStamp(2, 0)}, True)
            )
        first = p.healer.validate_and_fix(tkey)
        state_once = dict(p.target.records)
        second = p.healer.validate_and_fix(tkey)
        assert p.target.records == state_once, f"case {cases}: state diverged"
        if first.status in (FixStatus.FIXED, FixStatus.ALREADY_CONSISTENT):
            assert second.status is FixStatus.ALREADY_CONSISTENT, f"case {cases}"
        else:
            assert second.status is FixStatus.FAILED, f"case {cases}"
        cases += 1
    _announce("ACCEPT-05 idempotency", "1000 cases, zero failures")


def test_c06_dependency_ordering(default_runs):
    """No live child target record ever exists without its parent."""
    total_puts = 0
    for seed, result in default_runs.items():
        assert result.oracle_report.ordering_violations == [], f"seed {seed}"
        total_puts += result.puts
    _announce("ACCEPT-06 dependency ordering", f"0 violations across {total_puts} puts")


def test_c07_offline_catch_all():
    """Streams dark and dual writes off: offline sweeps alone converge the
    target, with settled consistency at 1.0 within three snapshot cycles."""
    scenario = load_file(scenario_path("catchall"))
    result = run_scenario(scenario)
    report = result.report
    cycle = scenario.offline.interval
    bound = scenario.metrics.staleness_bound_override
    # Non-vacuous samples start once seed data is older than the bound.
    eligible = [s for s in report.samples if s.at >= bound]
    assert eligible
    first_clean = min(s.at for s in eligible if s.settled_rate == 1.0)
    assert first_clean <= 3 * cycle, f"first clean sample at t={first_clean}"
    assert all(s.settled_rate == 1.0 for s in eligible)
    assert report.final_overall == 1.0
    assert report.oracle["ok"]
    _announce(
        "ACCEPT-07 offline catch-all",
        f"settled 1.0 from t={first_clean} (3 cycles = {3 * cycle})",
    )


def test_c08_process_convergence_demo():
    """An injected mapping bug strands exactly its key set in dead letters
    within the attempt budget; fix plus requeue drains everything."""
    scenario = load_file(scenario_path("mapping_bug"))
    result = run_scenario(scenario)
    bug = scenario.bug
    affected = set()
    for entry in result.log.entries:
        if entry["k"] != "commit" or entry["key"][0] != bug.etype:
            continue
        if not (bug.active_from <= entry["t"] < bug.active_until):
            continue
        if int(entry["key"][1]) % bug.id_mod == bug.id_rem:
            affected.add(("candidate_v2", entry["key"][1]))
    assert affected, "scenario generated no bug-affected commits"

    dead_lettered = [tuple(e["key"]) for e in result.log.entries if e["k"] == "dead_letter"]
    assert set(dead_lettered) == affected
    assert len(dead_lettered) == len(affected)  # each key exactly once
    retries_per_key: dict = {}
    for entry in result.log.entries:
        if entry["k"] == "retry" and tuple(entry["key"]) in affected:
            retries_per_key[tuple(entry["key"])] = entry["attempts"]
    assert max(retries_per_key.values()) < scenario.retry.max_attempts

    report = result.report
    assert report.dead_letters == []  # drained after the requeue
    final = report.samples[-1]
    assert final.queue_length == 0
    assert final.settled_rate == 1.0
    dipped = min(s.settled_rate for s in report.samples)
    assert dipped < 1.0  # the bug was visible while it lasted
    _announce(
        "ACCEPT-08 process convergence",
        f"{len(affected)} keys dead-lettered, settled dipped to {dipped:.3f}, recovered",
    )


def test_c09_metric_oracle_equivalence():
    """Online settlement, TTC, and queue gauges match log recomputation."""
    result = run_scenario(load_file(scenario_path("small")))
    assert len(result.log) <= 10_000
    replay = LogReplay(result.log)
    oracle_settles = settlement_times(replay, result.schema)
    for row in replay.commits:
        key, stamp = row.key, row.ver
        assert oracle_settles[(key.etype, key.id, stamp.counter)] == (
            result.settlement.settlement_time(key, stamp)
        ), f"settlement mismatch for {key} v{stamp.counter}"

    pairs = [
        (row.ver.commit_time, oracle_settles[(*row.key, row.ver.counter)])
        for row in replay.commits
    ]
    for sample in result.report.samples:
        brute = window_ttc_bruteforce(pairs, sample.at - 300, sample.at)
        assert brute == sample.window_ttc, f"TTC mismatch at t={sample.at}"

    checks = {c["name"]: c["ok"] for c in result.report.oracle["checks"]}
    assert checks["queue length matches log replay"]
    assert checks["window TTC matches report"]

    # Hand-built case: updates (10 -> 12) and (11 -> 16) give a window TTC
    # of 5, through both the streaming and the brute-force path.
    assert time_to_converge([(10, 12), (11, 16)], 0, 20) == 5
    assert window_ttc_bruteforce([(10, 12), (11, 16)], 0, 20) == 5
    _announce(
        "ACCEPT-09 metric oracle equivalence",
        f"{len(replay.commits)} settlements, {len(result.report.samples)} TTC samples",
    )


def test_c10_backfill_priority(default_runs):
    """Backfill at the 15,900/tick cap only ever consumes spare capacity and
    never delays live traffic by a single tick."""
    base = load_file(scenario_path("default"))
    trimmed = dataclasses.replace(
        base,
        name="backfill_pair",
        duration=150,
        workload=dataclasses.replace(
            base.workload, initial_records=30_000, bursts=(), night_rate_factor=1.0
        ),
        offline=dataclasses.replace(base.offline, enabled=False),
        ramp=dataclasses.replace(base.ramp, enabled=False),
        expect=dataclasses.replace(
            base.expect, outcome=None, max_attempts_ratio=None, min_attempts_ratio=None
        ),
    )
    without = dataclasses.replace(
        trimmed, bootstrap=dataclasses.replace(trimmed.bootstrap, enabled=False),
        expect=dataclasses.replace(trimmed.expect, final_settled_rate=None),
    )
    with_boot = run_scenario(trimmed)
    no_boot = run_scenario(without)
    # Every live op dispatched at its request tick in both runs: the same
    # (tick, kind, key) sequence, compared by its digest.
    assert with_boot.live_ops == no_boot.live_ops
    assert with_boot.live_ops_digest == no_boot.live_ops_digest
    capacity = trimmed.bootstrap.limiter_capacity
    for tick, live, backfill in with_boot.limiter.usage_trace:
        assert backfill <= capacity - live, f"tick {tick}: backfill {backfill} over spare"

    # The stated arithmetic at full scale: 100k records through the
    # 15,900/tick cap need ceil(100000/15900) = 7 ticks.
    for seed, result in default_runs.items():
        assert result.report.bootstrap["duration_ticks"] == 7, f"seed {seed}"
    _announce(
        "ACCEPT-10 backfill priority",
        f"{with_boot.live_ops} live ops tick-exact; default backfill = 7 ticks",
    )
