#!/usr/bin/env python3
"""Write the benchmark's scenario files into `bench/scenarios/`.

    python3 bench/gen_scenarios.py --seed 1

The seed becomes the default seed of `live_churn` and `reshape_queue`;
`paper_default` keeps the seed of `scenarios/default.json`.  `bench/run.py`
overrides every one of them with its own `--seed`.  Everything else about
the inputs is fixed here, and `bench/README.md` explains why each knob has
the value it has.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from migsim.healing import RetryPolicy  # noqa: E402
from migsim.scenario import (  # noqa: E402
    BootstrapSpec,
    BugSpec,
    BurstSpec,
    ExpectSpec,
    MetricsSpec,
    OfflineSpec,
    RuleSpec,
    Scenario,
    TypeSpec,
    WorkloadSpec,
    load_file,
    serialize,
)
from migsim.stores import FaultProfile  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parent / "scenarios"

# paper_default is the shipped default scenario with its record count and
# every traffic rate scaled by this factor; see README.md for why.
PAPER_SCALE = 0.1


def paper_default() -> Scenario:
    """The paper's default run, 100k records scaled down to 10k.

    Records, write and read rates and burst sizes shrink together, so each
    record still sees the same live traffic and attempts/N keeps its meaning.
    """
    base = load_file(ROOT / "scenarios" / "default.json")
    wl = base.workload
    return dataclasses.replace(
        base,
        name="paper_default",
        workload=dataclasses.replace(
            wl,
            initial_records=round(wl.initial_records * PAPER_SCALE),
            write_rate=wl.write_rate * PAPER_SCALE,
            read_rate=wl.read_rate * PAPER_SCALE,
            bursts=tuple(
                BurstSpec(b.at, round(b.size * PAPER_SCALE), b.etype) for b in wl.bursts
            ),
        ),
    )


def live_churn(seed: int) -> Scenario:
    """Small history, sustained churn, every live-path fault at once.

    All traffic, reads too, stops 100 ticks before the end: the day/night
    cycle has no night traffic and the run ends in the first night.  The
    repair loop then drains, and the final state can be judged converged.
    A read left in the last ticks can start a retry that outlives the run.
    """
    return Scenario(
        name="live_churn",
        seed=seed,
        duration=500,
        types=(
            TypeSpec("project"),
            TypeSpec("stage", ("project",)),
            TypeSpec("candidate", ("project", "stage")),
        ),
        rules=(
            RuleSpec("project_rule", "identity", ("project",), ("project_v2",)),
            RuleSpec("stage_rule", "identity", ("stage",), ("stage_v2",)),
            RuleSpec("candidate_rule", "identity", ("candidate",), ("candidate_v2",)),
        ),
        workload=WorkloadSpec(
            initial_records=2500,
            type_weights=(("project", 0.2), ("stage", 0.2), ("candidate", 0.6)),
            write_rate=10.0,
            read_rate=5.0,
            delete_fraction=0.05,
            delete_types=("candidate",),
            night_rate_factor=0.0,
            day_ticks=400,
        ),
        fault=FaultProfile(
            availability_p=0.97,
            outage_windows=((200, 220),),
            stream_lag=3,
            stream_drop_p=0.2,
        ),
        retry=RetryPolicy(),
        # A slow bootstrap races live dual writes, so stale bulk writes meet
        # the target's freshness guard.
        bootstrap=BootstrapSpec(enabled=True, mode="direct", limiter_capacity=150),
        offline=OfflineSpec(enabled=True, interval=100, cutoff=60),
        metrics=MetricsSpec(sample_interval=60),
        expect=ExpectSpec(final_settled_rate=1.0, zero_dead_letters=True),
    )


def reshape_queue(seed: int) -> Scenario:
    """Split and merge rules, queue-mode bootstrap, a time-boxed mapping bug.

    Every bootstrap write goes through the healer, the bug strands one id
    class until it dead-letters, and the requeue at tick 350 drains it.
    Traffic stops at tick 500 (no night traffic), so the loop drains by the
    end.
    """
    return Scenario(
        name="reshape_queue",
        seed=seed,
        duration=600,
        types=(
            TypeSpec("account"),
            TypeSpec("seat", ("account",)),
            TypeSpec("profile", ("account",)),
            TypeSpec("candidate", ("account",)),
        ),
        rules=(
            RuleSpec("account_rule", "identity", ("account",), ("account_v2",)),
            RuleSpec("member_rule", "merge", ("seat", "profile"), ("member_v2",)),
            RuleSpec(
                "candidate_rule",
                "split",
                ("candidate",),
                ("candidate_core_v2", "candidate_notes_v2"),
                split_fields=(
                    ("candidate_core_v2", ("profile", "parent_account")),
                    ("candidate_notes_v2", ("note",)),
                ),
            ),
        ),
        workload=WorkloadSpec(
            initial_records=2500,
            type_weights=(
                ("account", 0.2),
                ("seat", 0.2),
                ("profile", 0.2),
                ("candidate", 0.4),
            ),
            write_rate=5.0,
            read_rate=2.5,
            delete_fraction=0.05,
            delete_types=("candidate",),
            night_rate_factor=0.0,
            day_ticks=500,
        ),
        fault=FaultProfile(availability_p=0.99),
        retry=RetryPolicy(max_attempts=10, backoff_base=1, backoff_cap=16, rate_limit=50),
        bootstrap=BootstrapSpec(enabled=True, mode="queue", limiter_capacity=250),
        offline=OfflineSpec(enabled=True, interval=200, cutoff=30),
        metrics=MetricsSpec(sample_interval=60),
        bug=BugSpec(
            rule="candidate_rule",
            etype="candidate",
            id_mod=7,
            id_rem=3,
            active_from=100,
            active_until=300,
            requeue_at=350,
        ),
        expect=ExpectSpec(final_settled_rate=1.0, zero_dead_letters=True),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="default seed of live_churn and reshape_queue")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    for scenario in (paper_default(), live_churn(args.seed), reshape_queue(args.seed)):
        path = OUT / f"{scenario.name}.json"
        path.write_text(serialize(scenario), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
