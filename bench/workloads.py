"""The benchmark's workloads: which scenario each runs and what it must show.

Each workload is a batch job, scenario in and verified report out.  The
scenario files live in the repository; `--seed` replaces their seed, so the
same seed always gives the same inputs.  Why each workload exists is said in
`BENCHMARK.json` and `README.md`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # path relative to the repository root
    # Closed interval attempts/N must fall in, or None where the paper
    # makes no claim for this input.
    attempts_bound: tuple[float, float] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_default", "bench/scenarios/paper_default.json", attempts_bound=(1.000, 1.02)),
        Workload("live_churn", "bench/scenarios/live_churn.json"),
        Workload("reshape_queue", "bench/scenarios/reshape_queue.json"),
    )
}
