#!/usr/bin/env python3
"""migsim benchmark: whole scenario runs, timed and checked.

    python3 bench/run.py --workload paper_default --seed 101 --seconds 35 --trace 0

Every run is one operation: what `migsim run <scenario> --seed S --out DIR`
does, in a fresh single-threaded process, followed by independent output
checks (`checks.py`).  A run fails if it does not reach its end or if any
check fails.  With `--trace 0` runs repeat until `--seconds` have passed
(always at least one), then set-up-only passes top the set-up samples up to
SETUP_SAMPLES; the medians are reported, scaled by the calibration job timed
between the runs (`calibrate`).  With `--trace 1` one untraced and one
traced run give the per-layer figures and the tracing overhead, in plain
wall seconds.
`--workload all` runs the three workloads in turn.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it repeat the
metrics for a reader.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# Reported times are wall times scaled to a machine on which calibrate()
# takes this long.  See calibrate() and README.md for why.
CAL_REF_S = 0.5
# Calibration samples taken after each run.  Single samples scatter about
# as much as single runs do, so the calibration median needs many samples
# too; see README.md.
CAL_PER_RUN = 2
# Every invocation must end within 180 s; leave room to report.
DEADLINE_S = 170.0
OUT = ROOT / ".bench_out"
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "attempts_per_record": "attempts/record",
}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ticks") or name.endswith("_ticks_mean"):
        return "ticks"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_per_commit"):
        return "calls/commit"
    return "count"


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python job shaped like a migsim run.

    The machine this benchmark was built on changes speed by up to 1.6x
    for minutes at a time.  Timing this job between runs, in the same
    invocation, measures the speed the runs saw; dividing by it cancels
    the drift.  The job imports nothing from `migsim`, so a change to the
    program never moves it.
    """
    start = time.perf_counter()
    store: dict = {}
    history = []
    for i in range(100_000):
        store[("candidate", str(i))] = {"profile": f"c-{i}-p", "note": f"n{i}", "parent": str(i // 7)}
    for rnd in range(3):
        for i in range(0, 100_000, 3):
            key = ("candidate", str(i))
            value = dict(store[key])
            value["note"] = f"n{i}-{rnd}"
            store[key] = value
            history.append((key, rnd, value))
    del store, history
    return time.perf_counter() - start


def _child(name: str, seed: int, out_dir: Path, mode: str, started: float) -> dict:
    """Run child.py once; its figures, or {'error': ...} if it did not end well."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), str(out_dir), mode]
    budget = DEADLINE_S - (time.perf_counter() - started)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(budget, 1.0),
            env={**os.environ, **SINGLE_THREADED}, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run did not end within the {DEADLINE_S:.0f} s budget"}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} run exited {proc.returncode}: {tail[0]}"}
    out = json.loads(lines[-1])
    out["wall"] = wall
    return out


def _fits(started: float, last_wall: float) -> bool:
    return time.perf_counter() - started + 1.2 * last_wall < DEADLINE_S


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns {correct, attempted, failed, metrics, notes}."""
    started = time.perf_counter()
    base = OUT / name
    runs: list[dict] = []
    cals: list[float] = []
    if trace:
        for mode in ("full", "traced"):
            runs.append(_child(name, seed, base / mode, mode, started))
    else:
        cals.append(calibrate())
        while True:
            runs.append(_child(name, seed, base / f"run{len(runs)}", "full", started))
            cals.extend(calibrate() for _ in range(CAL_PER_RUN))
            if "error" in runs[-1] or time.perf_counter() - started >= seconds:
                break
            if not _fits(started, runs[-1]["wall"]):
                break

    good = [r for r in runs if "error" not in r and not r["failures"]]
    notes = [r["error"] for r in runs if "error" in r]
    notes += [f for r in runs if "failures" in r for f in r["failures"]]
    digests = {(r["log_digest"], r["attempts_total"]) for r in good}
    if len(digests) > 1:
        notes.append(f"runs of one seed disagree: {sorted(digests)}")
    # A crash or timeout is a failed run; a wrong output also makes the
    # whole result incorrect.
    wrong_output = any(r.get("failures") for r in runs) or len(digests) > 1
    result = {
        "correct": not wrong_output,
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "metrics": {},
        "notes": notes,
    }
    if not good:
        return result

    if trace:
        if len(good) < 2:
            return result
        untraced, traced = good
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        result["metrics"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        return result

    setups = [r["setup_s"] for r in good]
    last_wall = max(r["wall"] for r in runs)
    while len(setups) < SETUP_SAMPLES and _fits(started, last_wall):
        res = _child(name, seed, base / f"setup{len(setups)}", "setup", started)
        if "error" in res:
            raise BenchError(res["error"])
        setups.append(res["setup_s"])
    first = good[0]
    run_wall = statistics.median(r["run_s"] for r in good)
    setup_wall = statistics.median(setups)
    cal = statistics.median(cals)
    values = {
        "run_s": run_wall * CAL_REF_S / cal,
        "setup_s": setup_wall * CAL_REF_S / cal,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "attempts_per_record": first["attempts_total"] / first["initial_records"],
    }
    result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["notes"].append(
        f"{len(good)} runs, {len(setups)} set-up samples; wall medians run {run_wall:.4f} s, "
        f"set-up {setup_wall:.4f} s; calibration {cal:.4f} s (reference {CAL_REF_S} s)"
    )
    return result


def _print_summary(name: str, seed: int, res: dict) -> None:
    print(f"{name} seed={seed}: {res['attempted']} runs attempted, {res['failed']} failed")
    for metric, m in res["metrics"].items():
        print(f"  {metric:<34} {m['value']:>16.6f} {m['unit']}")
    for note in res["notes"]:
        print(f"  note: {note}")


def _check_checkout() -> None:
    missing = [w.scenario for w in WORKLOADS.values() if not (ROOT / w.scenario).is_file()]
    if not (ROOT / "src" / "migsim" / "__init__.py").is_file():
        missing.append("src/migsim")
    if missing:
        raise BenchError(f"not a migsim checkout, missing: {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="migsim benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        compileall.compile_dir(ROOT / "src", quiet=1)
        compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = bench_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_summary(name, args.seed, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
