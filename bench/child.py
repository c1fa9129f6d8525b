"""One benchmark run in a fresh process; `run.py` starts it, never a user.

    python3 bench/child.py WORKLOAD SEED OUT_DIR {full,setup,traced}

`full` does what `migsim run <scenario> --seed SEED --out OUT_DIR` does and
times it; `setup` stops at the first tick and times only the set-up;
`traced` is a full run with the span tracer installed.  After a full or
traced run the outputs are checked.  The last stdout line is one JSON
object with the figures and the check failures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from migsim import scenario as scenario_mod  # noqa: E402
from migsim import simulation  # noqa: E402
from migsim.verifiers import RateLimiter  # noqa: E402

from checks import check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class _FirstTick(Exception):
    """Raised from the first tick of a set-up-only pass."""


def _mark_first_tick(marks: dict, stop: bool) -> None:
    """Time the first `RateLimiter.begin_tick`, which starts tick 0."""
    original = RateLimiter.begin_tick

    def first(self, now):
        marks["first_tick"] = time.perf_counter()
        RateLimiter.begin_tick = original
        if stop:
            raise _FirstTick
        return original(self, now)

    RateLimiter.begin_tick = first


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image, in MB.

    `ru_maxrss` keeps the peak of the process that forked this one (the
    benchmark runner, whose calibration job is larger than a small run), so
    read `VmHWM`, which starts afresh at exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> dict:
    name, seed, out_dir, mode = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    workload = WORKLOADS[name]
    path = ROOT / workload.scenario
    tracer = None
    if mode == "traced":
        from tracing import ROOT as ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    _mark_first_tick(marks, stop=mode == "setup")

    start = time.perf_counter()
    if tracer:
        root = tracer.open(ROOT_SPAN)
    scn = scenario_mod.load_file(path)
    try:
        result = simulation.run_scenario(scn, seed=seed, out_dir=out_dir)
    except _FirstTick:
        return {"setup_s": marks["first_tick"] - start}
    if tracer:
        tracer.close(root)
    run_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    if tracer:
        tracer.uninstall()

    doc = json.loads(path.read_text(encoding="utf-8"))
    out = {
        "run_s": run_s,
        "setup_s": marks["first_tick"] - start,
        "peak_rss_mb": peak_rss_mb,
        "attempts_total": result.report.attempts_total,
        "initial_records": result.report.initial_records,
        "log_digest": result.report.log_digest,
        "failures": check_run(result, out_dir, doc, workload.attempts_bound),
    }
    if tracer:
        eventlog_bytes = (out_dir / "eventlog.jsonl").stat().st_size
        out["layers"] = tracer.layer_metrics(result, run_s, eventlog_bytes)
        tracer.write_spans(out_dir / "spans.jsonl")
    return out


if __name__ == "__main__":
    print(json.dumps(main()), flush=True)
    # Skip freeing the run's objects at exit: it is not part of the run.
    os._exit(0)
