"""Span tracer for the traced benchmark run, installed from outside `src/`.

`Tracer.install()` replaces the public entry points of each `migsim` module
with wrappers that record a span (name, start, end, parent) in memory.
Functions that another module imports by name are wrapped in that module,
where the call looks them up.  Hot primitives (`map_source`,
`compare_records`, `put_if_fresher`, queue enqueue) get a counter, not a
span.  The simulation runner's own phases (setup, tick loop, finish) are
spans opened and closed at the calls that mark their boundaries.

A span named `layer.thing` reports its inclusive time as `layer.thing_s`; a
span named after a whole layer (`dualwrite`) reports `layer.s`.  Self time
per layer is span time minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import Counter

from migsim import (
    domain,
    dualwrite,
    healing,
    metrics,
    oracle,
    ramp,
    scenario,
    simulation,
    stores,
    verifiers,
    workload,
)

# Span name, owner (module or class), attribute.
SPANS = (
    ("scenario.load", scenario, "load_file"),
    ("workload.seed", workload.WorkloadGenerator, "seed_initial"),
    ("workload.generate", workload.WorkloadGenerator, "generate_step"),
    ("stores.commit", stores.LegacyStore, "commit"),
    ("stores.snapshot", stores.LegacyStore, "take_snapshot"),
    ("stores.stream_deliver", stores.ChangeStream, "deliver_due"),
    ("dualwrite", dualwrite.DualWriter, "run_due"),
    ("verifiers.bootstrap", verifiers.BootstrapJob, "step"),
    ("verifiers.nearline", verifiers.NearlineVerifier, "run_due"),
    ("verifiers.shadow", verifiers.ShadowReader, "on_read"),
    ("verifiers.offline", verifiers.OfflineVerifier, "run"),
    ("healing.repair", healing.Healer, "process"),
    ("metrics.sampling", metrics.ConsistencyTracker, "rates"),
    ("metrics.window_ttc", simulation, "time_to_converge"),
    ("metrics.window_ttc", metrics, "time_to_converge"),
    ("metrics.full_scan", simulation, "consistency_rate"),
    ("metrics.digest", metrics.EventLog, "digest"),
    ("ramp", ramp.RampController, "step"),
    ("oracle", simulation, "oracle_verify"),
    ("simulation.artifacts", simulation, "_write_artifacts"),
    ("simulation.run", simulation, "run_scenario"),
)

# Counted, never timed: each is called hundreds of thousands of times.
COUNTED = (
    ("domain.map_source_calls", domain, "map_source"),
    ("domain.map_source_calls", verifiers, "map_source"),
    ("domain.compare_records_calls", domain, "compare_records"),
    ("domain.compare_records_calls", healing, "compare_records"),
    ("domain.compare_records_calls", verifiers, "compare_records"),
    ("domain.compare_records_calls", metrics, "compare_records"),
    ("domain.compare_records_calls", oracle, "compare_records"),
    ("verifiers.nearline_checked", verifiers.NearlineVerifier, "verify"),
)

# Phase spans of the simulation runner, each closed where the next one opens.
SETUP, LOOP, FINISH = "simulation.setup", "simulation.loop", "simulation.finish"
ROOT = "run"


def metric_name(span: str) -> str:
    return span + ("_s" if "." in span else ".s")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.streams: list = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = end
            if top == idx:
                return

    def _close_phase(self) -> None:
        if self.stack and self.spans[self.stack[-1]][0] in (SETUP, LOOP, FINISH):
            self.close(self.stack[-1])

    def _span(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        counts = self.counts
        on_result = {
            "workload.generate": lambda ops: counts.update({"workload.ops": len(ops)}),
            "dualwrite": lambda n: counts.update({"dualwrite.tasks": n}),
            "verifiers.offline": lambda rep: counts.update(
                {"verifiers.offline_scanned_keys": rep.scanned_keys}
            ),
            "healing.repair": lambda rep: counts.update({"healing.processed": rep.processed}),
        }
        for name, owner, attr in SPANS:
            fn = owner.__dict__[attr]
            if name == "simulation.run":
                fn = self._span(name, self._runner_phases(fn))
            elif name == "simulation.artifacts":
                fn = self._after_phase(self._span(name, fn))
            else:
                fn = self._span(name, fn, on_result.get(name))
            self._patch(owner, attr, fn)
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self._count(name, owner.__dict__[attr]))
        self._patch_store_and_queue()
        self._patch_limiter()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _runner_phases(self, run_scenario):
        tracer = self

        @functools.wraps(run_scenario)
        def wrapper(*args, **kwargs):
            tracer.open(SETUP)
            try:
                return run_scenario(*args, **kwargs)
            finally:
                tracer._close_phase()

        return wrapper

    def _after_phase(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._close_phase()
            return fn(*args, **kwargs)

        return wrapper

    def _patch_limiter(self) -> None:
        """The first tick ends set-up; `RateLimiter.finish` ends the loop."""
        tracer = self
        limiter = verifiers.RateLimiter
        begin_tick, finish = limiter.begin_tick, limiter.finish

        @functools.wraps(begin_tick)
        def first_begin_tick(self, now):
            tracer._close_phase()
            tracer.open(LOOP)
            limiter.begin_tick = begin_tick
            return begin_tick(self, now)

        @functools.wraps(finish)
        def loop_finish(self):
            result = finish(self)
            tracer._close_phase()
            tracer.open(FINISH)
            return result

        self._patch(limiter, "begin_tick", first_begin_tick)
        self._patch(limiter, "finish", loop_finish)

    def _patch_store_and_queue(self) -> None:
        counts, spans, stack = self.counts, self.spans, self.stack
        accepted = stores.PutResult.ACCEPTED
        put = stores.TargetStore.put_if_fresher

        @functools.wraps(put)
        def counted_put(self, record):
            counts["stores.put_attempts"] += 1
            result = put(self, record)
            if result is accepted:
                counts["stores.put_accepted"] += 1
            return result

        enqueue = healing.SelfHealingQueue.enqueue

        @functools.wraps(enqueue)
        def attributed_enqueue(self, *args, **kwargs):
            if stack and spans[stack[-1]][0] == "dualwrite":
                counts["dualwrite.enqueued"] += 1
            return enqueue(self, *args, **kwargs)

        stream_init = stores.ChangeStream.__init__
        streams = self.streams

        @functools.wraps(stream_init)
        def remembered_init(self, *args, **kwargs):
            stream_init(self, *args, **kwargs)
            streams.append(self)

        self._patch(stores.TargetStore, "put_if_fresher", counted_put)
        self._patch(healing.SelfHealingQueue, "enqueue", attributed_enqueue)
        self._patch(stores.ChangeStream, "__init__", remembered_init)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_start
        self.gc_collections += 1
        if info["generation"] == 2:
            self.gc_gen2 += 1

    # -- results -----------------------------------------------------------

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds per span name, self seconds per layer)."""
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for name, start, end, parent in self.spans:
            dur = end - start
            inclusive[name] += dur
            self_time[name.split(".")[0]] += dur
            if parent >= 0:
                self_time[self.spans[parent][0].split(".")[0]] -= dur
        return dict(inclusive), dict(self_time)

    def layer_metrics(self, result, run_s: float, eventlog_bytes: int) -> dict[str, float]:
        """Every per-layer figure of one traced run, by metric name."""
        inclusive, self_time = self.layer_times()
        out: dict[str, float] = {}
        for name, _owner, _attr in SPANS:
            out[metric_name(name)] = inclusive.get(name, 0.0)
        for name in (SETUP, LOOP, FINISH):
            out[metric_name(name)] = inclusive.get(name, 0.0)
        # The runner's own self time is reported as trace.uncovered_s.
        for layer in sorted({name.split(".")[0] for name, _o, _a in SPANS} - {"simulation"}):
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        del out["simulation.run_s"]

        reg = result.registry
        report = result.report
        c = self.counts
        commits = sum(1 for name, *_ in self.spans if name == "stores.commit")
        attempts = c["stores.put_attempts"]
        processed = c["healing.processed"]
        out.update(
            {
                "workload.ops": c["workload.ops"],
                "stores.commits": commits,
                "stores.put_attempts": attempts,
                "stores.put_accept_ratio": c["stores.put_accepted"] / attempts if attempts else 0.0,
                "stores.target_ops": result.target.op_count,
                "stores.stream_dropped": sum(s.dropped for s in self.streams),
                "dualwrite.tasks": c["dualwrite.tasks"],
                "dualwrite.enqueued": c["dualwrite.enqueued"],
                "verifiers.bootstrap_groups": (report.bootstrap or {}).get("groups_processed", 0),
                "verifiers.nearline_checked": c["verifiers.nearline_checked"],
                "verifiers.shadow_reads": sum(
                    1 for name, *_ in self.spans if name == "verifiers.shadow"
                ),
                "verifiers.offline_scanned_keys": c["verifiers.offline_scanned_keys"],
                "healing.processed": processed,
                "healing.useful_ratio": reg.fix_success / processed if processed else 0.0,
                "healing.retries": reg.retries,
                "healing.enqueued": reg.enqueued,
                "healing.coalesced": reg.coalesced,
                "healing.dead_lettered": reg.dead_lettered,
                "healing.in_queue_ticks_mean": reg.in_queue_latency.mean,
                "metrics.log_entries": len(result.log),
                "ramp.unavailability_ticks": (report.switch or {}).get("unavailability_window", 0),
                "domain.map_source_calls": c["domain.map_source_calls"],
                "domain.map_source_per_commit": (
                    c["domain.map_source_calls"] / commits if commits else 0.0
                ),
                "domain.compare_records_calls": c["domain.compare_records_calls"],
                "simulation.eventlog_bytes": eventlog_bytes,
                "gc.pause_s": self.gc_pause_s,
                "gc.collections": self.gc_collections,
                "gc.gen2_collections": self.gc_gen2,
                "trace.uncovered_s": self_time.get(ROOT, 0.0) + self_time.get("simulation", 0.0),
                "trace.run_s": run_s,
            }
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (s from the first
        span's start), parent index or -1."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")
