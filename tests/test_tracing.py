"""The benchmark tracer still finds every hook point it patches.

`bench/tracing.py` wraps functions by name where their callers look them
up: `oracle.compare_records`, `simulation.oracle_verify` and the re-exports
marked `# noqa: F401`.  It also counts work from what some wrapped calls
return: `OfflineVerifier.run(...).scanned_keys`, `Healer.process(...)
.processed`, `DualWriter.run_due`'s count and the ops `generate_step`
returns, and two figures from the report's `bootstrap` and `switch`
sections.  A simplification that drops one of those names or return values
breaks the traced benchmark run; this test breaks first.
"""

from __future__ import annotations

import importlib.util
import time
from collections import Counter
from pathlib import Path

from migsim import oracle, simulation
from migsim.scenario import load_file

from conftest import scenario_path

TRACING_FILE = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_small_run_counts_the_hot_primitives(tmp_path):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = simulation.run_scenario(load_file(scenario_path("small")), out_dir=tmp_path)
        run_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert simulation.oracle_verify is oracle.oracle_verify
    assert result.report.ok
    layers = tracer.layer_metrics(
        result, run_s, (tmp_path / "eventlog.jsonl").stat().st_size
    )
    assert layers["domain.map_source_calls"] > 0
    assert layers["domain.compare_records_calls"] > 0
    assert layers["oracle.s"] > 0
    # Counted from what the wrapped calls return, or from calls to a
    # wrapped method: a change to those return values or names shows here.
    for name in (
        "verifiers.offline_scanned_keys",
        "healing.processed",
        "dualwrite.tasks",
        "workload.ops",
        "verifiers.nearline_checked",
    ):
        assert layers[name] > 0, name
    assert layers["verifiers.offline_scanned_keys"] == sum(
        row.scanned for row in result.log.rows if row.kind == "offline_done"
    )
    # The repair counters the tracer reads are the log's own row counts.
    rows = Counter(row.kind for row in result.log.rows)
    assert rows["retry"] and rows["coalesce"]
    for name, kind in (
        ("healing.enqueued", "enqueue"),
        ("healing.coalesced", "coalesce"),
        ("healing.retries", "retry"),
        ("healing.dead_lettered", "dead_letter"),
    ):
        assert layers[name] == rows[kind], name
    # The two figures the tracer reads of the bootstrap and switch sections
    # are the ones the log's rows state.
    (start,) = [
        row for row in result.log.rows if row.kind == "bootstrap" and row.phase == "start"
    ]
    assert layers["verifiers.bootstrap_groups"] == start.groups
    (flip,) = [row for row in result.log.rows if row.kind == "ramp" and row.act == "flip"]
    assert layers["ramp.unavailability_ticks"] == flip.window
