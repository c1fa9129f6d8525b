"""Command-line interface: run scenarios, verify event logs, print reports."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .metrics import EventLog
from .oracle import oracle_verify
from .scenario import ConfigError, load_file
from .simulation import run_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_file(args.scenario)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_scenario(scenario, seed=args.seed, out_dir=args.out)
    report = result.report
    print(f"run '{report.name}' seed={report.seed} duration={report.duration}")
    print(report.headline())
    if result.oracle_report is not None:
        print(result.oracle_report.to_text())
    if report.expect_failures:
        print("expectation failures:")
        for failure in report.expect_failures:
            print(f"  - {failure}")
    if args.out:
        print(f"artifacts written to {args.out}")
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        scenario = load_file(args.scenario)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    log_path = Path(args.eventlog)
    try:
        data = log_path.read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        log = EventLog.parse_lines(data.decode("utf-8").splitlines())
    except ValueError as exc:
        print(f"error: {log_path}: {exc}", file=sys.stderr)
        return 2
    report_doc = None
    digest_ok = True
    sibling = log_path.parent / "report.json"
    if sibling.exists():
        report_doc = json.loads(sibling.read_text(encoding="utf-8"))
    oracle = oracle_verify(log, scenario, report_doc)
    print(oracle.to_text())
    if report_doc is not None:
        # The report's digest covers the exact bytes of the exported log.
        got = hashlib.sha256(data).hexdigest()
        claimed = report_doc.get("log_digest")
        digest_ok = got == claimed
        if digest_ok:
            print("log digest: ok")
        else:
            print(f"log digest: MISMATCH (eventlog.jsonl {got} != report {claimed})")
    return 0 if oracle.ok and digest_ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    report_path = run_dir / "report.json"
    if not report_path.exists():
        print(f"error: no report.json under {run_dir}", file=sys.stderr)
        return 2
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    print(f"run '{doc['name']}' seed={doc['seed']} duration={doc['duration']}")
    samples = doc.get("samples", [])
    if samples:
        last = samples[-1]
        print("convergence headline:")
        print(f"  overall consistency:  {last['overall_rate']:.6f}")
        print(f"  settled consistency:  {last['settled_rate']:.6f}")
        print(f"  in the loop (queue):  {last['queue_length']}")
        print(f"  max in-loop data age: {last['max_in_loop_age']}")
        print("samples:")
        print(f"  {'tick':>8} {'phase':>10} {'overall':>10} {'settled':>10} {'queue':>6} {'age':>5} {'ttc':>5}")
        for s in samples:
            ttc = s["window_ttc"] if s["window_ttc"] is not None else "-"
            print(
                f"  {s['at']:>8} {s['phase']:>10} {s['overall_rate']:>10.6f} "
                f"{s['settled_rate']:>10.6f} {s['queue_length']:>6} "
                f"{s['max_in_loop_age']:>5} {ttc:>5}"
            )
    if doc.get("switch"):
        sw = doc["switch"]
        print(
            f"switch: {sw['outcome']} window={sw['unavailability_window']} "
            f"lost={sw['lost_updates']} residual={sw['post_switch_discrepancies']}"
        )
    if doc.get("attempts_ratio") is not None:
        print(f"attempts: {doc['attempts_total']} (ratio {doc['attempts_ratio']:.4f})")
    print(f"ok: {doc.get('ok')}")
    return 0 if doc.get("ok") else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="migsim",
        description="Deterministic convergent data-migration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="directory for run artifacts")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="recompute a run's claims from its event log")
    p_verify.add_argument("eventlog")
    p_verify.add_argument("scenario")
    p_verify.set_defaults(func=_cmd_verify)

    p_report = sub.add_parser("report", help="print the report from a run directory")
    p_report.add_argument("run_dir")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
