from __future__ import annotations

import json
import shutil

import pytest

from migsim.cli import main

from conftest import scenario_path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = main(["run", str(scenario_path("small")), "--out", str(out)])
    assert code == 0
    return out


class TestRun:
    def test_run_exit_zero_and_artifacts(self, run_dir):
        assert (run_dir / "report.json").exists()
        assert (run_dir / "eventlog.jsonl").exists()

    def test_run_prints_headline(self, capsys):
        code = main(["run", str(scenario_path("small"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall consistency" in out
        assert "settled consistency" in out
        assert "in the loop (queue)" in out
        assert "max in-loop data age" in out
        assert "oracle: PASS" in out

    def test_seed_override_changes_digest(self, run_dir, tmp_path):
        out2 = tmp_path / "run2"
        assert main(["run", str(scenario_path("small")), "--seed", "99", "--out", str(out2)]) == 0
        d1 = json.loads((run_dir / "report.json").read_text())["log_digest"]
        d2 = json.loads((out2 / "report.json").read_text())["log_digest"]
        assert d1 != d2

    def test_missing_scenario_is_usage_error(self):
        assert main(["run", "/nonexistent/scenario.json"]) == 2

    def test_non_object_section_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(scenario_path("small").read_text())
        doc["workload"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err == "error: workload: expected an object\n"

    def test_zero_sample_interval_is_usage_error(self, tmp_path, capsys):
        doc = json.loads(scenario_path("small").read_text())
        doc["metrics"]["sample_interval"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 2
        assert capsys.readouterr().err == "error: metrics.sample_interval must be > 0\n"

    def test_failed_expectation_is_nonzero_exit(self, tmp_path):
        doc = json.loads(scenario_path("small").read_text())
        doc["expect"]["max_attempts_ratio"] = 0.0001
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad)]) == 1


class TestVerify:
    def test_verify_passes_on_clean_run(self, run_dir, capsys):
        code = main(
            ["verify", str(run_dir / "eventlog.jsonl"), str(scenario_path("small"))]
        )
        assert code == 0
        assert "oracle: PASS" in capsys.readouterr().out

    def test_verify_flags_tampered_log(self, run_dir, tmp_path, capsys):
        lines = (run_dir / "eventlog.jsonl").read_text().splitlines()
        tampered_dir = tmp_path / "tampered"
        tampered_dir.mkdir()
        # Corrupt the queue gauge of one sample entry.
        for i, line in enumerate(lines):
            if '"k":"sample"' in line or '"k": "sample"' in line:
                entry = json.loads(line)
                entry["qlen"] = entry["qlen"] + 7
                lines[i] = json.dumps(entry, sort_keys=True, separators=(",", ":"))
                break
        (tampered_dir / "eventlog.jsonl").write_text("\n".join(lines) + "\n")
        code = main(
            ["verify", str(tampered_dir / "eventlog.jsonl"), str(scenario_path("small"))]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


    def test_verify_checks_digest_against_report(self, run_dir, capsys):
        main(["verify", str(run_dir / "eventlog.jsonl"), str(scenario_path("small"))])
        assert "log digest: ok" in capsys.readouterr().out

    def test_verify_fails_on_log_truncated_by_one_line(self, run_dir, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        lines = (run_dir / "eventlog.jsonl").read_text().splitlines(keepends=True)
        (cut / "eventlog.jsonl").write_text("".join(lines[:-1]))
        shutil.copy(run_dir / "report.json", cut / "report.json")
        code = main(["verify", str(cut / "eventlog.jsonl"), str(scenario_path("small"))])
        assert code == 1
        assert "log digest: MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "broken",
        [
            "drop_line",
            "{not json",
            "[4]",
            '{"seq":4,"t":0,"k":"commit","key":["project","1","x"]}',
            '{"seq":4,"k":"sample"}',
            '{"cls":"dual","k":"put","key":["project_v2","1"],"out":"accepted",'
            '"prov":[["project","1",1]],"seq":4,"t":0,"tomb":false,"val":{}}',
            # Type-wrong values: each once crashed the oracle or passed it.
            '{"cls":"dual","k":"put","key":["project_v2","4"],"out":"accepted",'
            '"prov":[["project","4","x",0]],"seq":4,"t":0,"tomb":false,"val":{}}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":"x","val":{"note":"n"},"ver":[1,0]}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":true,"val":{"note":"n"},"ver":[1,0]}',
            '{"cls":"dual","k":"put","key":["nope_v2","4"],"out":"accepted",'
            '"prov":[["project","4",1,0]],"seq":4,"t":0,"tomb":false,"val":{}}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":0,"val":[1],"ver":[1,0]}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":0,"val":{"note":"n"},"ver":["x",0]}',
            # Rows without a field the oracle reads: each once made verify
            # exit 1, with a traceback or a FAIL.
            '{"seq":4,"t":0,"k":"sample"}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":0,"val":{"note":"n"}}',
            '{"cseq":4,"k":"commit","key":["project","4"],"seq":4,'
            '"t":0,"val":{"note":"n"},"ver":[1,0]}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":0,"ver":[1,0]}',
            '{"cls":"dual","k":"put","key":["project_v2","4"],"out":"accepted",'
            '"seq":4,"t":0,"tomb":false,"val":{}}',
            '{"cls":"dual","k":"put","key":["project_v2","4"],"out":"accepted",'
            '"prov":[["project","4",1,0]],"seq":4,"t":0,"val":{}}',
            '{"cls":"dual","k":"put","key":["project_v2","4"],"out":"accepted",'
            '"prov":[["project","4",1,0]],"seq":4,"t":0,"tomb":false}',
            '{"seq":4,"t":0,"k":"ramp"}',
            # An accepted native put without "prov", "tomb" and "val", as
            # logs held once post-flip traffic ran.
            '{"cls":"native","k":"put","key":["project_v2","4"],"out":"accepted",'
            '"seq":4,"t":0}',
            # Rows that the declared format (`ROW_KINDS`) does not admit:
            # each once verified with exit 0, or failed the oracle.
            '{"seq":4,"t":0,"k":"bogus"}',
            '{"cseq":4,"k":"commit","key":["project","4"],"op":"write","seq":4,'
            '"t":0,"val":{"note":"n"},"ver":[1,0],"zzz":1}',
            '{"k":"snapshot","key":["project","4"],"lut":0,"n":0,"seq":4,"t":0,"taken":0}',
            '{"age":0,"bound":0,"k":"sample","overall":1.0,"phase":"pre","qlen":"x",'
            '"seq":4,"settled":1.0,"t":0}',
            '{"k":"enqueue","key":["project_v2","4"],"seq":4,"sut":0,"t":0,"trig":1}',
        ],
    )
    def test_verify_unreadable_log_is_usage_error(self, run_dir, tmp_path, capsys, broken):
        lines = (run_dir / "eventlog.jsonl").read_text().splitlines(keepends=True)
        if broken == "drop_line":
            del lines[3]  # entry 5 now sits on line 4
        else:
            lines[3] = broken + "\n"
        path = tmp_path / "eventlog.jsonl"
        path.write_text("".join(lines))
        code = main(["verify", str(path), str(scenario_path("small"))])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("text", ['{"samples": [', "[]", "\xff"])
    def test_verify_unreadable_report_is_usage_error(self, run_dir, tmp_path, capsys, text):
        shutil.copy(run_dir / "eventlog.jsonl", tmp_path / "eventlog.jsonl")
        (tmp_path / "report.json").write_bytes(text.encode("latin-1"))
        code = main(["verify", str(tmp_path / "eventlog.jsonl"), str(scenario_path("small"))])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'report.json'}: ")


class TestReport:
    def test_report_prints_samples_and_headline(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out
        assert "switch: switched" in out

    def test_report_headline_is_the_run_headline(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", str(scenario_path("ramp_pair_drained")), "--out", str(out)]) == 0
        run_lines = capsys.readouterr().out.splitlines()
        assert main(["report", str(out)]) == 0
        report_lines = capsys.readouterr().out.splitlines()
        end = report_lines.index("samples:")
        assert report_lines[:end] == run_lines[:end]
        assert run_lines[end].startswith("oracle: ")
        assert report_lines[end - 1].startswith("  switch: switched window=")

    def test_report_missing_dir_is_usage_error(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == 2

    @pytest.mark.parametrize("text", ['{"samples": [', "[]", "\xff"])
    def test_report_unreadable_report_is_usage_error(self, tmp_path, capsys, text):
        (tmp_path / "report.json").write_bytes(text.encode("latin-1"))
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'report.json'}: ")


# A broken report.json and the message both commands give for it.
BROKEN_REPORTS = {
    "empty": (lambda doc: {}, "'name' is missing"),
    "sample_without_at": (lambda doc: {**doc, "samples": [{}]}, "samples[0]: 'at' is missing"),
    "sample_field_wrong_type": (
        lambda doc: {**doc, "samples": [{**doc["samples"][0], "overall_rate": "1"}]},
        "samples[0]: 'overall_rate' is '1'",
    ),
    "switch_without_lost_updates": (
        lambda doc: {
            **doc, "switch": {k: v for k, v in doc["switch"].items() if k != "lost_updates"}
        },
        "switch: 'lost_updates' is missing",
    ),
    "switch_without_rejected_writes": (
        lambda doc: {
            **doc, "switch": {k: v for k, v in doc["switch"].items() if k != "rejected_writes"}
        },
        "switch: 'rejected_writes' is missing",
    ),
    "samples_not_a_list": (lambda doc: {**doc, "samples": 3}, "'samples' is 3"),
    "without_final_counts": (
        lambda doc: {k: v for k, v in doc.items() if k != "final_counts"},
        "'final_counts' is missing",
    ),
}


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("case", list(BROKEN_REPORTS))
def test_report_with_a_bad_field_is_usage_error(run_dir, tmp_path, capsys, command, case):
    broken, message = BROKEN_REPORTS[case]
    good = json.loads((run_dir / "report.json").read_text())
    shutil.copy(run_dir / "eventlog.jsonl", tmp_path / "eventlog.jsonl")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(broken(good)))
    if command == "report":
        code = main(["report", str(tmp_path)])
    else:
        code = main(["verify", str(tmp_path / "eventlog.jsonl"), str(scenario_path("small"))])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
