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


class TestReport:
    def test_report_prints_samples_and_headline(self, run_dir, capsys):
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "samples:" in out
        assert "switch: switched" in out

    def test_report_missing_dir_is_usage_error(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == 2
