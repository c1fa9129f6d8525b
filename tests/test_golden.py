"""Pinned artifact digests: the shipped inputs at seed 1, byte for byte.

A run's `eventlog.jsonl`, `report.json` and `oracle.txt` are fixed by its
scenario and seed.  A change that claims to keep runs byte-identical must
pass this test unchanged; a change that alters an artifact on purpose
re-pins the digests here and says why.  `scenarios/default.json` (100k
records) is left out to keep the test fast.

The same runs pin the bootstrap section's puts, failed puts and queued
events of the benchmark inputs, which the report folds from the log, and
check the words the repair loop logs for each attempt.  Each input runs
once for all the tests here.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from migsim.domain import DiscrepancyClass, compare_records, map_source, read_group
from migsim.healing import CONSISTENT, FIXED
from migsim.metrics import EventLog
from migsim.scenario import load_file
from migsim.simulation import run_scenario

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("eventlog.jsonl", "report.json", "oracle.txt")

# Input path relative to the repository root -> sha256 of each artifact.
GOLDEN = {
    "scenarios/catchall.json": (
        "13134051322042269fc8cdeaadec0928a31db261487d921b6fb58a796469c607",
        "1b8bb5d47e4bdb8028be81a695fc4e9887aa4df41b0f767cc8c8b777f4b3e9db",
        "c8f1eb60ed53a323f2056d1f2dec2ba81a3f238f7841b934b69853a0f08b4e90",
    ),
    "scenarios/mapping_bug.json": (
        "19a0be8c0436bd6e065bdc3e7df9a7ad49f868b20f8db1c6d2d5ba938de55943",
        "bed5b3df066f9b17e53ce5b7f7cb83be1f41a0186cce3d05ced70a36588087cd",
        "b83ac87229aa4be4f23083480543f536d0ccc6f3b4f63a5b38821d9bc8b88879",
    ),
    "scenarios/queue_bootstrap.json": (
        "aafe2eb25c76b7a054d5048333de4294467cc69b2069ec331436167ffe1b3d68",
        "e54b4135059554792188896fc72f8167e20d445ac9879d61db3887b6af9a3f33",
        "8d14d51bb8a47c64445e56df2b6fa2d55938cf0d3a74ea19a77417f90408a2e3",
    ),
    "scenarios/ramp_pair_drained.json": (
        "cea9487c25b6c22c213c914ad381932babdbf8bc67842ff776dfd5c189b01cb3",
        "5bf7d3ef7e8e8f977dd9c6624e52ad37c9ee59cae4e4139e4092a43b6ee28cb8",
        "fd39f9ad73d9992cbfb43b6e428812088aac35a0247a0ecaaca37dd84e74b6a2",
    ),
    "scenarios/ramp_pair_forced.json": (
        "98657bcd0910a9a1fcb2e554acd0bcb205414f357b7429b2b2adce18379ff413",
        "95fdbd11b399cebc916370a383144f7ffd829e0705612afe21026884bf61fbca",
        "b1176ecb854f7edb4d77b74bc2e30469ad2de1381b451ab46449d9c28cc7a3ac",
    ),
    "scenarios/reshape.json": (
        "7e3aa092a67e2d4ff83957c27f5047fed7dfd80628e4e41256c90e905761b10c",
        "6d236871b48e91dd0e958ccf5d53d475ae9dcefa4e09ade6728ca911128d858e",
        "cf8d17fcbe8f6c2f7db82adb47a7845b3b15e4a66e94d271899b41a5417e52c5",
    ),
    "scenarios/resurrection.json": (
        "25794ab4057c80ed96c80a2f79c6a09928e98347e85e65016639b0dc6c4401bd",
        "ce4fbe71da8ce8879703bd65a5b1893fe3b6b1daf5c699b2385219c837005747",
        "89845ffa4406351da356b54bb49b313fdede247122e048e4a9cd051240cd8ae2",
    ),
    "scenarios/small.json": (
        "dc052578b2270c13be106f48f12fd3583a7e0cd562fea4a86e90fc9e113faeba",
        "9cc260f61a347e27d4685c65277891bb12babffcee7f7f5ccab416f3c7da7665",
        "1590ca6bab49ca933e61128ef16846b0d5e1725e3a5146788fe147cb6c15aafe",
    ),
    "bench/scenarios/live_churn.json": (
        "4de69ae9abc574bff9f4526df88039460b6b2fa49dfafec57d0c1eeae367b500",
        "02b9f49d1313858d35cd6ee2cffd78fa965bbaf3cacd57f0cb8e8ae33e445418",
        "78163bfa91517d5379e03b9252b968d3715222213954aab2d5c51542c556e7c8",
    ),
    "bench/scenarios/paper_default.json": (
        "f336b4e7fc9b22ec92ffc2853a379106bc3eed522f52f94c553c3bcfb192769b",
        "95e07fe3ba89172920b4a3f8a15a51c7349719dd819bee51f3ebfb9c7595cf86",
        "da8555bb0354d823805d1b06ff51ecbd4c518be74a6bb8863137c5c6f233e8af",
    ),
    "bench/scenarios/reshape_queue.json": (
        "6dc6bf18ff90f553392a73de2dfb5049977fcb81b7b100a7de726b131eabf487",
        "65b5aa7c7c368c7486113e5b1aba9808b6de7d122e37c30aa7f2b074a45add72",
        "4356d551c5041cad380a43a4a74ce5a678ba3fc9d229165588b9461992102f3d",
    ),
}


# Input -> the bootstrap section's (puts, put_failures, events_enqueued).
BOOTSTRAP_TALLIES = {
    "bench/scenarios/paper_default.json": (9_779, 103, 324),
    "bench/scenarios/live_churn.json": (2_379, 72, 197),
    "bench/scenarios/reshape_queue.json": (0, 0, 3_000),
}


def test_every_fast_shipped_input_is_pinned():
    shipped = [*ROOT.glob("scenarios/*.json"), *ROOT.glob("bench/scenarios/*.json")]
    names = {p.relative_to(ROOT).as_posix() for p in shipped}
    assert names - {"scenarios/default.json"} == set(GOLDEN)


@pytest.mark.parametrize("name", ["scenarios/reshape.json", "scenarios/catchall.json"])
def test_artifacts_do_not_depend_on_the_hash_seed(name, tmp_path):
    """Set iteration order changes with `PYTHONHASHSEED`; no artifact may.
    Each run is a fresh interpreter, as the hash seed is fixed at start-up."""
    got = []
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "migsim.cli", "run", str(ROOT / name), "--seed", "1",
             "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        got.append(tuple((out / f).read_bytes() for f in ARTIFACTS))
    assert got[0] == got[1]
    assert tuple(hashlib.sha256(b).hexdigest() for b in got[0]) == GOLDEN[name]


# Every reason a failed validate-and-fix attempt logs: the check could not
# read, the fix could not write, a parent target record is missing, or the
# group does not map.
FAILURE_REASON = re.compile(r"unavailable|fix_unavailable|missing_parent: \w+#\w+|mapping_bug: .+")


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden(request, tmp_path_factory):
    """(input, result, artifact directory) of one pinned input's seed-1 run."""
    out = tmp_path_factory.mktemp("golden")
    return request.param, run_scenario(load_file(ROOT / request.param), seed=1, out_dir=out), out


def test_artifacts_match_pinned_digests(golden):
    name, result, out = golden
    log = result.log
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, GOLDEN[name]))
    if name in BOOTSTRAP_TALLIES:
        section = result.report.bootstrap
        tallies = (section["puts"], section["put_failures"], section["events_enqueued"])
        assert tallies == BOOTSTRAP_TALLIES[name]
    # The export parses back into equal rows of the same classes: every
    # kind and variant of row the run logs round-trips through the format.
    parsed = EventLog.parse_lines(log.export_lines())
    assert [(type(r), r) for r in parsed.rows] == [(type(r), r) for r in log.rows]


def test_each_attempt_logs_its_outcome_word(golden):
    """A `dequeue` row's `res` is one of the two success words, and a `retry`
    or `dead_letter` row's `reason` is a failure reason, never a success
    word."""
    _name, result, _out = golden
    for word in (FIXED, CONSISTENT):
        assert not FAILURE_REASON.fullmatch(word)
    words = set()
    for row in result.log.rows:
        if row.kind == "dequeue":
            assert row.res in (FIXED, CONSISTENT), row
            words.add(row.res)
        elif row.kind == "retry" or row.kind == "dead_letter":
            assert FAILURE_REASON.fullmatch(row.reason), row
            assert row.reason not in (FIXED, CONSISTENT), row
            words.add(row.reason.partition(":")[0])
    # Every input repairs something, and some attempt of each fails.
    assert FIXED in words and words - {FIXED, CONSISTENT}


@pytest.mark.parametrize("golden", ["scenarios/ramp_pair_forced.json"], indirect=True)
def test_forced_flip_fails_only_on_resurrections_still_in_the_queue(golden):
    """The forced ramp's pinned `oracle: FAIL`: "no final resurrections" is
    the one failing check, and each resurrected key still waits in the
    queue at the flip, which ends the run.  A forced flip ends with a live
    queue by design, so this states the check's excess over the promise;
    mending the check flips this test on purpose."""
    _name, result, _out = golden
    failing = [(c.name, c.detail) for c in result.oracle_report.checks if not c.ok]
    assert failing == [("no final resurrections", "resurrections=2")]
    schema, legacy = result.schema, result.legacy
    resurrected = []
    for key, actual in result.target.records.items():
        rule = schema.rule_for_target(key.etype)
        outputs = {r.key: r for r in map_source(rule, read_group(rule, key.id, legacy.read))}
        if compare_records(outputs.get(key), actual) is DiscrepancyClass.RESURRECTION:
            resurrected.append(str(key))
    assert sorted(resurrected) == ["candidate_v2#672", "candidate_v2#832"]
    pending = {str(event.target_key) for event in result.queue.pending()}
    assert set(resurrected) <= pending
