"""Pinned artifact digests: the shipped inputs at seed 1, byte for byte.

A run's `eventlog.jsonl`, `report.json` and `oracle.txt` are fixed by its
scenario and seed.  A change that claims to keep runs byte-identical must
pass this test unchanged; a change that alters an artifact on purpose
re-pins the digests here and says why.  `scenarios/default.json` (100k
records) is left out to keep the test fast.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from migsim.metrics import EventLog
from migsim.scenario import load_file
from migsim.simulation import run_scenario

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("eventlog.jsonl", "report.json", "oracle.txt")

# Input path relative to the repository root -> sha256 of each artifact.
GOLDEN = {
    "scenarios/catchall.json": (
        "70a4443781d97ee302fb5b7101f4df5f71506fafe5edf95649a5b51021d2e74e",
        "fe2cb626faa79fd4b49d577ad1fb10f923f9c88531ff0be9c4eff13c32d3c28d",
        "1d753c39251d590f9b7e7ee01532fa562e69ad3759662eb1f9601da7023984bf",
    ),
    "scenarios/mapping_bug.json": (
        "4a0a3784caa72f8bf29358d9e4af152ed4f6c33f8fc5025b43eb7681efdbd6ca",
        "6b8fbb061b8bfd8aa37d9ac2901f6d288e16424dc72119374a58d1a948c283d2",
        "4ffa4e1dcf909ea5a5c7fc8439a17d069f34926c823d9e5616c4083dfb9ebe2c",
    ),
    "scenarios/queue_bootstrap.json": (
        "f39d7d95dfbf62913b5734e41ba8f0de16fb7d3b28748050bf58355e20dce004",
        "8425c4b6ab60798746a357d7e542a3d80bd3084bc15fee4c35eff5181d9bd5a7",
        "ccb787d1bce32ec9dbc4a4dc1df4bd029eb0ad5e09564ba707915ee8dd689ce4",
    ),
    "scenarios/ramp_pair_drained.json": (
        "9aa680106981167967824470dfd1fd934934061d80af493c35e323aa1ddbe0da",
        "ed2b50a1bf2964fbd872c6390723ce87cc8cf10d323de1d406b885b5977c0e91",
        "b9faef087055661c9da3a3b8de11e4ac059367f634f4461203e6d12210e14eaf",
    ),
    "scenarios/ramp_pair_forced.json": (
        "5986ba493e43e8b99a6d2e76bcb36a98258c35b04f0abffb9b20644a99aaeb90",
        "b8548787e3425107c957719c3b8ec64d503f1baba6727c5762414b6acf0f90b9",
        "af1976cc09680ae7fd0c139cdcd2a076e7b02b6006c9e529de7544c529254641",
    ),
    "scenarios/reshape.json": (
        "94ed26be5905dd95951ea82808366797dbdd6ed701596fe7936e6060cb2b7149",
        "63a7b470efab5abb76019d914a7cb5c2cab159c9411e33b361e73e82d4c0bd97",
        "455e2e33ddd76d1a110e6ece7038db43b3dd43619e91e75082d2ff6d85ffaa0c",
    ),
    "scenarios/resurrection.json": (
        "81f8d0af71b47a5b5943aebdf81ea290f38dd93f83ae094a5d4b91a976b098eb",
        "5a5dcb4dbbf273ac845c8790558dd32fd031ef2dbb3b191ac54f023f1cc72013",
        "695327c5f55f6e9739e929908592674bd48a0cf5c0a3ca68fb9b1dc38c065f6c",
    ),
    "scenarios/small.json": (
        "b3bb55c788c36a2fec9a0fc86244367852f77e9db2fb2119c56dc22b3e1e38a6",
        "9d60c188e603e729b8e2ad6b09bf16e48d4108d765a2e14936f5cae023d34905",
        "233e0336c488a20bd1ac40604f4660091be9374c67a4e4e32767dd5de24735f2",
    ),
    "bench/scenarios/live_churn.json": (
        "6f5dd8800168d58c8e78f704eab21069a7bfd97d44ded6d269c48f9cb705a789",
        "6c2a3739d65d608c89f3dd7f0951e92246f8a15376077e84d056725a196d6b17",
        "d41b5eda3702cf99a699de6cf38479e5fa3877a1eb3459377381e832a8633a29",
    ),
    "bench/scenarios/paper_default.json": (
        "fc174b3ec19d363fe3a0508333d62caf8d49fc86be16bfefc4285369f023a442",
        "c64f48d97649f9e04872e1235c77a7159e492c0084efc3f733caff217080607b",
        "0091f02d356123f5e8e739233110cd397af3a9cf466b0057b94bc69032e650cd",
    ),
    "bench/scenarios/reshape_queue.json": (
        "bdc505e58bf57b51d0bcdb6eef5bd429836c8eca0b8340941ca617f42f84c38e",
        "93ddadb8c30ecf53b86661ee97efa45e9ad37c27ac8620c756556e9b06a9cf85",
        "6fc1d373c610b838611bd6076db69b75745e4b825d0f4eea19c0bddfedf65b11",
    ),
}


def test_every_fast_shipped_input_is_pinned():
    shipped = [*ROOT.glob("scenarios/*.json"), *ROOT.glob("bench/scenarios/*.json")]
    names = {p.relative_to(ROOT).as_posix() for p in shipped}
    assert names - {"scenarios/default.json"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_pinned_digests(name, tmp_path):
    log = run_scenario(load_file(ROOT / name), seed=1, out_dir=tmp_path).log
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, GOLDEN[name]))
    # The export parses back into equal rows of the same classes: every
    # kind and variant of row the run logs round-trips through the format.
    parsed = EventLog.parse_lines(log.export_lines())
    assert [(type(r), r) for r in parsed.rows] == [(type(r), r) for r in log.rows]
