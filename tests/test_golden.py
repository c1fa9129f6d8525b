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

from migsim.scenario import load_file
from migsim.simulation import run_scenario

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("eventlog.jsonl", "report.json", "oracle.txt")

# Input path relative to the repository root -> sha256 of each artifact.
GOLDEN = {
    "scenarios/catchall.json": (
        "70a4443781d97ee302fb5b7101f4df5f71506fafe5edf95649a5b51021d2e74e",
        "307859ac524c42a8ec10c16ece2de76cde802ff6a9032d3a82aa84e3cdbb5fdc",
        "b666bfe74083af4baf7d61fc888ea79d4f623e5d016a3cc79ebe85250e36d249",
    ),
    "scenarios/mapping_bug.json": (
        "4a0a3784caa72f8bf29358d9e4af152ed4f6c33f8fc5025b43eb7681efdbd6ca",
        "d10704a394aed3d25e183e39301d50371c620db0fdeb30bad099b1ff54bb264b",
        "99a4e7d8f4130b59332e0c8cb3d901a679f3042e652d36eb0b08722282c23be7",
    ),
    "scenarios/queue_bootstrap.json": (
        "f39d7d95dfbf62913b5734e41ba8f0de16fb7d3b28748050bf58355e20dce004",
        "5841d1b776e3facff0d0b96330db88646ef0f661cdeac44b8737b29277b3144d",
        "65ab3fdc3b381ed9716e6945eab68e377f91dca02870cad889d72ffd925ea46f",
    ),
    "scenarios/ramp_pair_drained.json": (
        "9aa680106981167967824470dfd1fd934934061d80af493c35e323aa1ddbe0da",
        "6b065322d0f663245167a039558cca302089b7f9740769d19aaab13b9f572c20",
        "fa33f780693b74c0f80cb80aadf5484f692300466375ff13a191799859aaac76",
    ),
    "scenarios/ramp_pair_forced.json": (
        "5986ba493e43e8b99a6d2e76bcb36a98258c35b04f0abffb9b20644a99aaeb90",
        "4fc56afad5669e37931533175fb94099a33b3202aa7b30644833255f1fd195ba",
        "b6b6afde84b64bcd2fdb672727241fd595b39c6d07e35988b9b9034cd7392f47",
    ),
    "scenarios/reshape.json": (
        "94ed26be5905dd95951ea82808366797dbdd6ed701596fe7936e6060cb2b7149",
        "4e19865da6be380bb9599dd7dfc0fb1c352b2edf113581fa17ab6d9fc5682f52",
        "12d52be1e90dd77f67534f7522f4f45cd41df5db53d5b4e34e294ec9f40e05b1",
    ),
    "scenarios/resurrection.json": (
        "81f8d0af71b47a5b5943aebdf81ea290f38dd93f83ae094a5d4b91a976b098eb",
        "d32579323b56b0c8d673b17ed48545e382d8c6c78493256c1ac8d79a56b559b5",
        "15a8afd5d8f2dc816e8cba15b4633758fb47d3970377915da2593624e03cfd43",
    ),
    "scenarios/small.json": (
        "b3bb55c788c36a2fec9a0fc86244367852f77e9db2fb2119c56dc22b3e1e38a6",
        "fc0fe552039270c7576a55bfd07614dc26a7679b11c4a0ad64156ca264f89d76",
        "095dbb9e52aebd87a1fee275b7b7b074437efd1a2d4c0648401bd79482da8824",
    ),
    "bench/scenarios/live_churn.json": (
        "6f5dd8800168d58c8e78f704eab21069a7bfd97d44ded6d269c48f9cb705a789",
        "bfe3c93176e259000da51d45b6eef7ee975254eeb85851fa8d9a8df2407cb702",
        "b08fa4ff02208cfb1c433dfa2cfb62029815920cb6036a7efa638604807e2683",
    ),
    "bench/scenarios/paper_default.json": (
        "fc174b3ec19d363fe3a0508333d62caf8d49fc86be16bfefc4285369f023a442",
        "45885d17f717d623bca49aa806dcc5637c91c7bc0799c08f5eae60913b4ef402",
        "3a08f9cc9f0d0c2240712d31c7c350daf1fdebe9912fa04c7585d2ed2d07838f",
    ),
    "bench/scenarios/reshape_queue.json": (
        "bdc505e58bf57b51d0bcdb6eef5bd429836c8eca0b8340941ca617f42f84c38e",
        "8f09df43f0eaa78c156fcc9b382ea5201b2eec036242e206afb880ee80e685d0",
        "b5869963dde6708ba61460d8038408b5a029b6bb38ec3f13ea610785c9f3ab3e",
    ),
}


def test_every_fast_shipped_input_is_pinned():
    shipped = [*ROOT.glob("scenarios/*.json"), *ROOT.glob("bench/scenarios/*.json")]
    names = {p.relative_to(ROOT).as_posix() for p in shipped}
    assert names - {"scenarios/default.json"} == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_pinned_digests(name, tmp_path):
    run_scenario(load_file(ROOT / name), seed=1, out_dir=tmp_path)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ARTIFACTS)
    assert dict(zip(ARTIFACTS, got)) == dict(zip(ARTIFACTS, GOLDEN[name]))
