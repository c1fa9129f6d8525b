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
        "13134051322042269fc8cdeaadec0928a31db261487d921b6fb58a796469c607",
        "b183b12f1a66a4e0af2fcb89c70caae57a5fc2297e5df458fc828dbedfdb6533",
        "1d753c39251d590f9b7e7ee01532fa562e69ad3759662eb1f9601da7023984bf",
    ),
    "scenarios/mapping_bug.json": (
        "a3b08e4f80fbe6841fc8afaf49aac3f46a18db2a324b27658b72b73157829517",
        "804b4c83de5486da81061bebb191e3b4f6753982e7f3255d5df91ca03e3cdfa6",
        "4ffa4e1dcf909ea5a5c7fc8439a17d069f34926c823d9e5616c4083dfb9ebe2c",
    ),
    "scenarios/queue_bootstrap.json": (
        "a7aafe7730371ea5b7ef43873c5d656d77511acc524b3d375b923b67203b09f2",
        "da89c10804c7f6fc18a39e860d8754073160f71cc4e4c864b33904607213ee4d",
        "ccb787d1bce32ec9dbc4a4dc1df4bd029eb0ad5e09564ba707915ee8dd689ce4",
    ),
    "scenarios/ramp_pair_drained.json": (
        "3a02fbf713277d5d1fd5788a19c336fb3b78a5ab3875fb61a86f367db8e98bb8",
        "e62d4bfac5916f76e0a25a06da0b5742f8af09185840f1a38a48bd04c8e06f5d",
        "b9faef087055661c9da3a3b8de11e4ac059367f634f4461203e6d12210e14eaf",
    ),
    "scenarios/ramp_pair_forced.json": (
        "ae6b72090595ede293ea8b51ccf7985a344a16606f9f06ce034c4eba1930c546",
        "fbb9b95b7d382f52cdbf9076348da833c5fe56e9779e63be66c9bfb7aa299516",
        "af1976cc09680ae7fd0c139cdcd2a076e7b02b6006c9e529de7544c529254641",
    ),
    "scenarios/reshape.json": (
        "5323ee87eec50826a0eb755d29f980072b95dbdf99fe1b3609de06e8874dfc78",
        "63af2ede8c93ef5bc5f6cf945d327e68b8fa279427d6f66c7e9280592d0d86de",
        "455e2e33ddd76d1a110e6ece7038db43b3dd43619e91e75082d2ff6d85ffaa0c",
    ),
    "scenarios/resurrection.json": (
        "f970db1d5f380b85abbb73a2728679dcba11e08ee0e6cb1000933c74cbf01091",
        "f7f5ee3e5b0a4d091bd2723be6b755aaf7f2ef5f36a46c8faeace8cccfbb7a25",
        "695327c5f55f6e9739e929908592674bd48a0cf5c0a3ca68fb9b1dc38c065f6c",
    ),
    "scenarios/small.json": (
        "a81ae94cca8736b119a7a2e48214310098dd756e74b9d1b6f18b812cccd5836b",
        "b4aac8a622c5624398d258b03777a06cd6df218238a67c0fa2b12dae6739fc70",
        "233e0336c488a20bd1ac40604f4660091be9374c67a4e4e32767dd5de24735f2",
    ),
    "bench/scenarios/live_churn.json": (
        "e249dc77dcc6d185414244b25428ea87c1618406c903543fa0540f960d722891",
        "e5bdcd1113738fa580fe16d6378fadbd83580ffea2f002b534093199d0ae2750",
        "d41b5eda3702cf99a699de6cf38479e5fa3877a1eb3459377381e832a8633a29",
    ),
    "bench/scenarios/paper_default.json": (
        "0571ec3cca1d1b225e36c817be88f70af48a7eda2f1901f4dc7860c05f1f66f5",
        "d4a2c4ab85d36acca954ca20e0195f60662d8e8396261eefdd3400f9d2a2e817",
        "0091f02d356123f5e8e739233110cd397af3a9cf466b0057b94bc69032e650cd",
    ),
    "bench/scenarios/reshape_queue.json": (
        "c623bd395f28441c5d110a467ec4c14c7886b106f97b374df0fb6e61438592ed",
        "16063b588f7098565f6a00545f555eeede7d0a02bd81254b81300e05ca515c6e",
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
