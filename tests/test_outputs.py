"""The tracked outputs, pinned byte for byte: the `run` CSV of each
`perfbench/configs` file at seed bases 0 and 7, and the
`verify --suite all` JSON.  A change that moves any of them (a different
amount of randomness drawn, a new column, a reordered sum) must re-pin
the digest here and say why."""

import hashlib
from pathlib import Path

import pytest

from smoothlab.cli import EXIT_OK, main

CONFIGS = Path(__file__).parents[1] / "perfbench" / "configs"

RUN_SHA256 = {
    ("ftpl-erm-alg2", 0): "dd33a4428203e27cbe26c2270f6572d8c626916c7260fd5ba5fa37d87af785a5",
    ("ftpl-erm-alg2", 7): "2a50ea299cba27860b05fc67aaf96bce3eb5f0906370a6b9a15c23f0b2b9c2b3",
    ("ftpl-erm-ftl", 0): "09f61502b363eeabd28b0bd9be85297ff4570e70f91e8420a5c16fed83f44e93",
    ("ftpl-erm-ftl", 7): "0eac3499eb35b0b2acb0c699b08ad171c4d41161f632ad4ad7279d679984be64",
    ("hint-mixed-alg1", 0): "5b67d4ac041bee6bcaa9496efa9987a688fe34278145d669345e22c05444f872",
    ("hint-mixed-alg1", 7): "ebf881d07a0d7426aa136b0221bbaada79a3b78910153420d7d53cc0c9aa4ef0",
    ("hint-mixed-alg3", 0): "60b313e1270c0e30e0c9bc29374e227991a682c314930ed435162e216c59c173",
    ("hint-mixed-alg3", 7): "6626e9fb9d3574a7b72292f42ccf16f9917408bf6b10dc5552d59e41d8c5cfca",
}
VERIFY_SHA256 = "c09da0386cd518ff9b8219efde3c53ee99ed891b4e63e1539ba55c806c7a6d77"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_tracked_config_is_pinned():
    assert {p.stem for p in CONFIGS.glob("*.json")} == {name for name, _ in RUN_SHA256}


@pytest.mark.parametrize("name, seed_base", sorted(RUN_SHA256))
def test_run_csv_is_pinned(tmp_path, monkeypatch, name, seed_base):
    monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
    out = tmp_path / f"{name}.csv"
    assert main(["run", str(CONFIGS / f"{name}.json"), "--seed-base", str(seed_base),
                 "--out", str(out)]) == EXIT_OK
    assert sha256(out) == RUN_SHA256[name, seed_base]


def test_verify_suite_json_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == EXIT_OK
    assert sha256(out) == VERIFY_SHA256
