"""The tracked outputs, pinned byte for byte: the `run` CSV of each
`perfbench/configs` file at seed bases 0 and 7, the seed-0 game
transcript (`Transcript.to_json`, every round's record) of each, the
`verify --suite all` JSON, and the `run` CSV of a real-valued game (a non-binary `json`
class under the absolute loss, with real labels), where sums of
non-half-integer terms make the digest depend on rounding.  A change that moves any of them (a different
amount of randomness drawn, a new column, a reordered sum) must re-pin
the digest here and say why."""

import hashlib
import json
from pathlib import Path

import pytest

from smoothlab.cli import EXIT_OK, main
from smoothlab.harness import ExperimentConfig, run_game

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
TRANSCRIPT_SHA256 = {
    "ftpl-erm-alg2": "37b9ed2244efee3a32ec3cd47f0f6017b855f343abd619f47f0fe0c98bd4669d",
    "ftpl-erm-ftl": "a66a946fd6b2a74f0dbff74417acf8717b36a9d9e68415e53dfd44ff102fb647",
    "hint-mixed-alg1": "3d1864674f5c31e59a8fce11ec835c3c2440fa2273a5fcaba54bb5b3d542ac3b",
    "hint-mixed-alg3": "d0445202cb3202eefd5c71549b36dd2269c05840ae28af794e8bd60f81f51721",
}
VERIFY_SHA256 = "79110cb68e75ae142d74e52b01f204c15807222899abc72a301fc9c0ee5f88c1"

# six real-valued hypotheses over eight instances
REAL_CLASS = [
    [-0.498351, 0.893506, -0.621359, -0.641417, -0.300222, -0.538918, 0.340891, -0.769841],
    [0.792619, 0.716261, -0.994346, 0.082932, -0.786297, -0.48409, -0.166208, -0.092768],
    [-0.063707, 0.855033, -0.482458, -0.62422, 0.341021, 0.893237, 0.845622, 0.7605],
    [-0.871289, 0.873392, 0.298481, 0.743112, -0.183803, -0.56122, 0.58594, 0.323269],
    [0.55768, -0.597311, -0.731297, 0.52725, -0.959543, 0.891201, -0.729824, 0.200221],
    [-0.161986, -0.35221, -0.659507, 0.560766, 0.829049, 0.457743, 0.20057, 0.422908],
]
REAL_RUN_SHA256 = {
    "alg3": "46fcddc508067f16464e819ba7d712d8e42014c3cd5d79861ac69ee261867fa7",
    "ftl": "741500eb30c7a399c8c3e75c93b6e4491c5e44dc147599141e0130ed0b799815",
    # Hedge's weights read the session's history objective
    "hedge": "0f3262972eab52158129db31c4b1c0197d49fea77a00f1f9755858eacc08bd9d",
}


def real_valued_config(learner: str) -> dict:
    """T=48 against a realizable-smooth adversary whose labels agree with
    the real-valued h* w.p. 0.7 and are -h* otherwise."""
    doc = {"domain_size": 8, "hypotheses": REAL_CLASS, "declared_dim": 2,
           "binary": False}
    config = {"schema_version": 1, "experiment_id": f"real-{learner}",
              "learner": learner, "adversary": "realizable_smooth",
              "class": {"kind": "json", "json": json.dumps(doc)},
              "loss": "absolute", "T": 48, "sigma": 0.5, "d": 2,
              "delta": 0.2, "seeds": [0, 1]}
    if learner == "alg3":
        config["hints"] = {"kind": "cyclic", "K": 2}
    return config


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_tracked_config_is_pinned():
    assert {p.stem for p in CONFIGS.glob("*.json")} == {name for name, _ in RUN_SHA256}
    assert {p.stem for p in CONFIGS.glob("*.json")} == set(TRANSCRIPT_SHA256)


@pytest.mark.parametrize("name, seed_base", sorted(RUN_SHA256))
def test_run_csv_is_pinned(tmp_path, monkeypatch, name, seed_base):
    monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
    out = tmp_path / f"{name}.csv"
    assert main(["run", str(CONFIGS / f"{name}.json"), "--seed-base", str(seed_base),
                 "--out", str(out)]) == EXIT_OK
    assert sha256(out) == RUN_SHA256[name, seed_base]


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_SHA256))
def test_transcript_json_is_pinned(name):
    config = ExperimentConfig.from_json((CONFIGS / f"{name}.json").read_text())
    digest = hashlib.sha256(run_game(config, 0).to_json().encode()).hexdigest()
    assert digest == TRANSCRIPT_SHA256[name]


def test_verify_suite_json_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--out", str(out)]) == EXIT_OK
    assert sha256(out) == VERIFY_SHA256


@pytest.mark.parametrize("learner", sorted(REAL_RUN_SHA256))
def test_real_valued_run_csv_is_pinned(tmp_path, monkeypatch, learner):
    monkeypatch.delenv("SMOOTHLAB_OUT", raising=False)
    config, out = tmp_path / "config.json", tmp_path / "run.csv"
    config.write_text(json.dumps(real_valued_config(learner)))
    assert main(["run", str(config), "--out", str(out)]) == EXIT_OK
    assert sha256(out) == REAL_RUN_SHA256[learner]
