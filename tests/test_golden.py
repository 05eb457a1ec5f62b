"""Golden bytes: fixed-seed CLI runs must reproduce pinned output digests.

A change that moves a single bit of a checkpoint, a loss row or a
report fails here; a change meant to move bits updates the digests and
says so.

Pretraining runs use power-of-two batch lengths only, where dividing a
gradient sum by the batch length and multiplying it by the reciprocal
agree.  The fine-tuning runs have batches of 9 and 3, which pin the
division.
"""

import contextlib
import hashlib
import io
import json

import pytest

from paintnet.cli import main

from conftest import write_dataset

PRETRAIN = {
    # tied: (cae.dpnt, pretrain_loss.csv)
    True: ("572eac7e219e1be574e03a831d269072d7fcc9413e4b2f72268942199a26489d",
           "16a0f0cf6111b68ca72c1037cbcec5eece6934715b46bc18055389be94c66a86"),
    False: ("d0453edb43437414155bbe96a596d145b2c45e73375917ec1ebb389f6c596ff2",
            "18a27adc8a8ed4c1e1d98e54b3b06801f7f735e4ae5671c3d8fc0749a10cb085"),
}

FINETUNE = {
    # freeze_encoder: (cnn.dpnt, finetune_loss.csv)
    False: ("475cbeb036d8fd8cbb3655038ca64de84eb7e00a78ba0f6e49ac69733b743dd2",
            "181f8594fc037d43fd3bed99889f991284270dddf40cfdd3ac3380361382048b"),
    True: ("1951de669316145f699a503e35a9157c2e06c6f6fb09b302ad35c56614b6cc40",
           "9c692499e2a942efb97401619677b44dcbb513a1bc41950a0e6a0a6059e9acfb"),
}

CROSSVAL = {
    "fold_00.dpnt": "21e92aef1dbc6ebf509990d8f0e0941ec44d638c0c48ce305708d7ca900c1bf0",
    "fold_01.dpnt": "16a921f97d2a8643c4abea7b3cfb19bb019af0e7cf732ab7537fe48bcccad49b",
    "fold_02.dpnt": "bec01d22a7339a82da449ccdc97cf0d90f870dd98c2e3ee8f6d0aecaf28f49b1",
    "crossval_report.csv": "6c35aa122cd6b67e1965ae795977fb26ba56d79ee1c38222571fffa56ae1dfc6",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    manifest = write_dataset(root / "data", n_per_class=4, side=16, seed=31)
    return root, manifest


def _run(root, manifest, tag, command, **overrides):
    """Run one CLI command in a fresh directory; returns (checkpoints, reports)."""
    out = root / tag
    config = {
        "input_size": [8, 8], "conv_channels": [2, 3], "fc_sizes": [8, 5], "kernel": 3,
        "batch_size": 4, "epochs_pretrain": 2, "epochs_finetune": 2, "folds": 3,
        "lr0": 0.1, "seed": 5, "data_root": str(root / "data"),
        "pretrain_manifest": str(manifest), "labeled_manifest": str(manifest),
        "checkpoint_dir": str(out / "ckpt"), "report_dir": str(out / "reports"),
    }
    config.update(overrides)
    out.mkdir()
    (out / "run.json").write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(out / "run.json")]) == 0
    return out / "ckpt", out / "reports"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("tied", [True, False])
def test_pretrain_bytes(dataset, tied, threads):
    ckpt, reports = _run(*dataset, f"pre-{tied}-{threads}", "pretrain",
                         tied_decoder=tied, threads=threads)
    assert (_sha(ckpt / "cae.dpnt"), _sha(reports / "pretrain_loss.csv")) == PRETRAIN[tied]


@pytest.mark.parametrize("freeze", [False, True])
def test_finetune_bytes_non_power_of_two_batches(dataset, freeze):
    # 12 samples in batches of 9 then 3, starting from a pretrained encoder
    root, manifest = dataset
    ckpt, _ = _run(root, manifest, f"ft-{freeze}", "pretrain")
    _, reports = _run(root, manifest, f"ft-{freeze}/run", "finetune", batch_size=9,
                      freeze_encoder=freeze, checkpoint_dir=str(ckpt))
    assert (_sha(ckpt / "cnn.dpnt"), _sha(reports / "finetune_loss.csv")) == FINETUNE[freeze]


def test_crossval_bytes(dataset):
    ckpt, reports = _run(*dataset, "cv", "crossval")
    got = {name: _sha((reports if name.endswith(".csv") else ckpt) / name) for name in CROSSVAL}
    assert got == CROSSVAL
