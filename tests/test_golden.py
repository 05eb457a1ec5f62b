"""Golden bytes: fixed-seed CLI runs must reproduce pinned output digests.

A change that moves a single bit of a checkpoint, a loss row or a
report fails here; a change meant to move bits updates the digests and
says so.

Pretraining runs use power-of-two batch lengths only, where dividing a
gradient sum by the batch length and multiplying it by the reciprocal
agree.  The fine-tuning runs have batches of 9 and 3, which pin the
division.  The gradient check's printed report is pinned too, so a
change to any layer's arithmetic or to the check's draws shows here.

The digests hold for one numpy and BLAS build on one CPU kernel family,
so a failing digest names the OpenBLAS core it ran under.
"""

import contextlib
import ctypes
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from paintnet import autoencoder, layers
from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract
from paintnet.classifier import CNNConfig, CNNModel, build_cnn
from paintnet.cli import main
from paintnet.data.rng import Rng
from paintnet.persist import load_checkpoint

from conftest import write_dataset

PRETRAIN = {
    # tied: (cae.dpnt, pretrain_loss.csv)
    True: ("7a2819b41abb30baaa73bdc458c766301a66533e419288e93f75527b565ef305",
           "16a0f0cf6111b68ca72c1037cbcec5eece6934715b46bc18055389be94c66a86"),
    False: ("d68842345e6b215aedabdc7945e7b51eba95f69130f746d66589201f671fbd30",
            "18a27adc8a8ed4c1e1d98e54b3b06801f7f735e4ae5671c3d8fc0749a10cb085"),
}

# The dense layers' W step is one matrix product per column block, which
# sums a batch's rank-1 terms in the BLAS's order with fused multiply-adds;
# that moved every classifier checkpoint below (cnn.dpnt and the fold
# checkpoints), while the loss CSVs and the crossval report kept their bytes
FINETUNE = {
    # freeze_encoder: (cnn.dpnt, finetune_loss.csv)
    False: ("7b31e76394d6aada2b7522f277d34bd5624728f4ea80f894f526c50e9dea766d",
            "181f8594fc037d43fd3bed99889f991284270dddf40cfdd3ac3380361382048b"),
    True: ("0296e23dc06edf489a5354f46c364e44c1e71b412f1282a42871049448339473",
           "9c692499e2a942efb97401619677b44dcbb513a1bc41950a0e6a0a6059e9acfb"),
}

CROSSVAL = {
    "fold_00.dpnt": "881446e1684cb66ddd67214f036b6f712940f1e0f7b6174c30e91399c1961ea9",
    "fold_01.dpnt": "27f980aa1896636ba3c72180ee0901265b944b416a87aad7f260ff631a9f3878",
    "fold_02.dpnt": "f09a0dd1e98572b8b442890c0ca47d4948e265642ba29045ed139544563e9fbc",
    "crossval_report.csv": "6c35aa122cd6b67e1965ae795977fb26ba56d79ee1c38222571fffa56ae1dfc6",
}

# CNNModel.forward probabilities of a 16x24 classifier on a seeded battery:
# the forward-only path evaluate runs, through pools of 16x24 and 8x12 maps
FORWARD_16x24 = "437e84999d12cc825af08e0f4a33dd7883cbcb7d149168ba34b23f9c680ec685"

# stdout of `paintnet gradcheck --scale small`
GRADCHECK_SMALL = "f28b6249980373d6fac2abc93c1c606637482641b3030fce918b1efeb792ec2a"

# the OpenBLAS core (blas_core()) every digest above was recorded under
RECORDED_CORE = "SkylakeX"


def blas_core() -> str:
    """The core numpy's bundled OpenBLAS picked (SkylakeX, Haswell, ...), or "unknown".

    Read through ctypes from the library numpy ships in numpy.libs; a
    numpy built another way reads as unknown.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def _moved() -> str:
    """A digest failure's message: the build and kernel family it ran under."""
    return (f"pinned digest moved under numpy {np.__version__}, OpenBLAS core {blas_core()} "
            f"(recorded under {RECORDED_CORE})")


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
    assert (_sha(ckpt / "cae.dpnt"), _sha(reports / "pretrain_loss.csv")) == PRETRAIN[tied], \
        _moved()


@pytest.mark.parametrize("freeze", [False, True])
def test_finetune_bytes_non_power_of_two_batches(dataset, freeze):
    # 12 samples in batches of 9 then 3, starting from a pretrained encoder
    root, manifest = dataset
    ckpt, _ = _run(root, manifest, f"ft-{freeze}", "pretrain")
    _, reports = _run(root, manifest, f"ft-{freeze}/run", "finetune", batch_size=9,
                      freeze_encoder=freeze, checkpoint_dir=str(ckpt))
    assert (_sha(ckpt / "cnn.dpnt"), _sha(reports / "finetune_loss.csv")) == FINETUNE[freeze], \
        _moved()
    model = load_checkpoint(ckpt / "cnn.dpnt")
    rng = Rng(25)
    for _ in range(4):
        x = rng.uniform_array(model.input_shape, 0.0, 1.0)
        assert model.forward(x, keep=False)[0].tobytes() == model.forward(x)[0].tobytes()


def test_crossval_bytes(dataset):
    ckpt, reports = _run(*dataset, "cv", "crossval")
    got = {name: _sha((reports if name.endswith(".csv") else ckpt) / name) for name in CROSSVAL}
    assert got == CROSSVAL, _moved()


def test_gradcheck_small_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gradcheck", "--scale", "small"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GRADCHECK_SMALL, _moved()


def test_forward_probability_bytes_non_square_pools():
    # the training forward and the inference pass predict runs give the same bytes
    cae = build_cae(CAEConfig(input_size=(16, 24), conv_channels=(4, 6), kernel=3), seed=12)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=13)
    rng = Rng(14)
    images = [rng.uniform_array((3, 16, 24), 0.0, 1.0) for _ in range(8)]
    for keep in (True, False):
        probs = [model.forward(x, keep=keep)[0] for x in images]
        assert hashlib.sha256(np.concatenate(probs).tobytes()).hexdigest() == FORWARD_16x24, \
            _moved()


# (input_size, conv_channels) of the desk and mid profiles, with the bench's head
PROFILES = {"desk": ((64, 64), (8, 16)), "mid": ((128, 128), (32, 64))}


@pytest.fixture(scope="module", params=sorted(PROFILES))
def profile_cnn(request):
    size, channels = PROFILES[request.param]
    cae = build_cae(CAEConfig(input_size=size, conv_channels=channels), seed=21)
    return build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(64, 32)), seed=22)


def _planted_inputs(shape):
    """Seeded images, then a NaN pixel, +inf and -inf pixels, and an all-zero image."""
    rng = Rng(23)
    images = [rng.uniform_array(shape, 0.0, 1.0) for _ in range(4)]
    images[1][0, 5, 7] = np.nan
    images[2][1, 3, 3], images[2][2, 9, 10] = np.inf, -np.inf
    return images + [np.zeros(shape)]


def _planted_biases(model):
    """(name, {stage: bias}): as built (zero), drawn, -0.0 on every conv, and a non-finite enc1.b.

    In the last, pooling the raw correlation first with b = +inf over a
    window holding -inf would give inf where the exact order gives NaN.
    """
    c1, c2 = model.layer("enc1").out_channels, model.layer("enc2").out_channels
    rng = Rng(24)
    yield "seeded", {}
    yield "drawn", {"enc1": rng.uniform_array((c1,), -0.5, 0.5),
                    "enc2": rng.uniform_array((c2,), -0.5, 0.5)}
    yield "negative zero", {"enc1": np.full(c1, -0.0), "enc2": np.full(c2, -0.0)}
    yield "non-finite", {"enc1": np.where(np.arange(c1) % 2, np.inf, -np.inf)}


@pytest.mark.parametrize("freeze", [False, True])
def test_inference_probabilities_match_the_training_forward(profile_cnn, freeze, monkeypatch):
    # predict's pass, forward(x, keep=False), keeps nothing and computes no
    # switches, yet its probabilities are the training forward's, byte for byte
    model = CNNModel(CNNConfig(fc_sizes=(64, 32), freeze_encoder=freeze),
                     profile_cnn.input_shape, profile_cnn.stages)
    # every stage runs through the names the bench's tracer patches; each
    # call's cache is recorded
    calls = []
    for owner, attr in ((autoencoder, "maxpool2x2_forward"), (layers.Conv2DLayer, "forward"),
                        (layers.DenseLayer, "forward")):
        def recorded(*args, _fn=getattr(owner, attr), _name=attr, **kwargs):
            out, cache = _fn(*args, **kwargs)
            calls.append((_name, cache))
            return out, cache
        monkeypatch.setattr(owner, attr, recorded)
    for name, biases in _planted_biases(model):
        saved = {stage: model.layer(stage).bias.copy() for stage in biases}
        for stage, b in biases.items():
            model.layer(stage).bias[...] = b
        try:
            for x in _planted_inputs(model.input_shape):
                with np.errstate(invalid="ignore", over="ignore"):
                    want, caches = model.forward(x)
                    assert caches
                    calls.clear()
                    got, caches = model.forward(x, keep=False)
                assert caches == {}
                assert [n for n, _ in calls].count("forward") == 5, name
                assert "maxpool2x2_forward" in dict(calls), name
                assert all(cache is None for _, cache in calls), name
                assert got.tobytes() == want.tobytes(), name
        finally:
            for stage, b in saved.items():
                model.layer(stage).bias[...] = b
