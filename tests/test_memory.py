"""Memory: no temporary the size of fc1's weights on the classifier path,
nor one that grows with its width in the SGD step,
no page faults per sample once the CLI's heap is warm, and a corpus held
as its 8-bit pixels, each float64 tensor made only when a sample reads it.

tracemalloc sees numpy's array allocations, and only those made after it
starts, so a peak taken around one call is the memory that call needs
beyond the model built before it.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

import paintnet
import paintnet.cli as cli
from paintnet import layers, optim
from paintnet.autoencoder import (CAEConfig, build_cae, corrupt, encoder_extract, pretrain,
                                  stage_parameters)
from paintnet.classifier import CNNConfig, build_cnn, finetune
from paintnet.data.image import decode_ppm, resample_bilinear, to_tensor
from paintnet.data.manifest import kfold_split, load_manifest
from paintnet.data.rng import Rng
from paintnet.optim import SGDConfig, sgd_step
from paintnet.persist import load_checkpoint, save_checkpoint

from conftest import encode_ppm, random_image, write_dataset
from test_golden import GRADCHECK_SMALL


@pytest.fixture(scope="module")
def wide_cnn():
    """A classifier whose fc1 is 128 x 8192, 8 MiB of weights."""
    cae = build_cae(CAEConfig(input_size=(64, 64), conv_channels=(2, 32), kernel=3), seed=1)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(128, 4)), seed=2)
    assert model.layer("fc1").weights.nbytes == 8 << 20
    return model


def _model_bytes(model) -> int:
    return sum(p.nbytes for p in stage_parameters(model.stages).values())


def _peak(call):
    """(call's result, the most memory traced at once while it ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finetune_holds_no_weight_sized_gradient(wide_cnn):
    rng = Rng(3)
    samples = [(rng.uniform_array(wide_cnn.input_shape, 0.0, 1.0), i % 3) for i in range(4)]
    _, peak = _peak(lambda: finetune(wide_cnn, samples, SGDConfig(batch_size=4), 1, seed=4))
    assert peak < wide_cnn.layer("fc1").weights.nbytes / 2


def test_save_writes_from_the_model_buffers(wide_cnn, tmp_path):
    _, peak = _peak(lambda: save_checkpoint(wide_cnn, tmp_path / "cnn.dpnt"))
    assert peak < 0.1 * _model_bytes(wide_cnn)


def test_load_reads_into_the_model_buffers(wide_cnn, tmp_path):
    save_checkpoint(wide_cnn, tmp_path / "cnn.dpnt")
    model, peak = _peak(lambda: load_checkpoint(tmp_path / "cnn.dpnt"))
    assert _model_bytes(model) == _model_bytes(wide_cnn)
    assert peak - _model_bytes(model) < 0.1 * _model_bytes(model)
    for k, p in stage_parameters(wide_cnn.stages).items():
        assert np.array_equal(stage_parameters(model.stages)[k], p)


@pytest.fixture(scope="module")
def mid_cae():
    """The mid profile's autoencoder: 128x128, channels (32, 64), 5x5 kernels."""
    return build_cae(CAEConfig(input_size=(128, 128), conv_channels=(32, 64), kernel=5), seed=1)


@pytest.mark.parametrize("freeze_encoder", [False, True])
def test_backward_consumes_every_cache(mid_cae, freeze_encoder):
    # each stage's cache is dropped once read, a frozen stage's up front
    cnn = build_cnn(encoder_extract(mid_cae), CNNConfig(freeze_encoder=freeze_encoder), seed=2)
    x = Rng(3).uniform_array(mid_cae.input_shape, 0.0, 1.0)
    for model, target in ((mid_cae, x), (cnn, 1)):
        output, caches = model.forward(x)
        assert caches
        model.backward(caches, model.loss(output, target)[1])
        assert caches == {}


def test_mid_pretrain_sample_frees_caches_during_backward(mid_cae):
    # one mid-profile pretrain sample after a warm-up: 27.13 MiB when every
    # forward cache lived until the whole backward pass returned, 23.10 MiB
    # with each conv and deconv cache dropped once read
    x = Rng(3).uniform_array(mid_cae.input_shape, 0.0, 1.0)
    noisy = corrupt(x, 0.2, Rng(4))
    mid_cae.loss_and_param_grads(noisy, x)
    _, peak = _peak(lambda: mid_cae.loss_and_param_grads(noisy, x))
    assert peak < 25 << 20, peak / 2 ** 20


# bytes tracemalloc may see beyond the arrays a docstring counts: Python
# objects, array headers and views
_SLACK = 64 << 10


def test_winograd_calls_stay_within_their_stated_scratch(mid_cae):
    # the mid profile's conv2, 32 to 64 channels at 64x64, on the scratch
    # _winograd_blocks, _winograd_corr2d and _winograd_weight_grad state
    c, o, side = 32, 64, 64
    weights = mid_cae.layer("enc2").weights
    rng = Rng(5)
    x = rng.uniform_array((c, side, side), -1.0, 1.0)
    gz = rng.uniform_array((o, side, side), -1.0, 1.0)
    _, flat = layers._corr2d(x, weights)
    row = (128 * c + 96 * o) * (side // 4)
    out, peak = _peak(lambda: layers._winograd_corr2d(flat, weights, side, side))
    assert out.shape == (o, side, side)
    assert peak <= 8 * (o * side * side + 64 * o * c + max(row, 65 * o * c)) + _SLACK, peak
    gw, peak = _peak(lambda: layers._winograd_weight_grad(flat, gz))
    assert gw.shape == (o, c, 5, 5)
    assert peak <= 8 * (25 * o * c + 128 * o * c + row + 25 * o * c) + _SLACK, peak


@pytest.mark.parametrize("width", [1 << 16, 1 << 18])
def test_rank1_step_stays_within_its_block_budget(width):
    # 16 factors on a (16, width) W, at two widths 4x apart: the step's
    # scratch is one column block, the x slices and their product, so it
    # stays within optim.STEP_BLOCK_BYTES however wide a row of W is
    rng = Rng(7)
    weights = np.zeros((16, width))
    factors = [layers.Rank1(rng.uniform_array((16,), -1.0, 1.0),
                            rng.uniform_array((width,), -1.0, 1.0)) for _ in range(16)]
    _, peak = _peak(lambda: sgd_step({"W": weights}, {"W": factors}, 0.01))
    assert peak <= optim.STEP_BLOCK_BYTES + _SLACK, peak


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError):
        return False
    return True


# runs the CLI's main in a fresh process and prints that process's minor faults
_FAULTS = """
import resource, sys
from paintnet.cli import main
assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_pretrain_samples_fault_in_no_new_pages(tmp_path):
    # 8 images at the desk profile: 2 more epochs are 16 more samples, whose
    # working set the first epoch's heap already holds
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=64, seed=7,
                             labels=("alpha", "beta"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(paintnet.__file__).parent.parent))
    faults = {}
    for epochs in (1, 3):
        out = tmp_path / f"e{epochs}"
        out.mkdir()
        (out / "run.json").write_text(json.dumps({
            "input_size": [64, 64], "conv_channels": [8, 16], "kernel": 5, "batch_size": 8,
            "epochs_pretrain": epochs, "seed": 3, "data_root": str(tmp_path / "data"),
            "pretrain_manifest": str(manifest), "checkpoint_dir": str(out / "ckpt"),
            "report_dir": str(out / "reports")}))
        proc = subprocess.run([sys.executable, "-c", _FAULTS, "pretrain", "--config",
                               str(out / "run.json")],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=300)
        faults[epochs] = int(proc.stdout.split()[-1])
    assert (faults[3] - faults[1]) / 16 < 100, faults


def test_cli_runs_where_libc_has_no_mallopt(monkeypatch):
    # a libc without mallopt, as on macOS: the policy is skipped, nothing else changes
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gradcheck", "--scale", "small"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == GRADCHECK_SMALL


# ---------------------------------------------------------------------------
# the CLI's corpus: 8-bit pixels held, float64 tensors made when read
# ---------------------------------------------------------------------------

def _write_ppms(root: Path, images, trailing: bytes = b"") -> Path:
    """images as PPM files under root, labelled by class i mod 3, with a manifest."""
    lines = ["path,label"]
    root.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        (root / f"{i:03d}.ppm").write_bytes(encode_ppm(img) + trailing)
        lines.append(f"{i:03d}.ppm,c{i % 3}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root / "manifest.csv"


def test_corpus_holds_one_byte_per_channel_sample(tmp_path):
    # 24 images at 128x128, the mid profile's input size: 1.2 MB as 8-bit
    # pixels, 9.4 MB as float64 tensors
    n, side = 24, 128
    rng = np.random.default_rng(11)
    _write_ppms(tmp_path, [random_image(rng, side, side) for _ in range(n)])
    manifest = load_manifest(tmp_path / "manifest.csv")
    corpus, peak = _peak(lambda: cli._load_samples(manifest, str(tmp_path), (side, side)))
    assert len(corpus) == n
    # slack: one file's bytes and its pixel copy in flight, and each held
    # image's Python objects (ImageRGB, array header, label)
    image_bytes = 3 * side * side
    assert peak <= n * image_bytes + 2 * image_bytes + n * 1024 + _SLACK, peak


def test_corpus_items_are_the_direct_conversion(tmp_path):
    # one image resampled (40x30 to 16x16), one already at the source size
    rng = np.random.default_rng(12)
    sources = [random_image(rng, 40, 30), random_image(rng, 16, 16)]
    _write_ppms(tmp_path, sources)
    corpus = cli._load_samples(load_manifest(tmp_path / "manifest.csv"), str(tmp_path), (16, 16))
    for i, img in enumerate(sources):
        want = to_tensor(resample_bilinear(decode_ppm(encode_ppm(img)), (16, 16)))
        x, label = corpus[i]
        assert x.dtype == np.float64 and x.shape == (3, 16, 16)
        assert x.tobytes() == want.tobytes()
        assert label == i
        x[...] = 0.0  # each read makes a fresh array
        assert corpus[i][0].tobytes() == want.tobytes()
    assert [label for _, label in corpus] == [0, 1]


def test_corpus_keeps_no_bytes_after_the_payload(tmp_path):
    # a 16x16 PPM followed by 1 MiB: decode_ppm's pixels are a view of the
    # whole file, which the loader must not hold
    _write_ppms(tmp_path, [random_image(np.random.default_rng(13), 16, 16)],
                trailing=bytes(1 << 20))
    manifest = load_manifest(tmp_path / "manifest.csv")
    tracemalloc.start()
    try:
        corpus = cli._load_samples(manifest, str(tmp_path), (16, 16))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert corpus.images[0].pixels.nbytes == 16 * 16 * 3
    assert held < _SLACK, held


def test_crossval_converts_only_the_fold_in_hand(tmp_path, monkeypatch):
    # every to_tensor call is logged with the phase running it: fold f's
    # fine-tuning may read only its training images, its scoring each of
    # its held-out images once, and loading reads none
    manifest_path = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=5)
    (tmp_path / "run.json").write_text(json.dumps({
        "input_size": [16, 16], "conv_channels": [2, 3], "fc_sizes": [8, 5], "kernel": 3,
        "batch_size": 4, "epochs_finetune": 2, "folds": 2, "seed": 7,
        "labeled_manifest": str(manifest_path), "data_root": str(tmp_path / "data"),
        "checkpoint_dir": str(tmp_path / "ckpt"), "report_dir": str(tmp_path / "reports")}))
    state, log, loaded = {"phase": None, "fold": -1}, [], []
    load, convert = cli._load_samples, cli.to_tensor

    def in_phase(name, fn):
        def run(*args, **kwargs):
            state["fold"] += name == "fit"
            state["phase"] = name
            try:
                return fn(*args, **kwargs)
            finally:
                state["phase"] = None
        return run

    monkeypatch.setattr(cli, "_load_samples", lambda *a: loaded.append(load(*a)) or loaded[-1])
    monkeypatch.setattr(cli, "to_tensor", lambda img: log.append(
        (state["phase"], state["fold"], img)) or convert(img))
    monkeypatch.setattr(cli, "finetune", in_phase("fit", cli.finetune))
    monkeypatch.setattr(cli, "evaluate", in_phase("score", cli.evaluate))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["crossval", "--config", str(tmp_path / "run.json")]) == 0

    index = {id(img): i for i, img in enumerate(loaded[0].images)}
    split = kfold_split(load_manifest(manifest_path), 2, 7)
    assert all(phase is not None for phase, _, _ in log)  # loading converted nothing
    for fold in range(split.k):
        fit = {index[id(img)] for phase, f, img in log if (phase, f) == ("fit", fold)}
        score = [index[id(img)] for phase, f, img in log if (phase, f) == ("score", fold)]
        assert fit == set(split.train_indices(fold))
        assert sorted(score) == sorted(split.folds[fold])


def test_pretrain_reads_each_sample_once():
    # a sequence that makes its arrays on each read, as the CLI's corpus does:
    # a pretrain sample reads its image once, for the corrupted input and the target
    class Counted(Sequence):
        def __init__(self, images):
            self.images, self.reads = images, [0] * len(images)

        def __len__(self):
            return len(self.images)

        def __getitem__(self, i):
            self.reads[i] += 1
            return self.images[i].copy()

    config = CAEConfig(input_size=(8, 8), conv_channels=(2, 3), kernel=3)
    rng = Rng(6)
    images = [rng.uniform_array((3, 8, 8), 0.0, 1.0) for _ in range(5)]
    reads = {}
    for epochs in (0, 2):
        seq = Counted(images)
        pretrain(build_cae(config, seed=1), seq, SGDConfig(batch_size=2), epochs, seed=2)
        reads[epochs] = seq.reads
    assert [b - a for a, b in zip(reads[0], reads[2])] == [2] * len(images)
