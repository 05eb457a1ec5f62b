"""Memory: no temporary the size of fc1's weights on the classifier path,
and no page faults per sample once the CLI's heap is warm.

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
from pathlib import Path

import numpy as np
import pytest

import paintnet
import paintnet.cli as cli
from paintnet import layers
from paintnet.autoencoder import CAEConfig, build_cae, corrupt, encoder_extract, stage_parameters
from paintnet.classifier import CNNConfig, build_cnn, finetune
from paintnet.data.rng import Rng
from paintnet.optim import SGDConfig
from paintnet.persist import load_checkpoint, save_checkpoint

from conftest import write_dataset
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
