"""Peak memory of the classifier path: no temporary the size of fc1's weights.

tracemalloc sees numpy's array allocations, and only those made after it
starts, so a peak taken around one call is the memory that call needs
beyond the model built before it.
"""

import tracemalloc

import numpy as np
import pytest

from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract, stage_parameters
from paintnet.classifier import CNNConfig, build_cnn, finetune
from paintnet.data.rng import Rng
from paintnet.optim import SGDConfig
from paintnet.persist import load_checkpoint, save_checkpoint


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
