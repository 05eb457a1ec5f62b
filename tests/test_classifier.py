"""Classifier head: wiring, freezing, fine-tuning, gradients."""

import numpy as np
import numpy.testing as npt
import pytest

from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract, shape_chain
from paintnet.checks import _stack
from paintnet.classifier import (
    CNNConfig,
    CNNModel,
    build_cnn,
    finetune,
    predict,
)
from paintnet.data.rng import Rng
from paintnet.errors import ConfigError, DataError, ShapeError
from paintnet.optim import SGDConfig, finite_difference_max_rel_error, lr_at_epoch


def small_encoder(seed: int = 11):
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=seed)
    return encoder_extract(cae)


def small_cnn(seed: int = 21, freeze: bool = False, n_classes: int = 3) -> CNNModel:
    cfg = CNNConfig(fc_sizes=(8, 5), n_classes=n_classes, freeze_encoder=freeze)
    return build_cnn(small_encoder(), cfg, seed=seed)


# ---------------------------------------------------------------------------
# config and construction
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = CNNConfig()
    assert cfg.fc_sizes == (400, 200)
    assert cfg.n_classes == 3
    assert not cfg.freeze_encoder


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        CNNConfig(n_classes=1)
    with pytest.raises(ConfigError):
        CNNConfig(fc_sizes=(0, 5))
    with pytest.raises(ConfigError):
        CNNConfig(fc_sizes=(5, 0))


def test_flat_features_matches_encoder_output():
    c, h, w = shape_chain(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)))[4]
    # 8x8 input, two 2x2 pools, 3 channels out
    assert (c, h, w) == (3, 2, 2)
    assert small_cnn().layer("fc1").in_size == c * h * w


def test_head_shapes():
    model = small_cnn()
    assert model.layer("fc1").weights.shape == (8, 3 * 2 * 2)
    assert model.layer("fc2").weights.shape == (5, 8)
    assert model.layer("out").weights.shape == (3, 5)


def test_build_deterministic():
    a = small_cnn(seed=77)
    b = small_cnn(seed=77)
    for k, v in a.named_parameters().items():
        npt.assert_array_equal(v, b.named_parameters()[k])


def test_build_seed_changes_head_only():
    a = small_cnn(seed=1)
    b = small_cnn(seed=2)
    npt.assert_array_equal(a.layer("enc1").weights, b.layer("enc1").weights)
    assert not np.array_equal(a.layer("fc1").weights, b.layer("fc1").weights)


def test_named_parameters_frozen_omits_encoder():
    keys = set(small_cnn(freeze=True).named_parameters())
    assert keys == {"fc1.W", "fc1.b", "fc2.W", "fc2.b", "out.W", "out.b"}


def test_named_parameters_unfrozen_includes_encoder():
    keys = set(small_cnn(freeze=False).named_parameters())
    assert {"enc1.W", "enc1.b", "enc2.W", "enc2.b"} <= keys


# ---------------------------------------------------------------------------
# forward / predict
# ---------------------------------------------------------------------------

def test_forward_is_a_distribution():
    model = small_cnn()
    x = Rng(3).uniform_array((3, 8, 8), 0.0, 1.0)
    probs, _ = model.forward(x)
    assert probs.shape == (3,)
    assert np.all(probs > 0)
    npt.assert_allclose(probs.sum(), 1.0, rtol=1e-12)


def test_forward_rejects_wrong_shape():
    model = small_cnn()
    with pytest.raises(ShapeError):
        model.forward(np.zeros((3, 8, 9)))
    with pytest.raises(ShapeError):
        model.forward(np.zeros((1, 8, 8)))


def test_predict_returns_argmax():
    model = small_cnn()
    x = Rng(4).uniform_array((3, 8, 8), 0.0, 1.0)
    probs, _ = model.forward(x)
    assert predict(model, x) == int(np.argmax(probs))


def test_predict_tie_goes_to_lowest_index():
    model = small_cnn()
    # zeroed output layer makes every logit 0, so probs are uniform
    model.layer("out").weights[:] = 0.0
    model.layer("out").bias[:] = 0.0
    x = Rng(5).uniform_array((3, 8, 8), 0.0, 1.0)
    probs, _ = model.forward(x)
    npt.assert_allclose(probs, 1.0 / 3.0, rtol=1e-12)
    assert predict(model, x) == 0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradients_unfrozen():
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=5)
    model = build_cnn(encoder_extract(cae),
                      CNNConfig(fc_sizes=(8, 5), n_classes=3), seed=6)
    x = Rng(8).uniform_array((3, 8, 8), 0.0, 1.0)
    assert finite_difference_max_rel_error(*_stack(model, x, 1), 1e-6) < 1e-5


def test_gradients_frozen():
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=5)
    model = build_cnn(encoder_extract(cae),
                      CNNConfig(fc_sizes=(8, 5), n_classes=3, freeze_encoder=True),
                      seed=6)
    x = Rng(8).uniform_array((3, 8, 8), 0.0, 1.0)
    assert finite_difference_max_rel_error(*_stack(model, x, 1), 1e-6) < 1e-5
    _, _, grads = model.loss_and_param_grads(x, 1)
    assert not any(k.startswith("enc") for k in grads)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

def toy_samples(n_per_class: int = 4, seed: int = 9):
    """Images whose dominant channel encodes the class."""
    rng = Rng(seed)
    samples = []
    for cls in range(3):
        for _ in range(n_per_class):
            x = rng.uniform_array((3, 8, 8), 0.0, 0.2)
            x[cls] += 0.7
            samples.append((x, cls))
    return samples


def test_finetune_rejects_empty():
    with pytest.raises(DataError):
        finetune(small_cnn(), [], SGDConfig(), epochs=1, seed=0)


def test_finetune_rejects_out_of_range_label():
    samples = [(Rng(1).uniform_array((3, 8, 8), 0.0, 1.0), 3)]
    with pytest.raises(DataError):
        finetune(small_cnn(), samples, SGDConfig(), epochs=1, seed=0)


def test_finetune_log_schedule():
    opt = SGDConfig(lr0=0.05, decay=0.9, batch_size=4)
    _, log = finetune(small_cnn(), toy_samples(), opt, epochs=4, seed=0)
    assert len(log) == 4
    for epoch, lr, loss, acc in log:
        assert lr == lr_at_epoch(opt, epoch)
        assert loss > 0.0
        assert 0.0 <= acc <= 1.0
    assert [row[0] for row in log] == [0, 1, 2, 3]


def test_finetune_deterministic():
    opt = SGDConfig(lr0=0.05, decay=0.9, batch_size=4)
    m1, log1 = finetune(small_cnn(seed=33), toy_samples(), opt, epochs=3, seed=7)
    m2, log2 = finetune(small_cnn(seed=33), toy_samples(), opt, epochs=3, seed=7)
    assert log1 == log2
    for k, v in m1.named_parameters().items():
        npt.assert_array_equal(v, m2.named_parameters()[k])


def test_finetune_seed_changes_outcome():
    opt = SGDConfig(lr0=0.05, decay=0.9, batch_size=4)
    _, log1 = finetune(small_cnn(seed=33), toy_samples(), opt, epochs=3, seed=7)
    _, log2 = finetune(small_cnn(seed=33), toy_samples(), opt, epochs=3, seed=8)
    assert log1 != log2


def test_finetune_frozen_keeps_encoder_bits():
    model = small_cnn(freeze=True)
    enc1, enc2 = model.layer("enc1"), model.layer("enc2")
    before = {
        "w1": enc1.weights.copy(),
        "b1": enc1.bias.copy(),
        "w2": enc2.weights.copy(),
        "b2": enc2.bias.copy(),
    }
    head_before = model.layer("fc1").weights.copy()
    finetune(model, toy_samples(), SGDConfig(lr0=0.05, batch_size=4),
             epochs=2, seed=0)
    npt.assert_array_equal(enc1.weights, before["w1"])
    npt.assert_array_equal(enc1.bias, before["b1"])
    npt.assert_array_equal(enc2.weights, before["w2"])
    npt.assert_array_equal(enc2.bias, before["b2"])
    assert not np.array_equal(model.layer("fc1").weights, head_before)


@pytest.mark.parametrize("model, target, first", [
    (build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=5), None, "enc1"),
    (small_cnn(freeze=False), 1, "enc1"),
    (small_cnn(freeze=True), 1, "fc1"),
], ids=["autoencoder", "unfrozen", "frozen"])
def test_backward_skips_only_the_first_trained_input_gradient(monkeypatch, model, target,
                                                             first):
    asked = {}
    for st in model.stages:
        if st.layer is not None:
            def spy(cache, g, input_grad=True, name=st.name, backward=st.layer.backward):
                asked[name] = input_grad
                return backward(cache, g, input_grad=input_grad)
            monkeypatch.setattr(st.layer, "backward", spy)
    x = Rng(4).uniform_array(model.input_shape, 0.0, 1.0)
    model.loss_and_param_grads(x, x if target is None else target)
    assert [name for name, wanted in asked.items() if not wanted] == [first]
    assert len(asked) > 1


def test_finetune_unfrozen_moves_encoder():
    model = small_cnn(freeze=False)
    before = model.layer("enc1").weights.copy()
    finetune(model, toy_samples(), SGDConfig(lr0=0.05, batch_size=4),
             epochs=2, seed=0)
    assert not np.array_equal(model.layer("enc1").weights, before)


def test_finetune_learns_separable_classes():
    opt = SGDConfig(lr0=0.1, decay=0.99, batch_size=4)
    model, log = finetune(small_cnn(seed=13), toy_samples(n_per_class=5),
                          opt, epochs=25, seed=2)
    assert log[-1][2] < log[0][2]  # mean loss fell
    assert log[-1][3] == 1.0       # memorized the toy set
    for x, cls in toy_samples(n_per_class=5):
        assert predict(model, x) == cls
