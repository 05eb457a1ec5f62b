"""Autoencoder assembly, corruption, loss, pretraining, encoder extraction."""

import numpy as np
import numpy.testing as npt
import pytest

from paintnet.autoencoder import (
    CAEConfig,
    build_cae,
    corrupt,
    encoder_extract,
    pretrain,
    reconstruction_loss,
    shape_chain,
)
from paintnet.data.rng import Rng
from paintnet.errors import ConfigError, DataError, ShapeError
from paintnet.optim import SGDConfig, grad_check, lr_at_epoch


def small_config(**overrides):
    base = dict(input_size=(8, 8), conv_channels=(2, 3))
    base.update(overrides)
    return CAEConfig(**base)


# ---------------------------------------------------------------------------
# config and shape chain
# ---------------------------------------------------------------------------

def test_default_shape_chain_full_scale():
    chain = shape_chain(CAEConfig())
    assert chain == [
        (3, 256, 256),
        (100, 256, 256), (100, 128, 128), (200, 128, 128), (200, 64, 64),
        (200, 128, 128), (100, 128, 128), (100, 256, 256),
        (3, 256, 256),
    ]


def test_scaled_shape_chain():
    chain = shape_chain(CAEConfig(input_size=(64, 64), conv_channels=(8, 16)))
    assert chain == [
        (3, 64, 64),
        (8, 64, 64), (8, 32, 32), (16, 32, 32), (16, 16, 16),
        (16, 32, 32), (8, 32, 32), (8, 64, 64),
        (3, 64, 64),
    ]


def test_indivisible_input_rejected():
    with pytest.raises(ConfigError):
        CAEConfig(input_size=(50, 50))


def test_bad_fraction_rejected():
    with pytest.raises(ConfigError):
        CAEConfig(corruption_fraction=1.5)


def test_bad_channels_rejected():
    with pytest.raises(ConfigError):
        CAEConfig(conv_channels=(0, 5))


def test_forward_matches_reported_chain_sweep():
    # every intermediate shape must equal the config's declared chain
    for side in (4, 8, 16):
        for c1 in (1, 3):
            for c2 in (2, 4):
                config = CAEConfig(input_size=(side, side), conv_channels=(c1, c2),
                                   input_channels=2)
                model = build_cae(config, seed=1)
                x = Rng(2).uniform_array((2, side, side), 0.0, 1.0)
                recon, caches = model.forward(x)
                chain = shape_chain(config)
                a1 = caches["enc1"][1]
                assert a1.shape == chain[1]
                assert caches["pool1"].pooled_shape == chain[2]
                assert caches["enc2"][1].shape == chain[3]
                assert caches["pool2"].pooled_shape == chain[4]
                assert recon.shape == chain[8] == x.shape


# ---------------------------------------------------------------------------
# model structure
# ---------------------------------------------------------------------------

def test_tied_decoder_holds_no_kernels():
    model = build_cae(small_config(), seed=0)
    dec1, dec2 = model.layer("dec1"), model.layer("dec2")
    # each decoder kernel is a view of its encoder's, not an array of its own
    assert np.shares_memory(dec1.weights, model.layer("enc1").weights)
    assert np.shares_memory(dec2.weights, model.layer("enc2").weights)
    assert [(st.name, st.ref) for st in model.stages if st.kind == "deconv"] == \
        [("dec2", "enc2"), ("dec1", "enc1")]
    params = model.named_parameters()
    assert "dec1.W" not in params and "dec2.W" not in params
    # encoder kernels + the four biases are the whole parameter set
    assert sorted(params) == ["dec1.b", "dec2.b", "enc1.W", "enc1.b", "enc2.W", "enc2.b"]


def test_untied_decoder_owns_kernels():
    model = build_cae(small_config(tied_decoder=False), seed=0)
    assert [st.ref for st in model.stages if st.kind == "deconv"] == [None, None]
    params = model.named_parameters()
    assert "dec1.W" in params and "dec2.W" in params


def test_seeded_build_is_deterministic():
    a = build_cae(small_config(), seed=11)
    b = build_cae(small_config(), seed=11)
    for k, v in a.named_parameters().items():
        npt.assert_array_equal(v, b.named_parameters()[k])
    c = build_cae(small_config(), seed=12)
    assert not np.array_equal(a.layer("enc1").weights, c.layer("enc1").weights)


def test_biases_start_at_zero():
    model = build_cae(small_config(), seed=5)
    for name in ("enc1.b", "enc2.b", "dec2.b", "dec1.b"):
        npt.assert_array_equal(model.named_parameters()[name], 0.0)


def test_forward_rejects_wrong_shape():
    model = build_cae(small_config(), seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((3, 12, 12)))


def test_all_zero_input_constant_reconstruction():
    # zero input, zero biases: the output is sigma(0) everywhere
    model = build_cae(small_config(), seed=0)
    recon, _ = model.forward(np.zeros((3, 8, 8)))
    npt.assert_allclose(recon, 0.5, atol=1e-15)  # sigmoid(0)


def test_end_to_end_gradients():
    model = build_cae(small_config(), seed=20240217)
    x = Rng(41).uniform_array((3, 8, 8), 0.0, 1.0)
    clean = Rng(42).uniform_array((3, 8, 8), 0.0, 1.0)
    assert grad_check(model, x, clean, eps=1e-6) < 1e-5


def test_tied_gradients_land_on_encoder_kernels():
    model = build_cae(small_config(), seed=3)
    x = Rng(30).uniform_array((3, 8, 8), 0.0, 1.0)
    _, _, grads = model.loss_and_param_grads(x, x)
    assert sorted(grads) == sorted(model.named_parameters())
    assert "dec1.W" not in grads and "dec2.W" not in grads
    for enc in ("enc1", "enc2"):
        assert grads[f"{enc}.W"].shape == model.layer(enc).weights.shape


def test_untied_gradients_too():
    # seed chosen so enc1.W gradients stay above FD resolution; some draws
    # leave entries near 1e-7 where central differences bottom out
    model = build_cae(small_config(tied_decoder=False), seed=7)
    x = Rng(70).uniform_array((3, 8, 8), 0.0, 1.0)
    clean = Rng(71).uniform_array((3, 8, 8), 0.0, 1.0)
    assert grad_check(model, x, clean, eps=1e-6) < 1e-5


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def _distinct(rows, cols) -> set:
    """The distinct (row, col) pairs of a corruption mask."""
    return set(zip(rows.tolist(), cols.tolist()))


def test_corrupt_zero_fraction():
    img = Rng(50).uniform_array((3, 6, 6), 0.0, 1.0)
    out, (rows, cols) = corrupt(img, 0.0, Rng(51))
    npt.assert_array_equal(out, img)
    assert rows.size == cols.size == 0


def test_corrupt_full_fraction():
    img = Rng(52).uniform_array((3, 6, 6), 0.1, 1.0)
    out, (rows, cols) = corrupt(img, 1.0, Rng(53))
    npt.assert_array_equal(out, 0.0)
    assert rows.size == 36 and len(_distinct(rows, cols)) == 36


def test_corrupt_twenty_percent_of_10x10():
    img = Rng(54).uniform_array((3, 10, 10), 0.1, 1.0)
    out, (rows, cols) = corrupt(img, 0.2, Rng(55))
    assert rows.dtype.kind == cols.dtype.kind == "i"
    assert rows.size == 20 and len(_distinct(rows, cols)) == 20
    zeroed = np.all(out == 0.0, axis=0)
    assert zeroed.sum() == 20


def test_corrupt_count_grid():
    img = Rng(56).uniform_array((3, 10, 10), 0.1, 1.0)
    for tenths in range(11):
        f = tenths / 10.0
        _, (rows, cols) = corrupt(img, f, Rng(57))
        expect = int(np.floor(f * 100 + 0.5))
        assert rows.size == expect and len(_distinct(rows, cols)) == expect


def test_corrupt_rounds_half_up():
    img = Rng(58).uniform_array((3, 3, 3), 0.1, 1.0)
    _, (rows, cols) = corrupt(img, 0.5, Rng(59))  # 4.5 pixels rounds to 5
    assert rows.size == 5 and len(_distinct(rows, cols)) == 5


def test_corrupt_hits_all_channels_and_preserves_original():
    img = Rng(60).uniform_array((3, 8, 8), 0.1, 1.0)
    before = img.copy()
    out, (rows, cols) = corrupt(img, 0.25, Rng(61))
    npt.assert_array_equal(img, before)
    for r, c in zip(rows, cols):
        npt.assert_array_equal(out[:, r, c], 0.0)
    untouched = np.ones((8, 8), dtype=bool)
    untouched[rows, cols] = False
    npt.assert_array_equal(out[:, untouched], img[:, untouched])


def test_corrupt_deterministic_per_seed():
    img = Rng(62).uniform_array((3, 12, 12), 0.1, 1.0)
    _, m1 = corrupt(img, 0.2, Rng.stream(7, 3, 1))
    _, m2 = corrupt(img, 0.2, Rng.stream(7, 3, 1))
    _, m3 = corrupt(img, 0.2, Rng.stream(7, 3, 2))
    assert all(np.array_equal(a, b) for a, b in zip(m1, m2))
    assert _distinct(*m1) != _distinct(*m3)


def test_corrupt_bad_fraction():
    with pytest.raises(ConfigError):
        corrupt(np.zeros((3, 4, 4)), -0.1, Rng(0))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def test_loss_perfect_reconstruction():
    t = Rng(70).uniform_array((3, 4, 4), 0.0, 1.0)
    assert reconstruction_loss(t, t) == 0.0


def test_loss_unit_difference():
    assert reconstruction_loss(np.zeros((3, 4, 4)), np.ones((3, 4, 4))) == 1.0


def test_loss_matches_direct_sum():
    a = Rng(71).uniform_array((3, 5, 5), 0.0, 1.0)
    b = Rng(72).uniform_array((3, 5, 5), 0.0, 1.0)
    direct = sum((a[c, i, j] - b[c, i, j]) ** 2
                 for c in range(3) for i in range(5) for j in range(5)) / 75
    assert reconstruction_loss(a, b) == pytest.approx(direct, rel=1e-14)


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros((3, 4, 4)), np.zeros((3, 8, 8)))


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def _toy_images(n, side, seed):
    rng = Rng(seed)
    return [rng.uniform_array((3, side, side), 0.0, 1.0) for _ in range(n)]


def test_pretrain_zero_epochs_is_noop():
    model = build_cae(small_config(), seed=1)
    before = {k: v.copy() for k, v in model.named_parameters().items()}
    model, log = pretrain(model, _toy_images(3, 8, 80), SGDConfig(), epochs=0, seed=9)
    assert log == []
    for k, v in model.named_parameters().items():
        npt.assert_array_equal(v, before[k])


def test_pretrain_empty_dataset_rejected():
    model = build_cae(small_config(), seed=1)
    with pytest.raises(DataError):
        pretrain(model, [], SGDConfig(), epochs=1, seed=0)


def test_pretrain_wrong_image_shape_rejected():
    model = build_cae(small_config(), seed=1)
    with pytest.raises(ShapeError):
        pretrain(model, [np.zeros((3, 4, 4))], SGDConfig(), epochs=1, seed=0)


def test_pretrain_log_schedule_and_length():
    model = build_cae(small_config(), seed=2)
    opt = SGDConfig(batch_size=4)
    _, log = pretrain(model, _toy_images(6, 8, 81), opt, epochs=5, seed=10)
    assert [row[0] for row in log] == [0, 1, 2, 3, 4]
    for e, lr, loss in log:
        assert lr == lr_at_epoch(opt, e)
        assert np.isfinite(loss) and loss >= 0.0


def test_pretrain_deterministic():
    imgs = _toy_images(5, 8, 82)
    m1, log1 = pretrain(build_cae(small_config(), seed=3), imgs, SGDConfig(), 4, seed=77)
    m2, log2 = pretrain(build_cae(small_config(), seed=3), imgs, SGDConfig(), 4, seed=77)
    assert log1 == log2
    for k, v in m1.named_parameters().items():
        npt.assert_array_equal(v, m2.named_parameters()[k])


def test_pretrain_thread_count_does_not_change_results():
    imgs = _toy_images(6, 8, 83)
    m1, log1 = pretrain(build_cae(small_config(), seed=4), imgs,
                        SGDConfig(batch_size=3), 3, seed=55, threads=1)
    m2, log2 = pretrain(build_cae(small_config(), seed=4), imgs,
                        SGDConfig(batch_size=3), 3, seed=55, threads=4)
    assert log1 == log2
    for k, v in m1.named_parameters().items():
        npt.assert_array_equal(v, m2.named_parameters()[k])


def test_pretrain_reduces_loss_on_tiny_task():
    imgs = _toy_images(4, 8, 84)
    model = build_cae(small_config(), seed=5)
    _, log = pretrain(model, imgs, SGDConfig(lr0=0.5, batch_size=2), 25, seed=66)
    assert log[-1][2] < log[0][2]


# ---------------------------------------------------------------------------
# encoder extraction
# ---------------------------------------------------------------------------

def test_extract_structure():
    enc = encoder_extract(build_cae(small_config(), seed=6))
    assert [st.kind for st in enc.stages] == ["conv", "pool", "conv", "pool"]
    assert enc.feature_shape == (3, 2, 2)


def test_extract_matches_cae_front_half():
    model = build_cae(small_config(), seed=7)
    enc = encoder_extract(model)
    x = Rng(90).uniform_array((3, 8, 8), 0.0, 1.0)
    feats, _ = enc.forward(x)
    _, caches = model.forward(x)
    # the CAE's second pooling output is what the encoder stack should produce
    pooled = np.zeros_like(feats)
    chan = np.arange(pooled.shape[0])[:, None, None]
    a2 = model.layer("enc2").activation.apply(caches["enc2"][1])
    npt.assert_array_equal(feats, a2[chan, caches["pool2"].rows, caches["pool2"].cols])


def test_extract_copies_weights():
    model = build_cae(small_config(), seed=8)
    enc = encoder_extract(model)
    enc.layer("enc1").weights[:] = 0.0
    assert not np.array_equal(model.layer("enc1").weights, enc.layer("enc1").weights)


def test_tied_param_count_is_encoder_plus_decoder_biases():
    model = build_cae(small_config(), seed=9)
    params = model.named_parameters()
    encoder_count = sum(params[k].size for k in ("enc1.W", "enc1.b", "enc2.W", "enc2.b"))
    bias_count = params["dec1.b"].size + params["dec2.b"].size
    assert sum(v.size for v in params.values()) == encoder_count + bias_count
