"""Optimizer: schedule arithmetic, parameter stepping, gradient checking."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from paintnet import autoencoder, optim
from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract, train
from paintnet.classifier import CNNConfig, build_cnn
from paintnet.data.rng import Rng
from paintnet.errors import ArgumentError, ConfigError, NumericError, ShapeError
from paintnet.layers import Rank1
from paintnet.optim import (
    SGDConfig,
    finite_difference_max_rel_error,
    lr_at_epoch,
    sgd_step,
)


def test_lr_schedule_closed_form():
    cfg = SGDConfig()
    for e in range(101):
        assert abs(lr_at_epoch(cfg, e) - 0.01 * 0.98 ** e) < 1e-12


def test_lr_schedule_first_epochs():
    cfg = SGDConfig(lr0=0.01, decay=0.98)
    assert lr_at_epoch(cfg, 0) == 0.01
    assert lr_at_epoch(cfg, 1) == pytest.approx(0.0098, abs=1e-15)


def test_lr_negative_epoch_rejected():
    with pytest.raises(ArgumentError):
        lr_at_epoch(SGDConfig(), -1)


def test_sgd_config_validation():
    with pytest.raises(ConfigError):
        SGDConfig(lr0=0.0)
    with pytest.raises(ConfigError):
        SGDConfig(decay=0.0)
    with pytest.raises(ConfigError):
        SGDConfig(decay=1.5)
    with pytest.raises(ConfigError):
        SGDConfig(batch_size=0)
    for lr0 in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=f"lr0 must be finite, got {lr0}"):
            SGDConfig(lr0=lr0)


def test_sgd_step_in_place():
    p = {"w": np.array([1.0, 2.0]), "b": np.array([0.5])}
    g = {"w": np.array([10.0, -10.0]), "b": np.array([2.0])}
    sgd_step(p, g, lr=0.1)
    npt.assert_allclose(p["w"], [0.0, 3.0], atol=1e-15)
    npt.assert_allclose(p["b"], [0.3], atol=1e-15)


def test_sgd_step_key_mismatch():
    with pytest.raises(ShapeError):
        sgd_step({"w": np.zeros(2)}, {"v": np.zeros(2)}, lr=0.1)


def test_sgd_step_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, lr=0.1)


def test_sgd_step_zero_lr_is_noop():
    p = {"w": np.array([1.0, -2.0])}
    sgd_step(p, {"w": np.array([5.0, 5.0])}, lr=0.0)
    npt.assert_array_equal(p["w"], [1.0, -2.0])


def test_sgd_two_steps_equal_summed_displacement():
    g = {"w": np.array([2.0, -1.0])}
    p1 = {"w": np.array([1.0, 1.0])}
    sgd_step(p1, g, lr=0.1)
    sgd_step(p1, g, lr=0.3)
    p2 = {"w": np.array([1.0, 1.0])}
    sgd_step(p2, g, lr=0.4)
    npt.assert_allclose(p1["w"], p2["w"], atol=1e-15)


def test_sgd_step_preserves_shapes():
    p = {"w": np.zeros((3, 4)), "b": np.zeros(3)}
    sgd_step(p, {"w": np.ones((3, 4)), "b": np.ones(3)}, lr=0.01)
    assert p["w"].shape == (3, 4) and p["b"].shape == (3,)


def test_lr_strictly_decreasing_when_decay_below_one():
    cfg = SGDConfig(lr0=0.5, decay=0.9)
    rates = [lr_at_epoch(cfg, e) for e in range(30)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_finite_difference_on_quadratic():
    # f(x) = sum(x^2) has gradient 2x; the checker should see near-zero error
    x = np.array([0.5, -1.5, 2.0])

    def loss():
        return float((x ** 2).sum())

    err = finite_difference_max_rel_error(loss, {"x": x}, {"x": 2 * x}, eps=1e-6)
    assert err < 1e-9


def test_finite_difference_catches_wrong_gradient():
    x = np.array([0.5, -1.5, 2.0])

    def loss():
        return float((x ** 2).sum())

    err = finite_difference_max_rel_error(loss, {"x": x}, {"x": 3 * x}, eps=1e-6)
    assert err > 0.3


def test_finite_difference_perturbs_a_non_contiguous_view():
    x = np.arange(1.0, 7.0).reshape(2, 3).T  # a transposed view, not a copy

    def loss():
        return float((x ** 2).sum())

    assert finite_difference_max_rel_error(loss, {"x": x}, {"x": 2 * x}, eps=1e-6) < 1e-8


def test_finite_difference_bad_eps():
    with pytest.raises(ArgumentError):
        finite_difference_max_rel_error(lambda: 0.0, {}, {}, eps=0.0)


def test_grad_check_linear_model_near_exact():
    # purely linear loss: central differences are exact up to round-off
    from paintnet.checks import _stack
    from paintnet.data.rng import Rng
    from paintnet.layers import DenseLayer, init_weights

    layer = DenseLayer(init_weights((3, 4), Rng(12)), np.zeros(3), "identity")
    r = Rng(13).uniform_array((3,), -1.0, 1.0)

    class LinearModel:
        def named_parameters(self):
            return {"W": layer.weights, "b": layer.bias}

        def loss_value(self, x, target):
            y, _ = layer.forward(x)
            return float((y * r).sum())

        def loss_and_param_grads(self, x, target):
            y, cache = layer.forward(x)
            _, grads = layer.backward(cache, r)
            return float((y * r).sum()), y, {"W": grads["W"], "b": grads["b"]}

    x = Rng(14).uniform_array((4,), -1.0, 1.0)
    assert finite_difference_max_rel_error(*_stack(LinearModel(), x, None), 1e-6) < 1e-9


def test_grad_check_error_shrinks_with_eps_on_smooth_model():
    from paintnet.autoencoder import (CAEModel, Stage, StageStack, conv_stage,
                                      deconv_stage, seeded)
    from paintnet.checks import _stack
    from paintnet.data.rng import Rng, Stream

    class SmoothCAE(StageStack):
        loss = CAEModel.loss

    # a one-channel tied autoencoder, sigmoid at every stage
    tensor = seeded(Rng.stream(3, Stream.INIT))
    enc1 = conv_stage("enc1", 1, 1, 5, "sigmoid", tensor)
    enc2 = conv_stage("enc2", 1, 2, 5, "sigmoid", tensor)
    model = SmoothCAE((1, 4, 4), [
        enc1, Stage("pool1", "pool"), enc2, Stage("pool2", "pool"),
        Stage("unpool2", "unpool", ref="pool2"),
        deconv_stage("dec2", enc2, "sigmoid", True, tensor),
        Stage("unpool1", "unpool", ref="pool1"),
        deconv_stage("dec1", enc1, "sigmoid", True, tensor)])
    x = Rng(15).uniform_array((1, 4, 4), 0.0, 1.0)
    clean = Rng(16).uniform_array((1, 4, 4), 0.0, 1.0)
    # truncation-dominated regime: quadratic decrease
    errs = [finite_difference_max_rel_error(*_stack(model, x, clean), e)
            for e in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    # at 1e-6 round-off may dominate: plateau, staying under the threshold
    assert finite_difference_max_rel_error(*_stack(model, x, clean), 1e-6) < 1e-5


# ---------------------------------------------------------------------------
# a batch's dense W gradients as rank-1 factors
# ---------------------------------------------------------------------------

def _reference_step(params, per_sample, lr):
    """The array path: each dense W gradient formed by np.outer, summed in
    sample order, divided by the batch length, then one sgd_step."""
    total = None
    for grads in per_sample:
        arrays = {k: np.outer(g.gz, g.x) if isinstance(g, Rank1) else g.copy()
                  for k, g in grads.items()}
        if total is None:
            total = arrays
        else:
            for k in total:
                total[k] += arrays[k]
    for k in total:
        total[k] /= len(per_sample)
    sgd_step(params, total, lr)


def _one_train_batch(params, per_sample, lr):
    """One batch of train over per_sample's gradients; returns the visit order."""
    visited = []

    def sample(epoch, index):
        visited.append(index)
        return None, {k: g if isinstance(g, Rank1) else g.copy()
                      for k, g in per_sample[index].items()}

    train("test", params, len(per_sample), sample,
          SGDConfig(lr0=lr, batch_size=len(per_sample)), epochs=1, seed=8)
    return visited


def _assert_step_bytes_match(params, per_sample, lr):
    ours = {k: p.copy() for k, p in params.items()}
    order = _one_train_batch(ours, per_sample, lr)
    _reference_step(params, [per_sample[i] for i in order], lr)
    for k in params:
        assert ours[k].tobytes() == params[k].tobytes(), k


def _signed_zero_factors(rng, out_n, in_n):
    """Seeded factors holding +0.0 and -0.0 in both gz and x."""
    gz = rng.uniform_array((out_n,), -2.0, 2.0)
    x = rng.uniform_array((in_n,), -2.0, 2.0)
    gz[::3] = 0.0
    gz[1::5] = -0.0
    x[::4] = -0.0
    x[2::7] = 0.0
    return gz, x


def _dense_batch(shape, batch):
    """(params, per-sample gradients): a seeded fc.W and fc.b, and batch samples
    of signed-zero factors whose last row of gz is zero in every sample."""
    out_n, in_n = shape
    rng = Rng(100 * out_n + batch)
    weights = rng.uniform_array(shape, -1.0, 1.0)
    weights[-1, ::3] = np.where(np.arange(0, in_n, 3) % 2, -0.0, 0.0)
    params = {"fc.W": weights, "fc.b": rng.uniform_array((out_n,), -1.0, 1.0)}
    per_sample = []
    for _ in range(batch):
        gz, x = _signed_zero_factors(rng, out_n, in_n)
        gz[-1] = -0.0 if batch % 2 else 0.0
        per_sample.append({"fc.W": Rank1(gz, x), "fc.b": gz.copy()})
    return params, per_sample


SHAPES = [(5, 7), (3, 33), (17, 4)]
BATCHES = [1, 2, 3, 9, 16]
# (64, 10002) takes several column blocks at the default width; the last
# few columns of 10002, 131 and 579 are not a whole 8, which a block's end
# would sum in another order
WIDE_SHAPES = [(17, 1000), (64, 10002), (17, 131), (400, 579)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_rank1_step_is_within_its_error_bound_of_the_exact_mean(shape, batch):
    # The step's element is fl(W + dot), dot a B-term product of the
    # rounded -lr/B * gz and x, so with u = 2^-53 and S = lr/B * sum |gz x|
    # it lies within (B + 3) u S of the exact update, plus u |result| for
    # the final add
    lr = 0.37
    params, per_sample = _dense_batch(shape, batch)
    ours = {k: p.copy() for k, p in params.items()}
    order = _one_train_batch(ours, per_sample, lr)
    w0 = params["fc.W"].copy()
    _reference_step(params, [per_sample[i] for i in order], lr)
    assert ours["fc.b"].tobytes() == params["fc.b"].tobytes()  # the array path's bytes

    u, scale = Fraction(1, 2 ** 53), Fraction(lr) / batch
    factors = [(g["fc.W"].gz, g["fc.W"].x) for g in per_sample]
    for i, j in np.ndindex(shape):
        terms = [Fraction(gz[i]) * Fraction(x[j]) for gz, x in factors]
        exact = Fraction(w0[i, j]) - scale * sum(terms)
        got = Fraction(ours["fc.W"][i, j])
        bound = (batch + 3) * u * scale * sum(abs(t) for t in terms) + u * abs(got)
        assert abs(got - exact) <= bound, (i, j)


@pytest.mark.parametrize("shape", SHAPES + WIDE_SHAPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_rank1_step_bytes_do_not_depend_on_the_block_width(monkeypatch, shape, batch):
    # a column keeps its bytes wherever a whole group of 8 columns from its
    # block's start holds it; the blocks start at multiples of 8 and the
    # last n % 8 columns are a block of their own, so 64 columns a block
    # moves no bit
    params, per_sample = _dense_batch(shape, batch)
    default = {k: p.copy() for k, p in params.items()}
    _one_train_batch(default, per_sample, 0.37)
    monkeypatch.setattr(optim, "STEP_BLOCK_BYTES", 0)
    assert optim._step_columns(batch + shape[0]) == 64
    _one_train_batch(params, per_sample, 0.37)
    for k in params:
        assert default[k].tobytes() == params[k].tobytes(), k


@pytest.mark.parametrize("shape", SHAPES + WIDE_SHAPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_rank1_step_keeps_the_bytes_of_a_row_with_zero_gradient(shape, batch):
    # the last row's gz is +-0 in every factor: its nonzero entries keep
    # their bytes, and its zeros stay zeros, whatever their sign
    params, per_sample = _dense_batch(shape, batch)
    before = params["fc.W"][-1].copy()
    _one_train_batch(params, per_sample, 0.37)
    after = params["fc.W"][-1]
    nonzero = before != 0
    assert nonzero.any() and not nonzero.all()
    assert after[nonzero].tobytes() == before[nonzero].tobytes()
    assert (after[~nonzero] == 0).all()


def test_array_only_pretrain_batch_is_unchanged():
    # no dense layer: every gradient is an array, summed in place as before
    model = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=21)
    rng = Rng(22)
    per_sample = []
    for _ in range(3):
        x = rng.uniform_array(model.input_shape, 0.0, 1.0)
        per_sample.append(model.loss_and_param_grads(x, x)[2])
    assert not any(isinstance(g, Rank1) for grads in per_sample for g in grads.values())
    _assert_step_bytes_match(model.named_parameters(), per_sample, lr=0.05)


def test_rank1_step_leaves_its_factors_unchanged():
    gz, x = np.array([1.0, -2.0]), np.array([0.5, 3.0, -1.0])
    factors = [Rank1(gz, x), Rank1(2 * gz, x)]
    sgd_step({"W": np.zeros((2, 3))}, {"W": factors}, lr=0.1)
    npt.assert_array_equal(gz, [1.0, -2.0])
    npt.assert_array_equal(x, [0.5, 3.0, -1.0])


def test_rank1_step_shape_mismatch():
    with pytest.raises(ShapeError):
        sgd_step({"W": np.zeros((2, 3))}, {"W": [Rank1(np.ones(2), np.ones(4))]}, lr=0.1)


@pytest.mark.parametrize("block", [None, 64])
def test_only_fc1_weights_overflowing_names_fc1(monkeypatch, block):
    # a finite fc1.W gradient whose product overflows in one element, the last,
    # so every row block is scanned before the NaN/inf is found
    if block is not None:
        monkeypatch.setattr(autoencoder, "_FINITE_BLOCK", block)
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=23)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=24)
    x = Rng(25).uniform_array(model.input_shape, 0.0, 1.0)

    def sample(epoch, index):
        _, _, grads = model.loss_and_param_grads(x, 1)
        gz, fx = grads["fc1.W"].gz.copy(), grads["fc1.W"].x.copy()
        gz[-1], fx[-1] = 1e200, 1e200
        grads["fc1.W"] = Rank1(gz, fx)
        return None, grads

    params = model.named_parameters()
    with pytest.raises(NumericError) as err:
        train("finetune", params, 2, sample, SGDConfig(lr0=0.01, batch_size=2), 1, seed=0)
    assert str(err.value) == "finetune epoch 0, batch 0: fc1.W is not finite after the SGD step"
    assert [k for k, p in params.items() if not np.isfinite(p).all()] == ["fc1.W"]
