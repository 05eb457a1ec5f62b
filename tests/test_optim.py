"""Optimizer: schedule arithmetic, parameter stepping, gradient checking."""

import numpy as np
import numpy.testing as npt
import pytest

from paintnet.errors import ArgumentError, ConfigError, ShapeError
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
    from paintnet.data.rng import Rng
    from paintnet.layers import DenseLayer
    from paintnet.optim import grad_check

    layer = DenseLayer.create(4, 3, "identity", Rng(12))
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
    assert grad_check(LinearModel(), x, None, eps=1e-6) < 1e-9


def test_grad_check_error_shrinks_with_eps_on_smooth_model():
    from paintnet.autoencoder import CAEConfig, build_cae
    from paintnet.data.rng import Rng
    from paintnet.optim import grad_check

    config = CAEConfig(input_size=(4, 4), conv_channels=(1, 2), input_channels=1,
                       hidden_activation="sigmoid", output_activation="sigmoid")
    model = build_cae(config, seed=3)
    x = Rng(15).uniform_array((1, 4, 4), 0.0, 1.0)
    clean = Rng(16).uniform_array((1, 4, 4), 0.0, 1.0)
    # truncation-dominated regime: quadratic decrease
    errs = [grad_check(model, x, clean, eps=e) for e in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    # at 1e-6 round-off may dominate: plateau, staying under the threshold
    assert grad_check(model, x, clean, eps=1e-6) < 1e-5
