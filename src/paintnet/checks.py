"""Finite-difference verification of every analytic gradient path.

Each component builds a small seeded instance, takes a random linear
functional of its output as the loss, and compares analytic gradients
against central differences.  The full autoencoder and classifier stacks
are checked end to end the same way through their own loss functions.
Every component is a builder returning (loss, arrays, analytic); one
loop perturbs and checks them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import CAEConfig, build_cae, encoder_extract
from .classifier import CNNConfig, build_cnn
from .data.rng import Rng
from .errors import ArgumentError
from .layers import (
    Conv2DLayer,
    Deconv2DLayer,
    DenseLayer,
    cross_entropy,
    init_weights,
    materialize,
    maxpool2x2_backward,
    maxpool2x2_forward,
    softmax,
    softmax_xent_grad,
    unpool2x2_backward,
    unpool2x2_forward,
)
from .optim import finite_difference_max_rel_error

EPS = 1e-6
THRESHOLD = 1e-5
# fixed: every check below passes at this seed, but not every one with margin:
# cnn_stack at scale medium reads 7.603e-06, at its finite-difference noise floor
_SEED = 20240217


@dataclass(frozen=True)
class CheckRow:
    component: str
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < THRESHOLD


def _probe(layer, rng: Rng, x_shape: tuple[int, ...], r_shape: tuple[int, ...]):
    """<layer(x), r> for x and r drawn from rng, with its W, b and x gradients.

    A tied deconv's weights are a view of its encoder's kernel, so
    perturbing them perturbs the array the tie shares.  A dense layer's
    W gradient is formed from its Rank1 factors for the comparison.
    """
    x = rng.uniform_array(x_shape, -1.0, 1.0)
    r = rng.uniform_array(r_shape, -1.0, 1.0)

    def loss():
        y, _ = layer.forward(x)
        return float((y * r).sum())

    _, cache = layer.forward(x)
    gx, grads = layer.backward(cache, r)
    return loss, {"W": layer.weights, "b": layer.bias, "x": x}, {**materialize(grads), "x": gx}


def _conv2d(_):
    rng = Rng.stream(_SEED, 1)
    layer = Conv2DLayer(init_weights((3, 2, 5, 5), rng), np.zeros(3), "relu")
    return _probe(layer, rng, (2, 8, 8), (3, 8, 8))


def _maxpool(_):
    rng = Rng.stream(_SEED, 2)
    x = rng.uniform_array((3, 6, 6), 0.0, 1.0)
    r = rng.uniform_array((3, 3, 3), -1.0, 1.0)
    _, switches = maxpool2x2_forward(x)
    return (lambda: float((maxpool2x2_forward(x)[0] * r).sum()), {"x": x},
            {"x": maxpool2x2_backward(switches, r)})


def _unpool(_):
    rng = Rng.stream(_SEED, 3)
    _, switches = maxpool2x2_forward(rng.uniform_array((2, 6, 6), 0.0, 1.0))
    x = rng.uniform_array((2, 3, 3), -1.0, 1.0)
    r = rng.uniform_array((2, 6, 6), -1.0, 1.0)
    return (lambda: float((unpool2x2_forward(x, switches) * r).sum()), {"x": x},
            {"x": unpool2x2_backward(switches, r)})


def _deconv_tied(_):
    rng = Rng.stream(_SEED, 4)
    encoder = Conv2DLayer(init_weights((3, 2, 5, 5), rng), np.zeros(3), "relu")
    layer = Deconv2DLayer.tied(encoder, "sigmoid")
    return _probe(layer, rng, (3, 6, 6), (2, 6, 6))


def _deconv_learned(_):
    rng = Rng.stream(_SEED, 5)
    layer = Deconv2DLayer(init_weights((2, 3, 5, 5), rng), np.zeros(2), "sigmoid")
    return _probe(layer, rng, (3, 6, 6), (2, 6, 6))


def _dense(_):
    rng = Rng.stream(_SEED, 6)
    return _probe(DenseLayer(init_weights((4, 6), rng), np.zeros(4), "relu"), rng, (6,), (4,))


def _softmax_xent(_):
    logits = Rng.stream(_SEED, 7).uniform_array((5,), -2.0, 2.0)
    target = 2
    return (lambda: cross_entropy(softmax(logits), target), {"logits": logits},
            {"logits": softmax_xent_grad(softmax(logits), target)})


# stack-check sizes per scale flag: input side, conv channels, fc sizes
_SCALES = {
    "small": (8, (2, 3), (10, 8)),
    "medium": (12, (3, 4), (16, 12)),
}


def _stack(model, x, target):
    """A whole model's own loss, with its trained parameters' gradients as arrays."""
    _, _, analytic = model.loss_and_param_grads(x, target)
    return lambda: model.loss_value(x, target), model.named_parameters(), materialize(analytic)


def _cae_stack(sizes):
    side, channels, _ = sizes
    rng = Rng.stream(_SEED, 8)
    config = CAEConfig(input_size=(side, side), conv_channels=channels,
                       corruption_fraction=0.2)
    model = build_cae(config, seed=_SEED)
    x = rng.uniform_array((3, side, side), 0.0, 1.0)
    return _stack(model, x, rng.uniform_array((3, side, side), 0.0, 1.0))


def _cnn_stack(sizes):
    side, channels, fc = sizes
    rng = Rng.stream(_SEED, 9)
    cae = build_cae(CAEConfig(input_size=(side, side), conv_channels=channels), seed=_SEED + 1)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=fc, n_classes=3), seed=_SEED + 2)
    return _stack(model, rng.uniform_array((3, side, side), 0.0, 1.0), 1)


# component -> builder(stack sizes) -> (loss, arrays, analytic gradients);
# only the two stacks read the sizes
_BUILDERS = {
    "conv2d": _conv2d,
    "maxpool2x2": _maxpool,
    "unpool2x2": _unpool,
    "deconv_tied": _deconv_tied,
    "deconv_learned": _deconv_learned,
    "dense": _dense,
    "softmax_xent": _softmax_xent,
    "cae_stack": _cae_stack,
    "cnn_stack": _cnn_stack,
}


def run_gradcheck(scale: str = "small") -> list[CheckRow]:
    """Every component's worst relative error, in a fixed order.

    scale picks the size of the two full-stack checks.
    """
    if scale not in _SCALES:
        raise ArgumentError(f"unknown scale {scale!r}; choose from {', '.join(_SCALES)}")
    rows = []
    for name, build in _BUILDERS.items():
        loss, arrays, analytic = build(_SCALES[scale])
        rows.append(CheckRow(component=name, max_rel_error=finite_difference_max_rel_error(
            loss, arrays, analytic, EPS)))
    return rows
