"""Forward and backward passes for every layer kind in the engine.

Covers same-padding convolution, 2x2 max-pooling with argmax switches,
switch-driven unpooling, transposed convolution (tied or learned), dense
layers, the three supported activations, softmax, and cross-entropy.

Convolution is implemented as cross-correlation (no kernel flip), and
one same-padding correlation class serves both the encoder's conv and
the decoder's transposed conv.  The "transposed" kernel of a tied
decoder layer is defined relative to that convention: swap the channel
axes and flip both spatial axes.  It is a numpy view of the encoder's
kernel, not a copy, so an in-place update of one is an update of both.

Every forward returns (output, cache) and every matching backward takes
(cache, grad_output); both are pure functions of their arguments, so
per-sample calls may run concurrently on disjoint inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data.rng import Rng
from .errors import ArgumentError, ShapeError
from .tensor import Tensor

PROB_FLOOR = 1e-12


class Activation:
    """Elementwise nonlinearity with its derivative, selected by name."""

    KINDS = ("relu", "sigmoid", "identity")

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ArgumentError(f"unknown activation {kind!r}, expected one of {self.KINDS}")
        self.kind = kind

    def apply(self, z: Tensor) -> Tensor:
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "sigmoid":
            return _sigmoid(z)
        return z

    def derivative(self, z: Tensor) -> Tensor:
        """d(apply)/dz evaluated at pre-activation z. relu uses subgradient 0 at z=0."""
        if self.kind == "relu":
            return (z > 0.0).astype(np.float64)
        if self.kind == "sigmoid":
            s = _sigmoid(z)
            return s * (1.0 - s)
        return np.ones_like(z)

    def __repr__(self):
        return f"Activation({self.kind!r})"

    def __eq__(self, other):
        return isinstance(other, Activation) and other.kind == self.kind


def _sigmoid(z: Tensor) -> Tensor:
    # split by sign so exp() never overflows
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_limit(fan_in: int) -> float:
    """Uniform init half-width: sqrt(6 / fan_in)."""
    return float(np.sqrt(6.0 / fan_in))


def init_weights(shape: tuple[int, ...], rng: Rng) -> Tensor:
    """Seeded kernel, uniform in +-sqrt(6/fan_in); fan_in is every axis after the first."""
    lim = init_limit(math.prod(shape[1:]))
    return rng.uniform_array(shape, -lim, lim)


# ---------------------------------------------------------------------------
# cross-correlation primitives shared by conv and deconv
# ---------------------------------------------------------------------------

def _pad2d(x: Tensor, pad: int) -> Tensor:
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


def _corr2d(xp: Tensor, weights: Tensor, h: int, w: int) -> Tensor:
    """Valid cross-correlation of the padded input, giving an (out_c, h, w) map."""
    k = weights.shape[2]
    out = np.zeros((weights.shape[0], h, w), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            out += np.tensordot(weights[:, :, u, v], xp[:, u:u + h, v:v + w], axes=(1, 0))
    return out


def _corr2d_weight_grad(xp: Tensor, gz: Tensor, k: int) -> Tensor:
    h, w = gz.shape[1], gz.shape[2]
    gw = np.empty((gz.shape[0], xp.shape[0], k, k), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            gw[:, :, u, v] = np.tensordot(gz, xp[:, u:u + h, v:v + w], axes=([1, 2], [1, 2]))
    return gw


def _corr2d_input_grad(gz: Tensor, weights: Tensor, pad: int) -> Tensor:
    h, w = gz.shape[1], gz.shape[2]
    k = weights.shape[2]
    gxp = np.zeros((weights.shape[1], h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            gxp[:, u:u + h, v:v + w] += np.tensordot(weights[:, :, u, v], gz, axes=(0, 0))
    return gxp[:, pad:pad + h, pad:pad + w]


# ---------------------------------------------------------------------------
# convolution and transposed convolution
# ---------------------------------------------------------------------------

def transpose_flip(weights: Tensor) -> Tensor:
    """View of an (out, in, k, k) kernel with the channel axes swapped and space flipped.

    It is its own inverse, so it also maps a decoder's kernel gradient
    back to its encoder's layout.
    """
    return weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


class _SameCorrelation:
    """Same-padding square cross-correlation with bias and activation.

    weights: (out_channels, in_channels, k, k), k odd; zero padding of
    k//2 on all sides preserves the spatial size.  The weights and bias
    arrays given are kept, not copied.
    """

    kind = "conv"

    def __init__(self, weights: Tensor, bias: Tensor, activation: Activation):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
            raise ShapeError(f"{self.kind} weights must be (out, in, k, k), got {weights.shape}")
        if weights.shape[2] % 2 != 1:
            raise ShapeError(f"{self.kind} kernel extent must be odd, got {weights.shape[2]}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(
                f"{self.kind} bias shape {bias.shape} does not match {weights.shape[0]} filters")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @classmethod
    def create(cls, in_channels: int, out_channels: int, kernel: int, activation: str, rng: Rng):
        """Seeded layer: weights uniform in +-sqrt(6/fan_in), bias zero."""
        w = init_weights((out_channels, in_channels, kernel, kernel), rng)
        return cls(w, np.zeros(out_channels), Activation(activation))

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]

    def forward(self, x: Tensor):
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.kind} input must be ({self.in_channels}, h, w), got {x.shape}")
        h, w = x.shape[1], x.shape[2]
        xp = _pad2d(x, self.kernel // 2)
        z = _corr2d(xp, self.weights, h, w) + self.bias[:, None, None]
        return self.activation.apply(z), (xp, z)

    def backward(self, cache, grad_out: Tensor):
        xp, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(
                f"{self.kind} grad shape {grad_out.shape} does not match output {z.shape}")
        gz = grad_out * self.activation.derivative(z)
        grads = {
            "W": _corr2d_weight_grad(xp, gz, self.kernel),
            "b": gz.sum(axis=(1, 2)),
        }
        gx = _corr2d_input_grad(gz, self.weights, self.kernel // 2)
        return gx, grads


# Conv2DLayer and Deconv2DLayer are siblings, not parent and child:
# perfbench/child.py patches each class's forward and backward and names
# the span after the class it patched, so neither may run the other's.

class Conv2DLayer(_SameCorrelation):
    """Same-padding convolution: the encoder's layer."""

    def copy(self) -> "Conv2DLayer":
        return Conv2DLayer(self.weights.copy(), self.bias.copy(), Activation(self.activation.kind))


class Deconv2DLayer(_SameCorrelation):
    """Transposed convolution undoing a same-padding conv's channel mapping.

    A learned one owns its kernel.  A tied one correlates with
    transpose_flip of its encoder's kernel, a view of that array, so the
    encoder's in-place updates reach it with no copy; only its bias is
    its own.  Its W gradient is in its own layout; transpose_flip maps
    it onto the encoder's.
    """

    kind = "deconv"

    @classmethod
    def tied(cls, encoder: Conv2DLayer, activation: str, bias: Tensor | None = None):
        """A decoder on encoder's kernel; its bias is zero unless given."""
        return cls(transpose_flip(encoder.weights),
                   np.zeros(encoder.in_channels) if bias is None else bias,
                   Activation(activation))


# ---------------------------------------------------------------------------
# pooling and unpooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolSwitches:
    """Argmax coordinates recorded by 2x2 max-pooling.

    rows/cols give, per pooled position, the input-plane coordinate of
    the selected maximum; each lies inside its own 2x2 window.
    """

    rows: np.ndarray
    cols: np.ndarray

    @property
    def pooled_shape(self) -> tuple[int, int, int]:
        return self.rows.shape

    @property
    def input_shape(self) -> tuple[int, int, int]:
        c, h2, w2 = self.rows.shape
        return (c, 2 * h2, 2 * w2)


def maxpool2x2_forward(x: Tensor) -> tuple[Tensor, PoolSwitches]:
    """Per-window maximum over 2x2 blocks, stride 2.

    Ties go to the first maximum in row-major window order, so the
    switches are deterministic and checkpoint-stable.
    """
    if x.ndim != 3:
        raise ShapeError(f"pool input must be (c, h, w), got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pool input extents must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = x.reshape(c, h2, 2, w2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, 4)
    idx = win.argmax(axis=3)  # argmax returns the first maximum
    pooled = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]
    rows = 2 * np.arange(h2, dtype=np.int64)[None, :, None] + idx // 2
    cols = 2 * np.arange(w2, dtype=np.int64)[None, None, :] + idx % 2
    return pooled, PoolSwitches(rows=rows, cols=cols)


def unpool2x2_forward(x: Tensor, switches: PoolSwitches) -> Tensor:
    """Scatter each value to its recorded max location; zero elsewhere."""
    if x.ndim != 3:
        raise ShapeError(f"unpool input must be (c, h, w), got {x.shape}")
    if x.shape != switches.pooled_shape:
        raise ShapeError(
            f"unpool input {x.shape} does not match switches {switches.pooled_shape}")
    out = np.zeros(switches.input_shape, dtype=np.float64)
    ch = np.arange(x.shape[0])[:, None, None]
    out[ch, switches.rows, switches.cols] = x
    return out


def maxpool2x2_backward(switches: PoolSwitches, grad_out: Tensor) -> Tensor:
    """Route the upstream gradient to the recorded max locations."""
    return unpool2x2_forward(grad_out, switches)


def unpool2x2_backward(switches: PoolSwitches, grad_out: Tensor) -> Tensor:
    """Gather the upstream gradient from the recorded max locations."""
    if grad_out.shape != switches.input_shape:
        raise ShapeError(
            f"unpool grad {grad_out.shape} does not match switches {switches.input_shape}")
    ch = np.arange(grad_out.shape[0])[:, None, None]
    return grad_out[ch, switches.rows, switches.cols]


# ---------------------------------------------------------------------------
# dense, softmax, cross-entropy
# ---------------------------------------------------------------------------

class DenseLayer:
    """Fully connected layer: activation(W x + b), W of shape (out, in).

    A float64 weights array is kept, not copied: the full-scale fc1 is
    2.6 GB, and a copy would double the peak memory of building it.
    """

    def __init__(self, weights: Tensor, bias: Tensor, activation: Activation):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"dense weights must be (out, in), got {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(f"dense bias shape {bias.shape} does not match {weights.shape[0]} units")
        self.weights = weights
        self.bias = bias
        self.activation = activation

    @classmethod
    def create(cls, in_size: int, out_size: int, activation: str, rng: Rng) -> "DenseLayer":
        return cls(init_weights((out_size, in_size), rng), np.zeros(out_size),
                   Activation(activation))

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: Tensor):
        if x.ndim != 1 or x.shape[0] != self.in_size:
            raise ShapeError(f"dense input must be ({self.in_size},), got {x.shape}")
        z = self.weights @ x + self.bias
        return self.activation.apply(z), (x, z)

    def backward(self, cache, grad_out: Tensor):
        x, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(f"dense grad shape {grad_out.shape} does not match output {z.shape}")
        gz = grad_out * self.activation.derivative(z)
        grads = {"W": np.outer(gz, x), "b": gz.copy()}
        return self.weights.T @ gz, grads


def softmax(logits: Tensor) -> Tensor:
    """Exp-normalized distribution, computed with max subtraction."""
    if logits.ndim != 1 or logits.size < 1:
        raise ShapeError(f"softmax input must be a non-empty vector, got {logits.shape}")
    e = np.exp(logits - logits.max())
    return e / e.sum()


def cross_entropy(probs: Tensor, target: int) -> float:
    """-log p[target], with p floored at 1e-12 so the loss stays finite."""
    if probs.ndim != 1:
        raise ShapeError(f"cross_entropy needs a probability vector, got {probs.shape}")
    if not 0 <= target < probs.shape[0]:
        raise IndexError(f"target {target} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(float(probs[target]), PROB_FLOOR)))


def softmax_xent_grad(probs: Tensor, target: int) -> Tensor:
    """Gradient of cross_entropy(softmax(z), target) w.r.t. the logits z."""
    if not 0 <= target < probs.shape[0]:
        raise IndexError(f"target {target} out of range for {probs.shape[0]} classes")
    g = probs.copy()
    g[target] -= 1.0
    return g
