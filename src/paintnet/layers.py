"""Forward and backward passes for every layer kind in the engine.

Covers same-padding convolution, 2x2 max-pooling with first-max switches,
switch-driven unpooling, transposed convolution (tied or learned), dense
layers, the three supported activations, softmax, and cross-entropy.

Convolution is implemented as cross-correlation (no kernel flip), and
one same-padding correlation class serves both the encoder's conv and
the decoder's transposed conv.  The "transposed" kernel of a tied
decoder layer is defined relative to that convention: swap the channel
axes and flip both spatial axes.  It is a numpy view of the encoder's
kernel, not a copy, so an in-place update of one is an update of both.

The correlation shifts and accumulates (the kn2row scheme): the padded
input lives in one flat buffer per channel, each kernel offset is one
matrix product on a strided view of it, and no offset copies a window.
Every output element is the same dot product over input channels,
summed in the same offset order, as a product per copied window gives,
so the bits match too, except where the BLAS rounds the last few
columns of a product in an edge kernel and only one layout puts that
element there.  It sums its columns in blocks that keep the
accumulator in cache across the k*k offsets, but only where that moves
no column out of or into an edge kernel: where the column count is a
multiple of 8.  The input gradient runs the same correlation (see
_SameCorrelation.backward).  The kernel gradient transposes the
padded input once, channels last, and takes one product per offset on a
reused copy of its window, the operand tensordot would build; at k = 1
it keeps tensordot's uncopied view, which rounds differently.

Each layer has one constructor, (weights, bias, activation name), and
keeps the arrays it is given; ACTIVATIONS maps each name to its function
and derivative.  The stage builders in autoencoder.py supply the
arrays, fresh from init_weights or read from stored tensors.

Every forward returns (output, cache) and every matching backward takes
(cache, grad_output); both are pure functions of their arguments, so
per-sample calls may run concurrently on disjoint inputs.  A layer's
backward returns None for the input gradient when asked for none
(input_grad=False), as the first trained stage of a model is.  A dense
layer's W gradient is a Rank1, its two factors, not an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data.rng import Rng
from .errors import ArgumentError, ShapeError

PROB_FLOOR = 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1/(1 + e) for z >= 0, e/(1 + e) below.
    # min(z, -z) rather than -abs(z) keeps a NaN's sign bit.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_derivative(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 - s)


# activation name -> (function, derivative at the pre-activation z);
# relu's derivative is the subgradient 0 at z = 0
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(np.float64)),
    "sigmoid": (_sigmoid, _sigmoid_derivative),
    "identity": (lambda z: z, np.ones_like),
}


def _known_activation(name: str) -> str:
    if name not in ACTIVATIONS:
        raise ArgumentError(f"unknown activation {name!r}, expected one of {tuple(ACTIVATIONS)}")
    return name


def init_weights(shape: tuple[int, ...], rng: Rng) -> np.ndarray:
    """Seeded kernel, uniform in +-sqrt(6/fan_in); fan_in is every axis after the first."""
    lim = float(np.sqrt(6.0 / math.prod(shape[1:])))
    return rng.uniform_array(shape, -lim, lim)


# ---------------------------------------------------------------------------
# cross-correlation primitives shared by conv and deconv
# ---------------------------------------------------------------------------

# bytes of the accumulator and product buffers one column block of _corr2d
# may take together: half of a 2 MiB per-core L2
BLOCK_BYTES = 1 << 20


def _corr2d(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padding cross-correlation of x, giving (the (out_c, h, w) map, padded x).

    x is zero-padded into one flat (c, hp*wp + k - 1) buffer, so the
    input window of kernel offset (u, v) is the strided view starting at
    u*wp + v, and each offset is one matrix product with no copy.  Every
    output row then runs wp - w wrap columns past the image, which are
    dropped.  The padded x returned is a view of the buffer.

    The h*wp output columns are summed in blocks whose width is a
    multiple of 64, sized so that one contiguous accumulator and one
    product buffer fit BLOCK_BYTES; all k*k offsets of a block reuse
    those two buffers, so the sums stay in cache across offsets.  The
    offset order, and so every sum, is the unblocked one.  The BLAS
    rounds the last h*wp mod 8 columns of a product in an edge kernel,
    and a block would move those columns to another place, so blocks
    are used only where h*wp is a multiple of 8; elsewhere, and where
    one block covers every column, a single block sums straight into
    the output.
    """
    c, h, w = x.shape
    o, k = weights.shape[0], weights.shape[2]
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    n = h * wp
    flat = np.zeros((c, hp * wp + k - 1), dtype=np.float64)
    xp = flat[:, :hp * wp].reshape(c, hp, wp)
    xp[:, pad:pad + h, pad:pad + w] = x
    # (k, k, out, in): a C-contiguous block per offset, which matmul hands to BLAS
    wk = np.ascontiguousarray(weights.transpose(2, 3, 0, 1))
    block = max(64, BLOCK_BYTES // (16 * o) // 64 * 64)
    if block >= n or n % 8:
        block = n
    out = np.empty((o, n), dtype=np.float64)
    # one block sums in out itself; several sum in a contiguous accumulator,
    # since summing in strided column blocks of out measured no faster than one block
    acc_buf = out.reshape(-1) if block == n else np.empty(o * block, dtype=np.float64)
    prod_buf = np.empty(o * block, dtype=np.float64)
    for b0 in range(0, n, block):
        b = min(block, n - b0)
        acc = acc_buf[:o * b].reshape(o, b)
        prod = prod_buf[:o * b].reshape(o, b)
        acc[...] = 0.0
        for u in range(k):
            for v in range(k):
                s = b0 + u * wp + v
                np.matmul(wk[u, v], flat[:, s:s + b], out=prod)
                acc += prod
        if block < n:
            out[:, b0:b0 + b] = acc
    return out.reshape(o, h, wp)[:, :, :w], xp


def _corr2d_weight_grad(xp: np.ndarray, gz: np.ndarray, k: int) -> np.ndarray:
    """Gradient of _corr2d's map with respect to its kernel, for map gradient gz.

    Each offset (u, v) is one product of gz, as (o, h*w), with the
    window of the padded input at (u, v), as (h*w, c).  The padded
    input is transposed once to (hp, wp, c), and each window is copied
    into one reused (h, w, c) buffer: the C-ordered operand tensordot
    would copy it into.  At k = 1 the window is all of xp, which
    tensordot passes to the BLAS as a transposed view with no copy; a
    C-ordered copy rounds differently, so that case stays tensordot's.
    """
    o, h, w = gz.shape
    c = xp.shape[0]
    if k == 1:
        return np.tensordot(gz, xp, axes=([1, 2], [1, 2]))[:, :, None, None]
    gw = np.empty((o, c, k, k), dtype=np.float64)
    g2 = gz.reshape(o, h * w)
    xt = np.ascontiguousarray(xp.transpose(1, 2, 0))
    window = np.empty((h, w, c), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            window[...] = xt[u:u + h, v:v + w]
            gw[:, :, u, v] = np.dot(g2, window.reshape(h * w, c))
    return gw


# ---------------------------------------------------------------------------
# convolution and transposed convolution
# ---------------------------------------------------------------------------

def transpose_flip(weights: np.ndarray) -> np.ndarray:
    """View of an (out, in, k, k) kernel with the channel axes swapped and space flipped.

    It is its own inverse, so it also maps a decoder's kernel gradient
    back to its encoder's layout.
    """
    return weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


class _SameCorrelation:
    """Same-padding square cross-correlation with bias and activation.

    weights: (out_channels, in_channels, k, k), k odd; zero padding of
    k//2 on all sides preserves the spatial size.  The weights and bias
    arrays given are kept, not copied; activation names an ACTIVATIONS entry.
    """

    kind = "conv"

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        self.activation = _known_activation(activation)
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

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]

    def forward(self, x: np.ndarray):
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.kind} input must be ({self.in_channels}, h, w), got {x.shape}")
        out, xp = _corr2d(x, self.weights)
        z = out + self.bias[:, None, None]
        return ACTIVATIONS[self.activation][0](z), (xp, z)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(input gradient, or None unless input_grad, {"W", "b"} gradients)."""
        xp, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(
                f"{self.kind} grad shape {grad_out.shape} does not match output {z.shape}")
        gz = grad_out * ACTIVATIONS[self.activation][1](z)
        grads = {
            "W": _corr2d_weight_grad(xp, gz, self.kernel),
            "b": gz.sum(axis=(1, 2)),
        }
        if not input_grad:
            return None, grads
        # The input gradient is the correlation of gz with transpose_flip of
        # the kernel.  Correlating the reversed gz with the channel-swapped,
        # unflipped kernel and reversing the result is the same sum with the
        # kernel offsets taken in ascending order, the order the pinned
        # digests were recorded with; a flipped kernel reverses that order
        # and moves bits.
        gx, _ = _corr2d(gz[:, ::-1, ::-1], self.weights.transpose(1, 0, 2, 3))
        return gx[:, ::-1, ::-1], grads


# Conv2DLayer and Deconv2DLayer are siblings, not parent and child:
# perfbench/child.py patches each class's forward and backward and names
# the span after the class it patched, so neither may run the other's.

class Conv2DLayer(_SameCorrelation):
    """Same-padding convolution: the encoder's layer."""


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
    def tied(cls, encoder: Conv2DLayer, activation: str, bias: np.ndarray | None = None):
        """A decoder on encoder's kernel; its bias is zero unless given."""
        return cls(transpose_flip(encoder.weights),
                   np.zeros(encoder.in_channels) if bias is None else bias, activation)


# ---------------------------------------------------------------------------
# pooling and unpooling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolSwitches:
    """Where 2x2 max-pooling found each window's maximum.

    index gives, per pooled position, the flat (row-major) index into
    the (c, h, w) input of the selected element; each lies inside its
    own 2x2 window.
    """

    index: np.ndarray
    input_shape: tuple[int, int, int]


def _wins(b: np.ndarray, a: np.ndarray, nan: bool) -> np.ndarray:
    """Where b displaces a as the running maximum: b > a, or b is the first NaN."""
    won = b > a
    if nan:
        won |= np.isnan(b) & ~np.isnan(a)
    return won


def maxpool2x2_forward(x: np.ndarray) -> tuple[np.ndarray, PoolSwitches]:
    """Per-window maximum over 2x2 blocks, stride 2.

    Ties go to the first maximum in row-major window order, and a window
    holding a NaN to its first NaN, as argmax does, so the switches are
    deterministic and checkpoint-stable.  x is de-interleaved into four
    contiguous planes, one per window element, and a pairwise tournament
    of strict comparisons picks each winner; the pooled value is read
    back from x at the winning index, so its sign and NaN payload are
    the input's.
    """
    if x.ndim != 3:
        raise ShapeError(f"pool input must be (c, h, w), got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pool input extents must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    # planes: top-left, top-right, bottom-left, bottom-right
    p = np.ascontiguousarray(x.reshape(c, h2, 2, w2, 2).transpose(2, 4, 0, 1, 3))
    p = p.reshape(4, c, h2, w2)
    nan = bool(np.isnan(p.max()))  # only then is argmax's first-NaN rule needed
    right = _wins(p[1], p[0], nan)
    right_bottom = _wins(p[3], p[2], nan)
    # each pair's maximum compares as its winner does, NaN included
    np.maximum(p[0], p[1], out=p[0])
    np.maximum(p[2], p[3], out=p[2])
    bottom = _wins(p[2], p[0], nan)
    right ^= (right ^ right_bottom) & bottom  # the winning pair's column
    # window (i, j) of channel k starts at 2*w*(k*h2 + i) + 2*j
    index = np.multiply(bottom, w, dtype=np.int64)
    index += right
    index += (2 * w) * np.arange(c * h2, dtype=np.int64).reshape(c, h2, 1)
    index += 2 * np.arange(w2, dtype=np.int64)
    return np.take(x, index), PoolSwitches(index, (c, h, w))


def unpool2x2_forward(x: np.ndarray, switches: PoolSwitches) -> np.ndarray:
    """Scatter each value to its recorded max location; zero elsewhere."""
    if x.ndim != 3:
        raise ShapeError(f"unpool input must be (c, h, w), got {x.shape}")
    if x.shape != switches.index.shape:
        raise ShapeError(
            f"unpool input {x.shape} does not match switches {switches.index.shape}")
    out = np.zeros(switches.input_shape, dtype=np.float64)
    out.reshape(-1)[switches.index] = x
    return out


def maxpool2x2_backward(switches: PoolSwitches, grad_out: np.ndarray) -> np.ndarray:
    """Route the upstream gradient to the recorded max locations."""
    return unpool2x2_forward(grad_out, switches)


def unpool2x2_backward(switches: PoolSwitches, grad_out: np.ndarray) -> np.ndarray:
    """Gather the upstream gradient from the recorded max locations."""
    if grad_out.shape != switches.input_shape:
        raise ShapeError(
            f"unpool grad {grad_out.shape} does not match switches {switches.input_shape}")
    return np.take(grad_out, switches.index)


# ---------------------------------------------------------------------------
# dense, softmax, cross-entropy
# ---------------------------------------------------------------------------

class Rank1:
    """A dense layer's W gradient, the outer product of gz and x, kept as those two factors.

    The factors take O(out + in) memory where the product takes
    out x in: for the classifier's fc1, the largest array in training.
    sgd_step applies a batch of them one parameter row at a time, and
    materialize forms the product where a whole array is needed.  There
    is no __array__, so numpy arithmetic on one fails instead of quietly
    building the product.
    """

    __slots__ = ("gz", "x")

    def __init__(self, gz: np.ndarray, x: np.ndarray):
        self.gz = gz
        self.x = x

    @property
    def shape(self) -> tuple[int, int]:
        return (self.gz.shape[0], self.x.shape[0])


def materialize(grads: dict) -> dict[str, np.ndarray]:
    """grads with each Rank1 formed into its array, np.outer(gz, x); other entries as given."""
    return {k: np.outer(g.gz, g.x) if isinstance(g, Rank1) else g for k, g in grads.items()}


class DenseLayer:
    """Fully connected layer: activation(W x + b), W of shape (out, in).

    A float64 weights array is kept, not copied: the full-scale fc1 is
    2.6 GB, and a copy would double the peak memory of building it.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str):
        self.activation = _known_activation(activation)
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"dense weights must be (out, in), got {weights.shape}")
        if bias.shape != (weights.shape[0],):
            raise ShapeError(f"dense bias shape {bias.shape} does not match {weights.shape[0]} units")
        self.weights = weights
        self.bias = bias

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray):
        if x.ndim != 1 or x.shape[0] != self.in_size:
            raise ShapeError(f"dense input must be ({self.in_size},), got {x.shape}")
        z = self.weights @ x + self.bias
        return ACTIVATIONS[self.activation][0](z), (x, z)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(input gradient, or None unless input_grad, {"W": Rank1, "b"} gradients)."""
        x, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(f"dense grad shape {grad_out.shape} does not match output {z.shape}")
        gz = grad_out * ACTIVATIONS[self.activation][1](z)
        grads = {"W": Rank1(gz, x), "b": gz.copy()}
        return self.weights.T @ gz if input_grad else None, grads


def softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalized distribution, computed with max subtraction."""
    if logits.ndim != 1 or logits.size < 1:
        raise ShapeError(f"softmax input must be a non-empty vector, got {logits.shape}")
    e = np.exp(logits - logits.max())
    return e / e.sum()


def cross_entropy(probs: np.ndarray, target: int) -> float:
    """-log p[target], with p floored at 1e-12 so the loss stays finite."""
    if probs.ndim != 1:
        raise ShapeError(f"cross_entropy needs a probability vector, got {probs.shape}")
    if not 0 <= target < probs.shape[0]:
        raise IndexError(f"target {target} out of range for {probs.shape[0]} classes")
    return float(-np.log(max(float(probs[target]), PROB_FLOOR)))


def softmax_xent_grad(probs: np.ndarray, target: int) -> np.ndarray:
    """Gradient of cross_entropy(softmax(z), target) w.r.t. the logits z."""
    if not 0 <= target < probs.shape[0]:
        raise IndexError(f"target {target} out of range for {probs.shape[0]} classes")
    g = probs.copy()
    g[target] -= 1.0
    return g
