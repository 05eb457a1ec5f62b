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

The correlation pads its input once into one flat buffer per channel,
where the window of each kernel offset is a strided view, and takes one
of three forms (see _corr2d).  A 5x5 correlation with at least
WINOGRAD_CHANNELS channels on each side, on a map whose sides are
multiples of 4, takes Winograd's minimal filtering F(4x4, 5x5): 8x8
input tiles at stride 4, each 2-D transform two products with its 1-D
table (_sandwich), and one batched product per tile row, whose scratch
is 1.25 to 1.38 MiB at 64x64 and 7.8 to 8.6 MiB at 128x128 (see
_winograd and _winograd_blocks).  Among the shipped profiles that is
the mid and full encoder's second conv and its decoder, whose paths it
takes 1.9 to 3.5x faster than the other forms.  Of the others, an input of at most
GATHER_CHANNELS channels, the RGB image of the first conv and the map
gradient of the last decoder, gathers each column block of every window
into one buffer and takes one product per block (im2col).  Other inputs
shift and accumulate (kn2row): each kernel offset is one matrix product
on the uncopied view.  Every output element of that form is the same
dot product over input channels, summed in the same offset order, as a
product per copied window gives, so the bits match too, except where
the BLAS rounds the last few columns of a product in an edge kernel and
only one layout puts that element there.  It sums its columns in blocks
that keep the accumulator in cache across the k*k offsets, but only
where that moves no column out of or into an edge kernel: where the
column count is a multiple of 8.  The input gradient runs the same
correlation, each form picked by the same rule on its own operands (see
_SameCorrelation.backward).  The kernel gradient reads the forward's
flat buffer where it lies: Winograd's form under the same rule,
gathered blocks where it has at least GRAD_GATHER_RATIO output channels
per input channel, one product per offset on the uncopied view
elsewhere.  Winograd's form, the gathered correlation and the kernel
gradients sum in another order than a product per copied window, so
their last bits differ from that reference.

Each layer has one constructor, (weights, bias, activation name), and
keeps the arrays it is given; ACTIVATIONS maps each name to its function
and derivative.  The stage builders in autoencoder.py supply the
arrays, fresh from init_weights or read from stored tensors.

Every forward returns (output, cache) and every matching backward takes
(cache, grad_output); both are pure functions of their arguments, so
per-sample calls may run concurrently on disjoint inputs.  A forward
given keep=False is the inference form: its cache is None, and it
keeps nothing.  A layer's backward returns None for the input gradient
when asked for none (input_grad=False), as the first trained stage of
a model is.  A dense
layer's W gradient is a Rank1, its two factors, not an array; a batch
of them steps W as one matrix product per column block (see
optim.sgd_step).
"""

from __future__ import annotations

import math

import numpy as np

from .data.rng import Rng
from .errors import ArgumentError, ShapeError

PROB_FLOOR = 1e-12


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # exp(-|z|) never overflows: 1/(1 + e) for z >= 0, e/(1 + e) below.
    # min(z, -z) rather than -abs(z) keeps a NaN's sign bit.
    e = np.exp(np.minimum(z, -z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _sigmoid_derivative(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return np.multiply(s, 1.0 - s, out=out)


def _one(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[...] = 1.0
    return out


# activation name -> (function, derivative at the pre-activation z).  The
# derivative is written into out, a float64 array of z's shape, and
# returned, so a backward that fills a layout of its own makes no
# map-sized temporary.  The function takes out=z too, where an inference
# forward activates in place; identity returns z either way.  relu never
# returns -0.0 (np.maximum returns its second operand, 0.0, on equal
# values), and its derivative is the subgradient 0 at z = 0
ACTIVATIONS = {
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out),
             lambda z, out: np.greater(z, 0.0, out=out)),
    "sigmoid": (_sigmoid, _sigmoid_derivative),
    "identity": (lambda z, out=None: z, _one),
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

# bytes of the scratch one column block of _corr2d or _corr2d_weight_grad
# may take: half of a 2 MiB per-core L2
BLOCK_BYTES = 1 << 20

# a correlation whose input has at most this many channels gathers its
# windows (see _corr2d)
GATHER_CHANNELS = 4

# a kernel gradient with at least this many output channels per input
# channel gathers its windows (see _corr2d_weight_grad)
GRAD_GATHER_RATIO = 4

# a 5x5 correlation whose input and output both have at least this many
# channels, on a map whose sides are multiples of 4, takes Winograd's form
# (see _winograd)
WINOGRAD_CHANNELS = 32


def _block_width(column_bytes: int) -> int:
    """Columns per block: a multiple of 64 whose column_bytes each fit BLOCK_BYTES."""
    return max(64, BLOCK_BYTES // column_bytes // 64 * 64)


def _gathered_blocks(flat: np.ndarray, k: int, wp: int, n: int):
    """(b0, b, columns) for each block of the first n window columns of flat.

    columns is (k*k*c, b), and its row (u*k + v)*c + ch is
    flat[ch, b0 + u*wp + v:][:b]: the k*k shifted views of the buffer,
    offsets in ascending order, filled by one copy from a strided view
    of it.  Every block reuses one buffer, so it is valid only until the
    next block.  Block widths are multiples of 64, sized so that the
    buffer and the copy the BLAS packs of it fit BLOCK_BYTES together.
    """
    c = flat.shape[0]
    rows = k * k * c
    block = _block_width(16 * rows)
    buf = np.empty(rows * min(block, n), dtype=np.float64)
    s0, s1 = flat.strides
    for b0 in range(0, n, block):
        b = min(block, n - b0)
        columns = buf[:rows * b].reshape(k, k, c, b)
        columns[...] = np.lib.stride_tricks.as_strided(
            flat[:, b0:], (k, k, c, b), (wp * s1, s1, s0, s1), writeable=False)
        yield b0, b, columns.reshape(rows, b)


# ---------------------------------------------------------------------------
# Winograd F(4x4, 5x5): Lavin & Gray, "Fast Algorithms for Convolutional
# Neural Networks" (arXiv:1509.09308)
# ---------------------------------------------------------------------------

def _winograd(c_in: int, c_out: int, k: int, h: int, w: int) -> bool:
    """Whether a correlation of c_in channels into c_out on an h x w map takes Winograd's form."""
    return k == 5 and h % 4 == 0 and w % 4 == 0 and min(c_in, c_out) >= WINOGRAD_CHANNELS


def _monic(roots: list) -> list:
    """Coefficients, lowest degree first, of the monic polynomial with these roots."""
    coef = [1]
    for r in roots:
        coef = [a - r * b for a, b in zip([0] + coef, coef + [0])]
    return coef


def _winograd_transforms(num: type = float) -> tuple[list, list, list]:
    """Aᵀ (4x8), G (8x5) and Bᵀ (8x8) of F(4, 5), in arithmetic of type num.

    With them the 4-output correlation y_i = sum_j g_j d_(i+j) of a
    5-tap g and an 8-sample d is Aᵀ[(G g) ⊙ (Bᵀ d)]: the transpose of
    Toom-Cook's product of a 4- and a 5-coefficient polynomial, which
    evaluates both at the points 0, ±1, ±2, ±1/2 and ∞ (the leading
    coefficient) and interpolates the 8 products.  Column i of Aᵀ and row
    i of G evaluate at point p_i; row i of Bᵀ is the interpolation's
    transpose, the polynomial prod_(q != p_i) (x - q) over the finite
    points, and prod_q (x - q) for ∞.  G's rows carry the Lagrange
    denominators prod_(q != p_i) (p_i - q), so Bᵀ's entries are dyadic.

    In fractions.Fraction every entry is exact.  In float every step is
    exact too, sums and products of a few small dyadic values, except
    G's one division of two exact values, so each float entry is its
    exact value rounded once (test_layers checks both).
    """
    points = [num(p) for p in (0, 1, -1, 2, -2)] + [num(1) / 2, num(-1) / 2]
    at = [[p ** i for p in points] + [int(i == 3)] for i in range(4)]
    g, bt = [], []
    for i, p in enumerate(points):
        others = points[:i] + points[i + 1:]
        g.append([p ** j / math.prod(p - q for q in others) for j in range(5)])
        bt.append(_monic(others) + [0])
    g.append([int(j == 4) for j in range(5)])
    bt.append(_monic(points))
    return at, g, bt


# Aᵀ, G and Bᵀ as float64 arrays.  Built from Python floats: importing
# fractions (which imports decimal) added 0.3 to 0.8 MB to the peak RSS of
# every command
_AT, _G, _BT = (np.array(t, dtype=np.float64) for t in _winograd_transforms())


def _sandwich(t: np.ndarray, x: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = t X tᵀ for every n x n matrix X in x, in two products with the 1-D table t.

    t is (m, n); x is C-contiguous and holds X[r, s] at x[r, s] of an
    (n, n, N) layout, one matrix per last index.  The first product is t
    with x as (n, n*N), t X of every matrix at once, into tmp (m*n*N
    values); the second is t against tmp's m row blocks of (n, N), into
    out, C-contiguous with m*m*N values.  Neither pass copies or
    transposes x or tmp, and each output takes 2n multiply-adds where a
    product with the table kron(t, t) takes n*n.
    """
    m, n = t.shape
    first = np.matmul(t, x.reshape(n, -1), out=tmp.reshape(m, -1))
    return np.matmul(t, first.reshape(m, n, -1), out=out.reshape(m, m, -1))


def _winograd_blocks(flat: np.ndarray, o: int, h: int, w: int):
    """(i, V, M, Q, Y) for each tile row i of _corr2d's flat buffer.

    Tile (i, j) is the 8x8 window of the padded input at row 4i, column
    4j, and V is (64, c, w/4): Bᵀ d B of row i's tiles, tile j in column
    j.  The tiles are gathered into D by one copy from a strided view of
    flat, and V = Bᵀ D B is written back over D (_sandwich, through P).
    M (64, o, w/4), Q (32*o*w/4 values) and Y (4, 4, o, w/4) are the
    caller's scratch for the row; Y is M's first quarter.  D, P, M and Q
    are views of one buffer of (128*c + 96*o)*(w/4) values that every
    row reuses, so V, M, Q and Y are valid only until the next row.
    A block is one row because one row's scratch already exceeds
    BLOCK_BYTES on every Winograd shape of the mid and full profiles:
    1.25 to 1.38 MiB at 64x64, 7.8 to 8.6 MiB at 128x128.
    On one BLAS thread the two-product transforms made the mid profile's
    conv2 and dec2 paths 1.24 to 1.60x faster than one product each with
    a Kronecker table kron(t, t) did, and the full profile's 0.98 to
    1.14x, where the batched product outweighs the transforms.
    """
    c = flat.shape[0]
    wp, tw = w + 4, w // 4
    # the buffer starts on a 64-byte boundary, where AVX-512 loads want
    # it: at the mid profile's conv2 that measured 5-10% faster than the
    # 16-, 32- and 48-byte offsets malloc hands out
    n = (128 * c + 96 * o) * tw
    raw = np.empty(n + 7, dtype=np.float64)
    start = -(raw.ctypes.data // 8) % 8
    buf = raw[start:start + n]
    d, p, m, q = np.split(buf, np.cumsum([64 * c * tw, 64 * c * tw, 64 * o * tw]))
    d, m = d.reshape(8, 8, c, tw), m.reshape(64, o, tw)
    y = m.reshape(-1)[:16 * o * tw].reshape(4, 4, o, tw)
    v = d.reshape(64, c, tw)
    s0, s1 = flat.strides
    for i in range(h // 4):
        d[...] = np.lib.stride_tricks.as_strided(
            flat[:, 4 * i * wp:], (8, 8, c, tw), (wp * s1, s1, s0, 4 * s1), writeable=False)
        _sandwich(_BT, d, p, d)
        yield i, v, m, q, y


def _winograd_corr2d(flat: np.ndarray, weights: np.ndarray, h: int, w: int) -> np.ndarray:
    """_corr2d's (o, h, w) map in Winograd's form, from its flat buffer.

    U = G g Gᵀ of every (out, in) kernel pair is one _sandwich with G;
    per tile row, M[ξ] = U[ξ] V[ξ] for each of the 64 transformed
    positions ξ is one batched product, Y = Aᵀ M A one _sandwich with Aᵀ,
    and Y's 4x4 tiles are written into the row's four rows of the map.
    Beside the map it holds U, 64*o*c values, and the row buffer of
    _winograd_blocks; forming U takes 65*o*c values more, freed before
    the map and the row buffer are allocated.
    """
    o, c = weights.shape[:2]
    tw = w // 4
    u = np.empty((64, o, c), dtype=np.float64)
    _sandwich(_G, np.ascontiguousarray(weights.transpose(2, 3, 0, 1)),
              np.empty(40 * o * c, dtype=np.float64), u)
    out = np.empty((o, h, w), dtype=np.float64)
    tiles = out.reshape(o, h // 4, 4, tw, 4)
    for i, v, m, q, y in _winograd_blocks(flat, o, h, w):
        np.matmul(u, v, out=m)
        _sandwich(_AT, m, q, y)
        tiles[:, i] = y.transpose(2, 0, 3, 1)
    return out


def _winograd_weight_grad(flat: np.ndarray, gz: np.ndarray) -> np.ndarray:
    """_corr2d_weight_grad in Winograd's form: the (o, c, 5, 5) gradient for map gradient gz.

    Per tile row, V is recomputed from flat, the row's 4x4 tiles of gz
    are gathered into Y, dM = A dY Aᵀ is one _sandwich with A (written
    over Y, which is M's first quarter), and dU[ξ] += dM[ξ] V[ξ]ᵀ one
    batched product; then dW = Gᵀ dU G is one _sandwich with Gᵀ.
    Beside the result it holds dU and one product buffer, 64*o*c values
    each, the row buffer of _winograd_blocks, and dW in its (5, 5, o, c)
    layout, 25*o*c values, until the result is copied out of it.
    """
    o, h, w = gz.shape
    c = flat.shape[0]
    tw = w // 4
    du = np.zeros((64, o, c), dtype=np.float64)
    prod = np.empty_like(du)
    for i, v, m, q, y in _winograd_blocks(flat, o, h, w):
        y[...] = gz[:, 4 * i:4 * i + 4].reshape(o, 4, tw, 4).transpose(1, 3, 0, 2)
        _sandwich(_AT.T, y, q, m)
        np.matmul(m, v.transpose(0, 2, 1), out=prod)
        du += prod
    gw = np.empty((5, 5, o, c), dtype=np.float64)
    _sandwich(_G.T, du, prod.reshape(-1)[:40 * o * c], gw)
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


def _corr2d(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Same-padding cross-correlation of x, giving (the (out_c, h, w) map, flat padded x).

    x is zero-padded into one flat (c, hp*wp + k - 1) buffer, so the
    input window of kernel offset (u, v) is the strided view starting at
    u*wp + v.  Every output row then runs wp - w wrap columns past the
    image, which are dropped.  The buffer is returned for the kernel
    gradient.  The map is taken in one of three forms.

    A 5x5 correlation with at least WINOGRAD_CHANNELS channels on each
    side, on a map whose sides are multiples of 4, takes Winograd's form
    (_winograd_corr2d): 64 products per 4x4 output tile and channel pair
    where the other forms take 400, in transforms of two products each
    (_sandwich), one tile row at a time.  On one BLAS thread its forward
    measured 3.5x faster than shift-and-add on the mid profile's conv2
    (32 to 64 channels at 64x64), 3.3x on the full one's (100 to 200 at
    128x128) and 2.4x at 16 channels each side at 64x64.  It lost on
    four of the six correlations of the desk profile's conv2 and dec2 (8
    and 16 channels) and on all six with a 3-channel side at desk, where
    the transforms outweigh the products.  32 routes every shipped
    profile as any value from 9 to 32 would, and leaves desk on the
    other forms.

    Other inputs of at most GATHER_CHANNELS channels gather (im2col in
    blocks): each column block of every window is copied into one
    (k*k*c, b) buffer (_gathered_blocks), and the block is one product
    with the (o, k*k*c) kernel.  Shifting and adding would sum only c
    terms per product, too few to keep the BLAS busy: a 3-channel input
    gathered measured 2.3x faster at 64x64 and 4.5x at 128x128.  That is
    the first conv of an RGB model, and the input gradient of its last
    decoder.  An 8-channel input gathered measured 12-15% faster into 16
    channels but 1.35x slower into 3 (the desk profile's second conv and
    last decoder), so the rule stops short of 8.

    Other inputs shift and add (kn2row): each offset is one product on
    the uncopied window, and all k*k offsets of a block sum in one
    contiguous accumulator beside one product buffer, which fit
    BLOCK_BYTES together, so the sums stay in cache across offsets.  The
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
    flat[:, :hp * wp].reshape(c, hp, wp)[:, pad:pad + h, pad:pad + w] = x
    if _winograd(c, o, k, h, w):
        return _winograd_corr2d(flat, weights, h, w), flat
    out = np.empty((o, n), dtype=np.float64)
    if c <= GATHER_CHANNELS:
        # (out, k, k, in): the gathered rows' order
        wg = weights.transpose(0, 2, 3, 1).reshape(o, k * k * c)
        for b0, b, columns in _gathered_blocks(flat, k, wp, n):
            np.matmul(wg, columns, out=out[:, b0:b0 + b])
        return out.reshape(o, h, wp)[:, :, :w], flat
    # (k, k, out, in): a C-contiguous block per offset, which matmul hands to BLAS
    wk = np.ascontiguousarray(weights.transpose(2, 3, 0, 1))
    block = _block_width(16 * o)
    if block >= n or n % 8:
        block = n
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
    return out.reshape(o, h, wp)[:, :, :w], flat


def _corr2d_weight_grad(flat: np.ndarray, gzp: np.ndarray, k: int) -> np.ndarray:
    """Gradient of _corr2d's map with respect to its kernel.

    flat is _corr2d's padded input buffer, and gzp the map gradient laid
    out as (o, h, wp) with zeros in its wp - w wrap columns: column
    i*wp + j of gzp meets column i*wp + j + u*wp + v of flat at offset
    (u, v), and the wrap columns add zeros.  Each form reads flat where
    it lies, with no copied window.

    A gradient that _winograd picks for its (c, o) takes Winograd's form
    (_winograd_weight_grad): it recomputes each tile row's transformed
    input from flat, so the layer cache stays (flat, z), and sums the
    gradient of the 64 transformed kernels over the rows.

    Of the others, a gradient with at least GRAD_GATHER_RATIO output
    channels per input channel gathers the same column blocks as _corr2d
    and sums one (o, k*k*c) product per block.  Each gathered column is
    then shared by many rows: the first conv's gradient at 128x128 (3 to
    32 channels) measured 4.5x faster than with one product per offset.
    With fewer rows per input channel gathering saved at most 4% (the
    mid profile's second conv) and cost up to 1.8x (the desk decoders).

    Other gradients take one product per offset on the uncopied window:
    gzp as (o, h*wp) times flat's (h*wp, c) transposed view at u*wp + v.
    """
    o, h, wp = gzp.shape
    c = flat.shape[0]
    if _winograd(c, o, k, h, wp - k + 1):
        return _winograd_weight_grad(flat, gzp[:, :, :wp - k + 1])
    n = h * wp
    g2 = gzp.reshape(o, n)
    if o >= GRAD_GATHER_RATIO * c:
        gw = np.zeros((o, k * k * c), dtype=np.float64)
        prod = np.empty_like(gw)
        for b0, b, columns in _gathered_blocks(flat, k, wp, n):
            np.matmul(g2[:, b0:b0 + b], columns.T, out=prod)
            gw += prod
        return np.ascontiguousarray(gw.reshape(o, k, k, c).transpose(0, 3, 1, 2))
    gwk = np.empty((k, k, o, c), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            s = u * wp + v
            np.matmul(g2, flat[:, s:s + n].T, out=gwk[u, v])
    return np.ascontiguousarray(gwk.transpose(2, 3, 0, 1))


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

    def forward(self, x: np.ndarray, keep: bool = True, pool=None):
        """(the activated map, the (flat, z) cache backward reads).

        keep=False is the inference form: the cache is None, the padded
        input is freed once the correlation is done, and the bias and
        activation go in place on _corr2d's output buffer.  pool, given
        only with keep=False, is maxpool2x2_forward, and the map comes
        back pooled by it.  A relu layer with a finite bias then pools
        the raw correlation and adds the bias and relu to the pooled map,
        a quarter of the size.  That moves no bit: rounding is monotone,
        so max_i fl(z_i + b) = fl(max_i z_i + b), relu is monotone, and
        relu's output holds no -0.0, so equal values have equal bytes.
        A window holding a NaN needs no other order, since the pool takes
        its first NaN, and b and relu then act on that NaN as they would
        in the full map.  A bias that is not finite does: pooling first
        with b = +inf and a window holding -inf gives inf where the
        exact order gives NaN, so such a layer activates first, then pools.
        """
        if x.ndim != 3 or x.shape[0] != self.in_channels:
            raise ShapeError(
                f"{self.kind} input must be ({self.in_channels}, h, w), got {x.shape}")
        out, flat = _corr2d(x, self.weights)
        b = self.bias[:, None, None]
        activate = ACTIVATIONS[self.activation][0]
        if keep:
            z = out + b
            return activate(z), (flat, z)
        del flat
        if pool is not None and self.activation == "relu" and np.isfinite(self.bias).all():
            pooled, _ = pool(out, keep=False)
            pooled += b
            return activate(pooled, out=pooled), None
        out += b
        activate(out, out=out)
        return (out, None) if pool is None else pool(out, keep=False)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(input gradient, or None unless input_grad, {"W", "b"} gradients)."""
        flat, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(
                f"{self.kind} grad shape {grad_out.shape} does not match output {z.shape}")
        o, h, w = z.shape
        k = self.kernel
        pad, wp = k // 2, w + k - 1
        winograd = input_grad and _winograd(o, self.in_channels, k, h, w)
        # gz in place inside its zero-wrap layout, as _corr2d_weight_grad reads
        # it.  Where the input gradient takes Winograd's form, that layout is
        # the interior rows of a buffer padded as _corr2d pads its input, and
        # the input gradient correlates gz there, with no copy
        if winograd:
            gflat = np.zeros((o, (h + 2 * pad) * wp + k - 1), dtype=np.float64)
            gzp = gflat[:, pad * (wp + 1):][:, :h * wp].reshape(o, h, wp)
        else:
            gzp = np.zeros((o, h, wp), dtype=np.float64)
        gz = ACTIVATIONS[self.activation][1](z, gzp[:, :, :w])
        gz *= grad_out
        grads = {
            "W": _corr2d_weight_grad(flat, gzp, k),
            "b": gz.sum(axis=(1, 2)),
        }
        if not input_grad:
            return None, grads
        # The input gradient is the correlation of gz with transpose_flip of
        # the kernel, which Winograd's form takes as it is.  For the other
        # forms, correlating the reversed gz with the channel-swapped,
        # unflipped kernel and reversing the result is the same sum with the
        # kernel offsets taken in ascending order, the order the pinned
        # digests were recorded with; a flipped kernel reverses that order
        # and moves bits.
        if winograd:
            return _winograd_corr2d(gflat, transpose_flip(self.weights), h, w), grads
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

def _wins(b: np.ndarray, a: np.ndarray, nan: bool) -> np.ndarray:
    """Where b displaces a as the running maximum: b > a, or b is the first NaN."""
    won = b > a
    if nan:
        won |= np.isnan(b) & ~np.isnan(a)
    return won


def maxpool2x2_forward(x: np.ndarray, keep: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-window maximum over 2x2 blocks, stride 2, and its switches.

    The switches give, per pooled position, the flat (row-major) index
    into the (c, h, w) input of the selected element, each inside its
    own 2x2 window; the input's extents are twice theirs.

    Ties go to the first maximum in row-major window order, and a window
    holding a NaN to its first NaN, as argmax does, so the switches are
    deterministic and checkpoint-stable.  x is de-interleaved into four
    contiguous planes, one per window element, and a pairwise tournament
    of strict comparisons picks each winner; the pooled value is read
    back from x at the winning index, so its sign and NaN payload are
    the input's.

    keep=False is the inference form: it returns (values, None) and
    computes no switches.  Each window's value is np.maximum of its two
    rows, then of that pair's two columns, all strided views of x: on one
    core, 2.9-3.5x faster than the tournament on the desk and mid
    profiles' maps and 5.2x on the full profile's first.  np.maximum
    returns its second operand on equal values, so where a window's
    maximum is tied its value is the last tied element in column-major
    window order (top-left, bottom-left, top-right, bottom-right).  Only
    a (+0.0, -0.0) tie tells the two rules apart: np.maximum(+0.0, -0.0)
    is -0.0.  relu's output holds no -0.0, so on a relu map both forms
    give the same bytes.  A window holding a NaN takes its first NaN,
    from the tournament, as the switches' values do.
    """
    if x.ndim != 3:
        raise ShapeError(f"pool input must be (c, h, w), got {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"pool input extents must be even, got {h}x{w}")
    if not keep:
        rows = np.maximum(x[:, 0::2], x[:, 1::2])
        pooled = np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])
        if np.isnan(pooled.max()):
            nan = np.isnan(pooled)
            pooled[nan] = maxpool2x2_forward(x)[0][nan]
        return pooled, None
    h2, w2 = h // 2, w // 2
    # planes: top-left, top-right, bottom-left, bottom-right.  Always a copy,
    # since the tournament writes into them: for a one-channel 2x2 input the
    # transposed view is already contiguous, so ascontiguousarray would give x
    p = x.reshape(c, h2, 2, w2, 2).transpose(2, 4, 0, 1, 3).copy()
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
    return np.take(x, index), index


def _pooled_input_shape(switches: np.ndarray) -> tuple[int, int, int]:
    c, h2, w2 = switches.shape
    return c, 2 * h2, 2 * w2


def unpool2x2_forward(x: np.ndarray, switches: np.ndarray) -> np.ndarray:
    """Scatter each value to its recorded max location; zero elsewhere."""
    if x.ndim != 3:
        raise ShapeError(f"unpool input must be (c, h, w), got {x.shape}")
    if x.shape != switches.shape:
        raise ShapeError(f"unpool input {x.shape} does not match switches {switches.shape}")
    out = np.zeros(_pooled_input_shape(switches), dtype=np.float64)
    out.reshape(-1)[switches] = x
    return out


def maxpool2x2_backward(switches: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Route the upstream gradient to the recorded max locations."""
    return unpool2x2_forward(grad_out, switches)


def unpool2x2_backward(switches: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gather the upstream gradient from the recorded max locations."""
    shape = _pooled_input_shape(switches)
    if grad_out.shape != shape:
        raise ShapeError(f"unpool grad {grad_out.shape} does not match switches {shape}")
    return np.take(grad_out, switches)


# ---------------------------------------------------------------------------
# dense, softmax, cross-entropy
# ---------------------------------------------------------------------------

class Rank1:
    """A dense layer's W gradient, the outer product of gz and x, kept as those two factors.

    The factors take O(out + in) memory where the product takes
    out x in: for the classifier's fc1, the largest array in training.
    sgd_step applies a batch of them as one (out, B) x (B, columns)
    product per column block of W, and materialize forms the product
    where a whole array is needed.  There is no __array__, so numpy
    arithmetic on one fails instead of quietly building the product.
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

    def forward(self, x: np.ndarray, keep: bool = True):
        """(activation(W x + b), the (x, z) cache); keep=False keeps none and activates in place."""
        if x.ndim != 1 or x.shape[0] != self.in_size:
            raise ShapeError(f"dense input must be ({self.in_size},), got {x.shape}")
        z = self.weights @ x + self.bias
        if not keep:
            return ACTIVATIONS[self.activation][0](z, out=z), None
        return ACTIVATIONS[self.activation][0](z), (x, z)

    def backward(self, cache, grad_out: np.ndarray, input_grad: bool = True):
        """(input gradient, or None unless input_grad, {"W": Rank1, "b"} gradients)."""
        x, z = cache
        if grad_out.shape != z.shape:
            raise ShapeError(f"dense grad shape {grad_out.shape} does not match output {z.shape}")
        gz = ACTIVATIONS[self.activation][1](z, np.empty_like(z))
        gz *= grad_out
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
