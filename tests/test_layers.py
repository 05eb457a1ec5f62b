"""Layer forward/backward contracts against brute-force oracles.

The oracles here are written as plain nested loops, independent of the
implementation's flat shift-and-accumulate products, so agreement is
meaningful.  The per-offset tensordot formulation those products
replaced is kept here too, as the reference they match byte for byte,
and so are the unblocked correlation and tensordot kernel gradient that
the cache-blocked forms replaced, the scatter input gradient that the
reversed correlation replaced, the split-by-sign sigmoid, and the
argmax pooling that the window-plane tournament replaced.  The gathered
correlation of a few-channel input and every kernel gradient sum in
another order, so they are held to the same references within
rtol 1e-12 and atol 1e-12 times the reference's largest magnitude, as
is Winograd's form of a many-channel 5x5 correlation, against the layer
with Winograd's rule switched off.  Winograd's form is also held to a
direct correlation in long double, within the error its Kronecker-table
transforms had.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from paintnet import layers
from paintnet.data.rng import Rng
from paintnet.errors import ArgumentError, ShapeError
from paintnet.layers import (
    ACTIVATIONS,
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
from paintnet.optim import finite_difference_max_rel_error

from test_golden import _moved


def conv_oracle(x, weights, bias):
    """Direct quadruple-loop same-padding cross-correlation."""
    out_c, in_c, k, _ = weights.shape
    h, w = x.shape[1], x.shape[2]
    pad = k // 2
    out = np.zeros((out_c, h, w))
    for o in range(out_c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(in_c):
                    for di in range(k):
                        for dj in range(k):
                            si, sj = i + di - pad, j + dj - pad
                            if 0 <= si < h and 0 <= sj < w:
                                acc += x[c, si, sj] * weights[o, c, di, dj]
                out[o, i, j] = acc + bias[o]
    return out


def seeded_conv(in_c, out_c, k, activation, rng):
    """A conv layer with init_weights' kernel and zero bias."""
    return Conv2DLayer(init_weights((out_c, in_c, k, k), rng), np.zeros(out_c), activation)


def transpose_flip(weights):
    """Explicit elementwise construction of the tied decoder kernel."""
    out_c, in_c, k, _ = weights.shape
    flipped = np.zeros((in_c, out_c, k, k))
    for o in range(out_c):
        for c in range(in_c):
            for di in range(k):
                for dj in range(k):
                    flipped[c, o, k - 1 - di, k - 1 - dj] = weights[o, c, di, dj]
    return flipped


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_kinds():
    z = np.array([-2.0, 0.0, 3.0])
    npt.assert_array_equal(ACTIVATIONS["relu"][0](z), [0.0, 0.0, 3.0])
    npt.assert_array_equal(ACTIVATIONS["identity"][0](z), z)
    npt.assert_allclose(ACTIVATIONS["sigmoid"][0](z),
                        1.0 / (1.0 + np.exp(-z)), rtol=1e-14)


def test_activation_unknown_kind():
    # every layer constructor rejects a name ACTIVATIONS lacks
    for cls, weights in ((Conv2DLayer, np.zeros((1, 1, 3, 3))),
                         (Deconv2DLayer, np.zeros((1, 1, 3, 3))), (DenseLayer, np.zeros((1, 2)))):
        with pytest.raises(ArgumentError, match="unknown activation 'tanh'"):
            cls(weights, np.zeros(1), "tanh")


def test_relu_derivative_zero_at_kink():
    out = np.full(3, np.nan)
    d = ACTIVATIONS["relu"][1](np.array([-1.0, 0.0, 1.0]), out)
    assert d is out
    npt.assert_array_equal(d, [0.0, 0.0, 1.0])


def test_sigmoid_stable_at_extremes():
    s = ACTIVATIONS["sigmoid"][0](np.array([-1000.0, 1000.0]))
    assert 0.0 <= s[0] < 1e-10
    assert 1.0 - 1e-10 < s[1] <= 1.0
    assert np.all(np.isfinite(s))


# NaNs with distinct payloads (quiet, either sign), so a pooled NaN shows
# which window element it came from, and an activation's NaN whether it
# kept its sign and payload
NANS = np.array([0x7FF8000000000000 + k for k in range(1, 5)]
                + [0xFFF8000000000000 + k for k in range(1, 5)], dtype=np.uint64).view(np.float64)
SPECIALS = np.concatenate([[0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], NANS])


def split_sigmoid(z):
    """The sigmoid split by sign with masked gathers, as it was before."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bytes_match_split_by_sign():
    z = np.concatenate([SPECIALS, [1e-320, -1e-320, 36.7, -36.7, 745.0, -745.0, 1e308, -1e308],
                        np.random.default_rng(12).normal(scale=20.0, size=200)])
    sigmoid, derivative = ACTIVATIONS["sigmoid"]
    ref = split_sigmoid(z)
    assert_same_bytes(sigmoid(z), ref)
    assert_same_bytes(derivative(z, np.empty_like(z)), ref * (1.0 - ref))


def test_activation_derivatives_match_finite_differences():
    # away from the relu kink, rel. err < 1e-6
    z = np.array([-1.7, -0.3, 0.4, 2.2])
    eps = 1e-6
    for kind, (apply, derivative) in ACTIVATIONS.items():
        numeric = (apply(z + eps) - apply(z - eps)) / (2 * eps)
        out = np.full_like(z, np.nan)
        analytic = derivative(z, out)
        assert analytic is out, kind
        npt.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9, err_msg=kind)


def test_init_weights_bound():
    # uniform in +-sqrt(6/fan_in), fan_in every axis after the first
    for shape, fan_in in (((200, 6), 6), ((8, 3, 5, 5), 75)):
        w = init_weights(shape, Rng(3))
        lim = np.sqrt(6.0 / fan_in)
        npt.assert_array_equal(w, Rng(3).uniform_array(shape, -lim, lim))
        assert lim * 0.9 < np.abs(w).max() <= lim


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_conv_delta_kernel_is_identity():
    w = np.zeros((2, 2, 5, 5))
    w[0, 0, 2, 2] = 1.0
    w[1, 1, 2, 2] = 1.0
    layer = Conv2DLayer(w, np.zeros(2), "identity")
    x = Rng(0).uniform_array((2, 6, 6), -1.0, 1.0)
    y, _ = layer.forward(x)
    npt.assert_allclose(y, x, atol=1e-15)


def test_conv_constant_input_interior():
    w = np.ones((1, 1, 5, 5))
    layer = Conv2DLayer(w, np.zeros(1), "identity")
    x = np.full((1, 8, 8), 3.0)
    y, _ = layer.forward(x)
    # interior pixels see the whole 5x5 window
    npt.assert_allclose(y[0, 2:6, 2:6], 25.0 * 3.0, rtol=1e-14)


def test_conv_matches_loop_oracle():
    rng = Rng(1001)
    for trial in range(100):
        in_c = 1 + trial % 3
        out_c = 1 + (trial // 3) % 3
        h = 2 + trial % 7  # extents <= 8
        w = 2 + (trial // 7) % 7
        k = 5 if trial % 2 == 0 else 3
        layer = seeded_conv(in_c, out_c, k, "identity", rng)
        layer.bias[:] = rng.uniform_array((out_c,), -0.5, 0.5)
        x = rng.uniform_array((in_c, h, w), -1.0, 1.0)
        y, _ = layer.forward(x)
        expected = conv_oracle(x, layer.weights, layer.bias)
        npt.assert_allclose(y, expected, atol=1e-12)


def test_conv_channel_mismatch():
    layer = seeded_conv(3, 2, 5, "relu", Rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((2, 6, 6)))


def test_conv_even_kernel_rejected():
    with pytest.raises(ShapeError):
        Conv2DLayer(np.zeros((1, 1, 4, 4)), np.zeros(1), "relu")


def test_conv_activation_applied():
    w = np.zeros((1, 1, 5, 5))
    w[0, 0, 2, 2] = 1.0
    layer = Conv2DLayer(w, np.zeros(1), "relu")
    x = np.array([[[-1.0, 2.0], [3.0, -4.0]]])
    y, _ = layer.forward(x)
    npt.assert_array_equal(y, [[[0.0, 2.0], [3.0, 0.0]]])


def test_conv_backward_zero_upstream():
    layer = seeded_conv(2, 3, 5, "relu", Rng(5))
    x = Rng(6).uniform_array((2, 6, 6), -1.0, 1.0)
    _, cache = layer.forward(x)
    gx, grads = layer.backward(cache, np.zeros((3, 6, 6)))
    npt.assert_array_equal(gx, 0.0)
    npt.assert_array_equal(grads["W"], 0.0)
    npt.assert_array_equal(grads["b"], 0.0)


def test_conv_gradients_match_finite_differences():
    rng = Rng(77)
    layer = seeded_conv(2, 3, 5, "sigmoid", rng)
    x = rng.uniform_array((2, 5, 5), -1.0, 1.0)
    r = rng.uniform_array((3, 5, 5), -1.0, 1.0)

    def loss():
        y, _ = layer.forward(x)
        return float((y * r).sum())

    _, cache = layer.forward(x)
    gx, grads = layer.backward(cache, r)
    err = finite_difference_max_rel_error(
        loss, {"W": layer.weights, "b": layer.bias, "x": x},
        {"W": grads["W"], "b": grads["b"], "x": gx}, eps=1e-6)
    assert err < 1e-5


def corr_by_offset(x, weights, gz):
    """Same-padding correlation of x and its input and kernel gradients for map gradient gz.

    One tensordot per kernel offset on a copied window of the padded
    input: the formulation the flat shift-and-accumulate one replaced.
    """
    c, h, w = x.shape
    k = weights.shape[2]
    pad = k // 2
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    out = np.zeros((weights.shape[0], h, w))
    gxp = np.zeros_like(xp)
    gw = np.empty(weights.shape)
    for u in range(k):
        for v in range(k):
            window = xp[:, u:u + h, v:v + w]
            out += np.tensordot(weights[:, :, u, v], window, axes=(1, 0))
            gxp[:, u:u + h, v:v + w] += np.tensordot(weights[:, :, u, v], gz, axes=(0, 0))
            gw[:, :, u, v] = np.tensordot(gz, window, axes=([1, 2], [1, 2]))
    return out, gxp[:, pad:pad + h, pad:pad + w], gw


def assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_close_to_reference(actual, expected):
    """The tolerance of every gathered correlation and every kernel gradient."""
    assert actual.shape == expected.shape
    npt.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def gathers(channels):
    """Whether a correlation of an input with this many channels takes the gathered form."""
    return channels <= layers.GATHER_CHANNELS


# (in, out, k, h, w) of a conv, whose tied deconv maps out to in: k 1, 3
# and 5, h != w, odd widths, one input channel.
# BLAS may round the last few columns of a product in an edge kernel
# (OpenBLAS 0.3.31 on Haswell: the last h*w mod 4 of a one-row product,
# and the last h*w mod 8 <= 4 once a product sums 16 terms), and the two
# formulations lay a map out at different widths.  So every product here
# sums fewer than 16 terms, and a one-row one has h*w a multiple of 4.
# A correlation of at most layers.GATHER_CHANNELS input channels gathers
# and is held to assert_close_to_reference, as is every kernel gradient;
# the cases cover both sides of that rule, at k = 1 too.
RAGGED = [(3, 5, 5, 6, 9), (1, 4, 3, 8, 7), (2, 3, 1, 5, 11), (6, 2, 5, 9, 13),
          (4, 3, 3, 7, 4), (8, 3, 3, 6, 5), (6, 5, 1, 4, 7)]


@pytest.mark.parametrize("tied", [False, True], ids=["conv", "tied-deconv"])
@pytest.mark.parametrize("shape", RAGGED, ids=lambda s: "x".join(map(str, s)))
def test_correlation_bytes_match_per_offset_tensordot(shape, tied):
    in_c, out_c, k, h, w = shape
    rng = Rng(sum(shape))
    layer = seeded_conv(in_c, out_c, k, "relu", rng)
    if tied:
        layer = Deconv2DLayer.tied(layer, "relu")
    layer.bias[:] = rng.uniform_array(layer.bias.shape, -0.5, 0.5)
    x = rng.uniform_array((layer.in_channels, h, w), -1.0, 1.0)
    x[:, ::3, ::2] = -0.0  # signed zeros in, and relu's zero slopes give signed zeros in gz
    x[:, 1::3, ::2] = 0.0
    g = rng.uniform_array((layer.out_channels, h, w), -1.0, 1.0)

    y, cache = layer.forward(x)
    z = cache[1]
    out, gx_ref, gw_ref = corr_by_offset(x, layer.weights, g * (z > 0.0))
    if gathers(layer.in_channels):
        assert_close_to_reference(z, out + layer.bias[:, None, None])
    else:
        assert_same_bytes(z, out + layer.bias[:, None, None])
    assert_same_bytes(y, np.maximum(z, 0.0))

    gx, grads = layer.backward(cache, g)
    if gathers(layer.out_channels):
        assert_close_to_reference(gx, gx_ref)
    else:
        assert_same_bytes(gx, gx_ref)
    assert_close_to_reference(grads["W"], gw_ref)
    no_gx, no_gx_grads = layer.backward(cache, g, input_grad=False)
    assert no_gx is None
    assert no_gx_grads.keys() == grads.keys()
    for key in grads:
        assert_same_bytes(no_gx_grads[key], grads[key])


def unblocked_corr2d(x, weights):
    """_corr2d before column blocks: every offset's product adds straight into the map.

    Returns (map, padded x, the flat buffer padded x is a view of).
    """
    c, h, w = x.shape
    k = weights.shape[2]
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((c, hp * wp + k - 1), dtype=np.float64)
    xp = flat[:, :hp * wp].reshape(c, hp, wp)
    xp[:, pad:pad + h, pad:pad + w] = x
    # (k, k, out, in): a C-contiguous block per offset, which matmul hands to BLAS
    wk = np.ascontiguousarray(weights.transpose(2, 3, 0, 1))
    out = np.zeros((weights.shape[0], h * wp), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            s = u * wp + v
            out += wk[u, v] @ flat[:, s:s + h * wp]
    return out.reshape(-1, h, wp)[:, :, :w], xp, flat


def tensordot_weight_grad(xp, gz, k):
    """_corr2d_weight_grad before the transposed copy: one tensordot per offset."""
    h, w = gz.shape[1], gz.shape[2]
    gw = np.empty((gz.shape[0], xp.shape[0], k, k), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            gw[:, :, u, v] = np.tensordot(gz, xp[:, u:u + h, v:v + w], axes=([1, 2], [1, 2]))
    return gw


def scatter_input_grad(gz, weights):
    """The input gradient before it reused _corr2d: each offset's product scattered into it."""
    o, h, w = gz.shape
    k = weights.shape[2]
    pad = k // 2
    hp, wp = h + 2 * pad, w + 2 * pad
    gz_flat = np.zeros((o, h, wp), dtype=np.float64)
    gz_flat[:, :, :w] = gz
    gz_flat = gz_flat.reshape(o, h * wp)
    wt = np.ascontiguousarray(weights.transpose(2, 3, 1, 0))  # (k, k, in, out)
    gxp = np.zeros((weights.shape[1], hp * wp + k - 1), dtype=np.float64)
    for u in range(k):
        for v in range(k):
            s = u * wp + v
            gxp[:, s:s + h * wp] += wt[u, v] @ gz_flat
    return gxp[:, :hp * wp].reshape(-1, hp, wp)[:, pad:pad + h, pad:pad + w]


def reference_cases():
    """(x, weights, gz) of 320 correlations: k 1 to 7, up to 96 output or input
    channels, h*wp a multiple of 8 (blocked) and not (one block), signed
    zeros in x and gz, and input channels on both sides of layers.GATHER_CHANNELS.
    """
    gen = np.random.default_rng(1111)
    for case in range(320):
        k = (1, 3, 5, 7)[case % 4]
        if case >= 240:  # many input channels: several input-gradient blocks
            out_c, in_c = int(gen.integers(1, 17)), int(gen.integers(48, 97))
            h, w = (int(e) for e in gen.integers(24, 49, size=2))
        elif case % 3:
            out_c, in_c = int(gen.integers(1, 97)), int(gen.integers(1, 25))
            h, w = (int(e) for e in gen.integers(1, 41, size=2))
        else:  # wide maps at many output channels: several blocks
            out_c, in_c = int(gen.integers(48, 97)), int(gen.integers(1, 9))
            h, w = (int(e) for e in gen.integers(24, 49, size=2))
        wp = w + k - 1
        if case % 2:
            h += -h % (8 // math.gcd(wp, 8))  # the next h with h*wp a multiple of 8
        x = gen.normal(size=(in_c, h, w))
        x[gen.random(x.shape) < 0.2] = -0.0
        x[gen.random(x.shape) < 0.1] = 0.0
        weights = gen.normal(size=(out_c, in_c, k, k))
        gz = gen.normal(size=(out_c, h, w))
        gz[gen.random(gz.shape) < 0.2] = -0.0
        yield x, weights, gz


def correlation_and_gradients(x, weights, gz):
    """_corr2d's map and flat buffer, and the layer's input and kernel gradients for gz."""
    out, flat = layers._corr2d(x, weights)
    gx, grads = Conv2DLayer(weights, np.zeros(weights.shape[0]), "identity").backward(
        (flat, out), gz)
    return out, flat, gx, grads["W"]


def several_blocks(rows, h, wp):
    """Whether 16 bytes a row of h*wp columns exceed BLOCK_BYTES: several column blocks."""
    return 16 * rows * h * wp > layers.BLOCK_BYTES


def test_correlation_bytes_match_unblocked_reference():
    # the shift-and-add forward, its column blocks and the input gradient's
    # reversed correlation against the code they replaced.  Where h*wp is
    # not a multiple of 8, the reversal moves other columns of the input
    # gradient's products into the BLAS's edge kernel, so there it is held
    # to 1e-12.  The gathered forms are test_gathered_correlation_...'s.
    blocked = grad_blocked = shifted = 0
    for x, weights, gz in reference_cases():
        (out_c, in_c, k, _), (_, h, w) = weights.shape, x.shape
        wp = w + k - 1
        aligned = h * wp % 8 == 0
        out, flat, gx, _ = correlation_and_gradients(x, weights, gz)
        ref_out, ref_xp, ref_flat = unblocked_corr2d(x, weights)
        assert_same_bytes(flat, ref_flat)
        if not gathers(in_c):
            shifted += 1
            blocked += aligned and several_blocks(out_c, h, wp)
            assert_same_bytes(out, ref_out)
        if not gathers(out_c):
            grad_blocked += aligned and several_blocks(in_c, h, wp)
            ref_gx = scatter_input_grad(gz, weights)
            if aligned:
                assert_same_bytes(gx, ref_gx)
            else:
                npt.assert_allclose(gx, ref_gx, rtol=1e-12, atol=0)
    assert shifted >= 200
    assert blocked >= 30
    assert grad_blocked >= 40


def test_gathered_correlation_and_kernel_gradients_match_unblocked_reference():
    # the gathered forward and input gradient, and every kernel gradient, in
    # either form, against the same reference loops, within
    # assert_close_to_reference's tolerance
    gathered = gathered_blocked = grad_gathered = kernel_gathered = kernel_gathered_blocked = 0
    for x, weights, gz in reference_cases():
        (out_c, in_c, k, _), (_, h, w) = weights.shape, x.shape
        wp = w + k - 1
        out, _, gx, gw = correlation_and_gradients(x, weights, gz)
        ref_out, ref_xp, _ = unblocked_corr2d(x, weights)
        if gathers(in_c):
            gathered += 1
            gathered_blocked += several_blocks(k * k * in_c, h, wp)
            assert_close_to_reference(out, ref_out)
        if gathers(out_c):
            grad_gathered += 1
            assert_close_to_reference(gx, scatter_input_grad(gz, weights))
        if out_c >= layers.GRAD_GATHER_RATIO * in_c:
            kernel_gathered += 1
            kernel_gathered_blocked += several_blocks(k * k * in_c, h, wp)
        assert_close_to_reference(gw, tensordot_weight_grad(ref_xp, gz, k))
    assert gathered >= 60
    assert gathered_blocked >= 15
    assert grad_gathered >= 20
    assert 150 <= kernel_gathered <= 170  # and the rest take the uncopied view
    assert kernel_gathered_blocked >= 60


def winograd_paths(in_c, out_c, k, h, w):
    """Which of a conv's forward, input gradient and kernel gradient take Winograd's form."""
    return (layers._winograd(in_c, out_c, k, h, w), layers._winograd(out_c, in_c, k, h, w),
            layers._winograd(in_c, out_c, k, h, w))


def test_byte_reference_cases_take_no_winograd():
    # the byte and gathered reference tests above hold the other forms to
    # the code they replaced; none of their cases may reach Winograd's
    shapes = [(w.shape[1], w.shape[0], w.shape[2]) + x.shape[1:] for x, w, _ in reference_cases()]
    shapes += [(in_c, out_c, k, h, w) for in_c, out_c, k, h, w in RAGGED]
    assert not any(any(winograd_paths(*shape)) for shape in shapes)


# ---------------------------------------------------------------------------
# Winograd F(4x4, 5x5)
# ---------------------------------------------------------------------------

def test_winograd_transforms_obey_the_exact_law():
    # in rationals, Aᵀ[(G g) ⊙ (Bᵀ d)] is the 5-tap correlation of an
    # 8-sample d, y_i = sum_j g_j d_(i+j), for every pair of basis vectors,
    # so for every (g, d) by bilinearity
    at, g, bt = layers._winograd_transforms(Fraction)
    assert (len(at), len(at[0]), len(g), len(g[0]), len(bt), len(bt[0])) == (4, 8, 8, 5, 8, 8)
    for tap in range(5):
        for sample in range(8):
            y = [sum(at[i][x] * g[x][tap] * bt[x][sample] for x in range(8)) for i in range(4)]
            assert y == [int(i + tap == sample) for i in range(4)], (tap, sample)
    # each float64 entry of the 1-D tables, and of the arrays the layers
    # use, is its exact value rounded once
    rounded = lambda exact: [[float(e) for e in row] for row in exact]
    for table, exact in zip(layers._winograd_transforms(), (at, g, bt)):
        assert table == rounded(exact)
    for table, exact in zip((layers._AT, layers._G, layers._BT), (at, g, bt)):
        assert table.dtype == np.float64 and table.tolist() == rounded(exact)


def test_winograd_separable_transforms_give_the_exact_2d_correlation():
    # the layers' own two-product transforms, run in rationals on every
    # basis 5x5 kernel (tap (p, q)) and basis 8x8 tile (sample (r, s)):
    # Aᵀ[(G g Gᵀ) ⊙ (Bᵀ d B)]A must be the 4x4 correlation
    # y[a, b] = sum g[p', q'] d[a + p', b + q'], which is 1 where
    # (r, s) = (a + p, b + q) and 0 elsewhere; so for every (g, d)
    at, g, bt = (np.array(t, dtype=object) for t in layers._winograd_transforms(Fraction))
    sandwich = lambda t, x: layers._sandwich(
        t, x, np.empty(t.shape[0] * x.size // t.shape[1], dtype=object),
        np.empty((t.shape[0], t.shape[0]) + x.shape[2:], dtype=object))
    u = sandwich(g, np.eye(25, dtype=int).astype(object).reshape(5, 5, 25))
    v = sandwich(bt, np.eye(64, dtype=int).astype(object).reshape(8, 8, 64))
    y = sandwich(at, u[:, :, :, None] * v[:, :, None, :])
    a, b, p, q, r, s = np.indices((4, 4, 5, 5, 8, 8))
    assert (y.reshape(a.shape) == ((r == a + p) & (s == b + q))).all()


def winograd_cases():
    """(x, weights, gz) of 24 conv shapes that take Winograd's form on all three paths:
    map sides 4 to 64 (h != w among them), 32 to 96 channels, signed zeros in x and gz."""
    gen = np.random.default_rng(2222)
    for case in range(24):
        h, w = (4 * int(e) for e in gen.integers(1, 17, size=2))
        if case < 4:
            h, w = (64, 64) if case < 2 else (4, 4)
        in_c, out_c = (int(e) for e in gen.integers(32, 97, size=2))
        x = gen.normal(size=(in_c, h, w))
        x[gen.random(x.shape) < 0.2] = -0.0
        x[gen.random(x.shape) < 0.1] = 0.0
        weights = gen.normal(size=(out_c, in_c, 5, 5))
        gz = gen.normal(size=(out_c, h, w))
        gz[gen.random(gz.shape) < 0.2] = -0.0
        yield x, weights, gz


def test_winograd_paths_match_the_forms_they_replace(monkeypatch):
    # Winograd's forward, input gradient and kernel gradient against the
    # same layer with the rule switched off: the shift-and-add forward, the
    # reversed input gradient and the per-offset kernel gradient
    cases = list(winograd_cases())
    for x, weights, _ in cases:
        (out_c, in_c, k, _), (_, h, w) = weights.shape, x.shape
        assert winograd_paths(in_c, out_c, k, h, w) == (True, True, True)
    got = [correlation_and_gradients(x, weights, gz) for x, weights, gz in cases]
    monkeypatch.setattr(layers, "WINOGRAD_CHANNELS", 10 ** 9)
    for (x, weights, gz), (out, flat, gx, gw) in zip(cases, got):
        ref_out, ref_flat, ref_gx, ref_gw = correlation_and_gradients(x, weights, gz)
        assert_same_bytes(flat, ref_flat)
        assert_close_to_reference(out, ref_out)
        assert_close_to_reference(gx, ref_gx)
        assert_close_to_reference(gw, ref_gw)
        assert out.flags.c_contiguous and gx.flags.c_contiguous


def test_winograd_gradients_match_central_differences():
    # an identity-activation layer is linear in each of W, b and x, so a
    # central difference has no truncation error and only rounding remains
    rng = Rng(88)
    layer = seeded_conv(32, 32, 5, "identity", rng)
    layer.bias[:] = rng.uniform_array((32,), -0.5, 0.5)
    x = rng.uniform_array((32, 8, 8), -1.0, 1.0)
    r = rng.uniform_array((32, 8, 8), -1.0, 1.0)
    assert winograd_paths(32, 32, 5, 8, 8) == (True, True, True)
    _, cache = layer.forward(x)
    gx, grads = layer.backward(cache, r)
    arrays = {"W": (layer.weights, grads["W"]), "b": (layer.bias, grads["b"]), "x": (x, gx)}
    gen = np.random.default_rng(89)
    names = gen.choice(["W", "W", "b", "x", "x"], size=200)
    eps = 1e-3
    worst = 0.0
    for name in names:
        arr, analytic = arrays[name]
        i = tuple(int(gen.integers(0, n)) for n in arr.shape)
        orig = arr[i]
        diffs = []
        for step in (eps, -eps):
            arr[i] = orig + step
            diffs.append(float((layer.forward(x)[0] * r).sum()))
        arr[i] = orig
        numeric = (diffs[0] - diffs[1]) / (2 * eps)
        worst = max(worst, abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8))
    assert set(names) == {"W", "b", "x"}
    assert worst < 1e-6


def extended_reference(x, weights, gz):
    """The forward map, input gradient and kernel gradient of a 5x5 same correlation, in long double."""
    (_, h, w), k = x.shape, weights.shape[2]
    pad = lambda a: np.pad(a.astype(np.longdouble), ((0, 0), (2, 2), (2, 2)))
    xp, gzp, gzl = pad(x), pad(gz), gz.astype(np.longdouble)
    wl = weights.astype(np.longdouble)
    wf = wl.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    out = np.zeros((wl.shape[0], h, w), dtype=np.longdouble)
    gx = np.zeros((wl.shape[1], h, w), dtype=np.longdouble)
    gw = np.empty_like(wl)
    for u in range(k):
        for v in range(k):
            out += np.tensordot(wl[:, :, u, v], xp[:, u:u + h, v:v + w], axes=(1, 0))
            gx += np.tensordot(wf[:, :, u, v], gzp[:, u:u + h, v:v + w], axes=(1, 0))
            gw[:, :, u, v] = np.tensordot(gzl, xp[:, u:u + h, v:v + w], axes=([1, 2], [1, 2]))
    return out, gx, gw


# the worst max|error| / max|reference| of the forward, the input gradient
# and the kernel gradient over the cases below, read with each 2-D
# transform as one product with a Kronecker table kron(t, t), the form the
# separable products replaced; the separable form reads 7.9e-15, 7.3e-15
# and 8.4e-15
KRONECKER_ERRORS = (8.38e-15, 8.35e-15, 1.33e-14)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than double here")
def test_winograd_is_no_less_accurate_than_the_kronecker_form():
    # every Winograd path against a direct correlation in long double
    # (64-bit significands on x86) of the same float64 operands
    gen = np.random.default_rng(7)
    worst = np.zeros(3)
    for in_c, out_c in ((32, 32), (40, 56), (72, 48), (32, 72), (64, 64), (56, 40)):
        assert winograd_paths(in_c, out_c, 5, 16, 16) == (True, True, True)
        x = gen.uniform(-1, 1, (in_c, 16, 16))
        weights = gen.uniform(-1, 1, (out_c, in_c, 5, 5)) * math.sqrt(6 / (25 * in_c))
        gz = gen.uniform(-1, 1, (out_c, 16, 16))
        out, _, gx, gw = correlation_and_gradients(x, weights, gz)
        for n, (got, ref) in enumerate(zip((out, gx, gw), extended_reference(x, weights, gz))):
            worst[n] = max(worst[n], float(np.abs(got - ref).max() / np.abs(ref).max()))
    assert (worst <= KRONECKER_ERRORS).all(), worst


# sha256 of (forward map, input gradient, kernel gradient) bytes of an
# identity-activation conv on seeded operands, every path in Winograd's
# form: the mid profile's conv2, the full profile's channels on a 16x16
# map, and the full profile's conv2 at 128x128.  CI runs this at two BLAS
# threads too
WINOGRAD_BYTES = {
    (32, 64, 64): ("4dbb57b3bac9f6c51c9f831807901446918924613436fac8d2c80cb561816927",
                   "a9aeefaf3ff82eb993a71117e4cc37debcb9966a7b9221bff9c32fd7cb2ed640",
                   "9d1dbfdc354619b191c3b7a031602d0bc5845097203e8631cc7420f88be09921"),
    (100, 200, 16): ("00b3ebd5ccd6e1979a69be80e2ec74b75a7043ceca14edddf72cd11fa7858ad6",
                     "05548e59025aff94b722c1c366f60242614105e0e0d1ddddaf75c58272f71f8b",
                     "998e2d10fba28133dcf84a8fb22bfd82d945e548ae55e56929fae4ab4d53bd2f"),
    (100, 200, 128): ("87af5f7cb644f7be22510d030686432c9c124fcf01fe5a5252533879d37769bf",
                      "a50b570376f62f707a407ec5d474f4b6ac4da387ee5fd82fa82751f03206e539",
                      "293d82ebc0e3fd391fb65d0da503bc523a6b6fca57d71852a6068365033a98d4"),
}


@pytest.mark.parametrize("shape", WINOGRAD_BYTES, ids=lambda s: "{}to{}@{}".format(*s))
def test_winograd_bytes_are_pinned(shape):
    in_c, out_c, side = shape
    assert winograd_paths(in_c, out_c, 5, side, side) == (True, True, True)
    rng = Rng(sum(shape))
    layer = seeded_conv(in_c, out_c, 5, "identity", rng)
    x = rng.uniform_array((in_c, side, side), -1.0, 1.0)
    g = rng.uniform_array((out_c, side, side), -1.0, 1.0)
    y, cache = layer.forward(x)
    gx, grads = layer.backward(cache, g)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (y, gx, grads["W"]))
    assert got == WINOGRAD_BYTES[shape], _moved()


# ---------------------------------------------------------------------------
# pooling / unpooling
# ---------------------------------------------------------------------------

def test_pool_single_window():
    y, s = maxpool2x2_forward(np.array([[[1.0, 3.0], [2.0, 0.0]]]))
    npt.assert_array_equal(y, [[[3.0]]])
    assert s.dtype == np.int64 and s.shape == (1, 1, 1)
    assert np.unravel_index(s[0, 0, 0], (1, 2, 2))[1:] == (0, 1)


def test_pool_tie_first_in_row_major_order():
    y, s = maxpool2x2_forward(np.array([[[5.0, 5.0], [0.0, 0.0]]]))
    npt.assert_array_equal(y, [[[5.0]]])
    assert np.unravel_index(s[0, 0, 0], (1, 2, 2))[1:] == (0, 0)
    # all-equal window also picks the top-left corner
    _, s2 = maxpool2x2_forward(np.full((1, 2, 2), 7.0))
    assert np.unravel_index(s2[0, 0, 0], (1, 2, 2))[1:] == (0, 0)


def test_pool_matches_bruteforce():
    rng = Rng(88)
    for _ in range(50):
        x = rng.uniform_array((1, 4, 4), -1.0, 1.0)
        y, s = maxpool2x2_forward(x)
        _, rows, cols = np.unravel_index(s, x.shape)
        for i in range(2):
            for j in range(2):
                window = x[0, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert y[0, i, j] == window.max()
                r, c = int(rows[0, i, j]), int(cols[0, i, j])
                assert x[0, r, c] == window.max()
                assert 2 * i <= r < 2 * i + 2 and 2 * j <= c < 2 * j + 2


def test_pool_leaves_a_single_window_untouched():
    # one channel, one window: the de-interleaved planes were x itself
    x = np.array([[[0.0, -0.0], [-1.0, 2.0]]])
    before = x.copy()
    for keep in (True, False):
        y, _ = maxpool2x2_forward(x, keep=keep)
        assert_same_bytes(x, before)
        assert y[0, 0, 0] == 2.0


def test_pool_odd_extent_rejected():
    with pytest.raises(ShapeError):
        maxpool2x2_forward(np.zeros((1, 3, 4)))


def test_unpool_single_value():
    x = np.array([[[1.0, 3.0], [2.0, 0.0]]])
    p, s = maxpool2x2_forward(x)
    up = unpool2x2_forward(p, s)
    npt.assert_array_equal(up, [[[0.0, 3.0], [0.0, 0.0]]])


def test_unpool_zeros_stay_zero():
    x = Rng(3).uniform_array((2, 4, 4), 0.0, 1.0)
    _, s = maxpool2x2_forward(x)
    npt.assert_array_equal(unpool2x2_forward(np.zeros((2, 2, 2)), s), np.zeros((2, 4, 4)))


def test_unpool_shape_mismatch():
    x = Rng(4).uniform_array((2, 4, 4), 0.0, 1.0)
    _, s = maxpool2x2_forward(x)
    with pytest.raises(ShapeError):
        unpool2x2_forward(np.zeros((2, 3, 3)), s)


def test_pool_unpool_roundtrip_exact():
    # nonzeros of unpool(pool(x)) are exactly the per-window maxima in place
    rng = Rng(2024)
    for _ in range(200):
        c = 1 + rng.below(3)
        h = 2 * (1 + rng.below(4))
        w = 2 * (1 + rng.below(4))
        x = rng.uniform_array((c, h, w), 0.05, 1.0)
        p, s = maxpool2x2_forward(x)
        up = unpool2x2_forward(p, s)
        chan, rows, cols = np.unravel_index(s, x.shape)
        npt.assert_array_equal(up[chan, rows, cols], p)
        rest = up.copy()
        rest[chan, rows, cols] = 0.0
        assert not rest.any()  # zero everywhere off the switch positions


def test_repool_identity_exact():
    # pooling an unpooled map returns the map and switches bit-exactly
    rng = Rng(2025)
    for _ in range(200):
        c = 1 + rng.below(2)
        h = 2 * (1 + rng.below(4))
        w = 2 * (1 + rng.below(4))
        source = rng.uniform_array((c, h, w), 0.05, 1.0)
        _, s = maxpool2x2_forward(source)
        v = rng.uniform_array((c, h // 2, w // 2), 0.05, 1.0)
        up = unpool2x2_forward(v, s)
        v2, s2 = maxpool2x2_forward(up)
        npt.assert_array_equal(v2, v)
        _, rows, cols = np.unravel_index(s, source.shape)
        _, rows2, cols2 = np.unravel_index(s2, up.shape)
        npt.assert_array_equal(rows2, rows)
        npt.assert_array_equal(cols2, cols)


def test_pool_backward_equals_unpool_of_gradient():
    rng = Rng(2026)
    x = rng.uniform_array((3, 6, 6), 0.0, 1.0)
    _, s = maxpool2x2_forward(x)
    g = rng.uniform_array((3, 3, 3), -1.0, 1.0)
    npt.assert_array_equal(maxpool2x2_backward(s, g), unpool2x2_forward(g, s))


def test_unpool_backward_gathers():
    rng = Rng(2027)
    x = rng.uniform_array((2, 4, 4), 0.0, 1.0)
    _, s = maxpool2x2_forward(x)
    g_out = rng.uniform_array((2, 4, 4), -1.0, 1.0)
    g_in = unpool2x2_backward(s, g_out)
    _, rows, cols = np.unravel_index(s, x.shape)
    for c in range(2):
        for i in range(2):
            for j in range(2):
                assert g_in[c, i, j] == g_out[c, rows[c, i, j], cols[c, i, j]]


def argmax_pool_reference(x):
    """2x2 max-pool by argmax over a copied window axis: (pooled, rows, cols).

    argmax takes the first maximum in row-major window order, and the
    first NaN where a window holds one; the value is read back at that
    index, so its sign bit and NaN payload are the input's.
    """
    c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = x.reshape(c, h2, 2, w2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, 4)
    idx = win.argmax(axis=3)
    pooled = np.take_along_axis(win, idx[..., None], axis=3)[..., 0]
    rows = 2 * np.arange(h2, dtype=np.int64)[None, :, None] + idx // 2
    cols = 2 * np.arange(w2, dtype=np.int64)[None, None, :] + idx % 2
    return pooled, rows, cols


def pool_draws():
    """(case, x, gen): 1500 pool inputs over SPECIALS or half-integers, every other one strided.

    gen is the generator that drew x, for any further draws of the case.
    """
    gen = np.random.default_rng(909)
    for case in range(1500):
        c = int(gen.integers(1, 4))
        h, w = 2 * gen.integers(1, 5, size=2)
        if h == w:
            w = 2 if h == 8 else w + 2
        shape = (c, int(h), int(w))
        draws = (gen.choice(SPECIALS, size=shape) if case % 3 else
                 np.round(gen.normal(size=shape) * 2.0) / 2.0)
        if case % 2:  # strided views reach pool and unpool backward from the conv layers
            big = np.zeros((c, shape[1] + 1, shape[2] + 2))
            big[:, 1:, 1:-1] = draws
            yield case, big[:, 1:, 1:-1], gen
        else:
            yield case, draws, gen


def test_pool_bytes_match_argmax_reference():
    for case, x, gen in pool_draws():
        c, shape = x.shape[0], x.shape
        pooled, s = maxpool2x2_forward(x)
        ref_pooled, ref_rows, ref_cols = argmax_pool_reference(x)
        assert_same_bytes(pooled, ref_pooled)
        _, rows, cols = np.unravel_index(s, x.shape)
        assert_same_bytes(rows, ref_rows)
        assert_same_bytes(cols, ref_cols)

        chan = np.arange(c)[:, None, None]
        ref_up = np.zeros(shape)
        ref_up[chan, ref_rows, ref_cols] = pooled
        assert_same_bytes(unpool2x2_forward(pooled, s), ref_up)
        assert_same_bytes(maxpool2x2_backward(s, pooled), ref_up)
        g = gen.choice(SPECIALS, size=shape)
        g_view = g if case % 2 == 0 else g.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        assert_same_bytes(unpool2x2_backward(s, g_view), g[chan, ref_rows, ref_cols])


def pool_windows(x):
    """(c, h/2, w/2, 4): each 2x2 window's elements in column-major order (tl, bl, tr, br)."""
    c, h, w = x.shape
    return x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 4, 2).reshape(c, h // 2, w // 2, 4)


def test_values_only_pool_contract():
    # keep=False: no switches; values byte-equal to the argmax reference
    # wherever no window's maximum is a (+0.0, -0.0) tie, a NaN window's
    # first NaN, and on a tie the last tied element in column-major order
    ties = 0
    for _, x, _ in pool_draws():
        pooled, switches = maxpool2x2_forward(x, keep=False)
        assert switches is None
        ref, _, _ = argmax_pool_reference(x)
        win = pool_windows(x)
        zeros = win == 0.0
        tie = ((ref == 0.0) & (zeros & np.signbit(win)).any(axis=3)
               & (zeros & ~np.signbit(win)).any(axis=3))
        ties += int(tie.sum())
        assert_same_bytes(pooled[~tie], ref[~tie])
        last = 3 - (zeros[..., ::-1]).argmax(axis=3)
        assert_same_bytes(pooled[tie], np.take_along_axis(win, last[..., None], axis=3)[..., 0][tie])
    assert ties > 100  # the draws reach the rule that differs


def test_values_only_pool_zero_ties():
    # np.maximum(+0.0, -0.0) is -0.0, its second operand, and the rows are
    # compared first; the switches' values take the first zero in row-major order
    for window, last, first in (([[0.0, -0.0], [-1.0, -1.0]], -0.0, 0.0),
                                ([[-0.0, 0.0], [-1.0, -1.0]], 0.0, -0.0),
                                ([[0.0, -1.0], [-0.0, -1.0]], -0.0, 0.0),
                                ([[0.0, -0.0], [-0.0, 0.0]], 0.0, 0.0)):
        x = np.array([window])
        assert_same_bytes(maxpool2x2_forward(x, keep=False)[0], np.full((1, 1, 1), last))
        assert_same_bytes(maxpool2x2_forward(x)[0], np.full((1, 1, 1), first))


def test_inference_conv_matches_its_training_forward_then_pool():
    # keep=False, pooled or not, against the training forward and the
    # switches' pool: a relu conv pools its raw correlation first unless its
    # bias is not finite or a pooled sum holds a NaN.  b = +inf over a window
    # holding -inf is the case where pooling first would give inf, not NaN
    rng = Rng(31)
    weights = init_weights((4, 3, 3, 3), rng)
    base = rng.uniform_array((3, 8, 10), -1.0, 1.0)
    inputs = [base, np.zeros_like(base)]
    for pixel in (np.nan, np.inf, -np.inf):
        inputs.append(base.copy())
        inputs[-1][1, 4, 5] = pixel
    biases = [rng.uniform_array((4,), -0.5, 0.5), np.zeros(4), np.full(4, -0.0),
              np.full(4, np.inf), np.full(4, -np.inf), np.array([np.inf, -np.inf, 0.5, np.nan])]
    for activation in ("relu", "sigmoid"):
        for bias in biases:
            layer = Conv2DLayer(weights, bias, activation)
            for x in inputs:
                with np.errstate(invalid="ignore", over="ignore"):
                    y, _ = layer.forward(x)
                    pooled, _ = maxpool2x2_forward(y)
                    got, cache = layer.forward(x, keep=False)
                    assert cache is None
                    assert_same_bytes(got, y)
                    got, cache = layer.forward(x, keep=False, pool=maxpool2x2_forward)
                assert cache is None
                assert_same_bytes(got, pooled)


def test_inference_dense_matches_its_training_forward():
    rng = Rng(32)
    x = rng.uniform_array((6,), -1.0, 1.0)
    for activation in ACTIVATIONS:
        layer = DenseLayer(rng.uniform_array((5, 6), -1.0, 1.0), rng.uniform_array((5,), -1.0, 1.0),
                           activation)
        got, cache = layer.forward(x, keep=False)
        assert cache is None
        assert_same_bytes(got, layer.forward(x)[0])


# ---------------------------------------------------------------------------
# deconvolution
# ---------------------------------------------------------------------------

def test_deconv_tied_delta_kernel_identity():
    w = np.zeros((2, 2, 5, 5))
    w[0, 0, 2, 2] = 1.0
    w[1, 1, 2, 2] = 1.0
    enc = Conv2DLayer(w, np.zeros(2), "identity")
    dec = Deconv2DLayer.tied(enc, "identity")
    x = Rng(1).uniform_array((2, 6, 6), -1.0, 1.0)
    y, _ = dec.forward(x)
    npt.assert_allclose(y, x, atol=1e-15)


def test_deconv_learned_zero_kernel():
    dec = Deconv2DLayer(weights=np.zeros((2, 3, 5, 5)), bias=np.zeros(2),
                        activation="identity")
    y, _ = dec.forward(np.ones((3, 4, 4)))
    npt.assert_array_equal(y, np.zeros((2, 4, 4)))


def test_deconv_tied_matches_transpose_flip_oracle():
    rng = Rng(505)
    for trial in range(100):
        in_c = 1 + trial % 3
        out_c = 1 + (trial // 3) % 3
        h = 2 + trial % 6
        w = 2 + (trial // 5) % 6
        enc = seeded_conv(in_c, out_c, 5, "relu", rng)
        dec = Deconv2DLayer.tied(enc, "identity")
        dec.bias[:] = rng.uniform_array((in_c,), -0.5, 0.5)
        x = rng.uniform_array((out_c, h, w), -1.0, 1.0)
        y, _ = dec.forward(x)
        oracle_layer = Conv2DLayer(transpose_flip(enc.weights), dec.bias,
                                   "identity")
        expected, _ = oracle_layer.forward(x)
        npt.assert_allclose(y, expected, atol=1e-12)


def test_deconv_tied_shares_encoder_updates():
    # mutating the encoder kernel must change the tied decoder's output
    enc = seeded_conv(2, 3, 5, "identity", Rng(9))
    dec = Deconv2DLayer.tied(enc, "identity")
    x = Rng(10).uniform_array((3, 4, 4), -1.0, 1.0)
    y1, _ = dec.forward(x)
    enc.weights[:] += 0.1
    y2, _ = dec.forward(x)
    assert not np.allclose(y1, y2)


def test_deconv_adjoint_of_conv():
    # with zero bias and identity activation, <conv(x), y> == <x, deconv(y)>
    rng = Rng(606)
    enc = seeded_conv(3, 2, 5, "identity", rng)
    dec = Deconv2DLayer.tied(enc, "identity")
    x = rng.uniform_array((3, 6, 6), -1.0, 1.0)
    y = rng.uniform_array((2, 6, 6), -1.0, 1.0)
    conv_x, _ = enc.forward(x)
    deconv_y, _ = dec.forward(y)
    npt.assert_allclose(float((conv_x * y).sum()), float((x * deconv_y).sum()), rtol=1e-12)


def test_deconv_channel_mismatch():
    enc = seeded_conv(2, 3, 5, "relu", Rng(0))
    dec = Deconv2DLayer.tied(enc, "relu")
    with pytest.raises(ShapeError):
        dec.forward(np.zeros((2, 4, 4)))


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

def test_dense_identity_case():
    layer = DenseLayer(np.eye(3), np.zeros(3), "identity")
    x = np.array([1.0, -2.0, 0.5])
    y, _ = layer.forward(x)
    npt.assert_array_equal(y, x)


def test_dense_arithmetic_example():
    layer = DenseLayer(np.array([[1.0, 1.0]]), np.array([1.0]), "identity")
    y, _ = layer.forward(np.array([2.0, 3.0]))
    npt.assert_array_equal(y, [6.0])


def test_dense_relu_clips():
    layer = DenseLayer(np.eye(2), np.zeros(2), "relu")
    y, _ = layer.forward(np.array([-1.0, 2.0]))
    npt.assert_array_equal(y, [0.0, 2.0])


def test_dense_keeps_float64_weights_uncopied():
    w = np.ones((2, 3))
    assert DenseLayer(w, np.zeros(2), "identity").weights is w
    layer = DenseLayer([[1, 2, 3]], np.zeros(1), "identity")
    assert layer.weights.dtype == np.float64 and layer.weights.shape == (1, 3)


def test_dense_backward_transpose_oracle():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    layer = DenseLayer(w, np.zeros(2), "identity")
    x = np.array([0.5, -1.5])
    _, cache = layer.forward(x)
    g = np.array([1.0, -1.0])
    gx, grads = layer.backward(cache, g)
    grads = materialize(grads)
    npt.assert_array_equal(gx, w.T @ g)
    npt.assert_array_equal(grads["W"], np.outer(g, x))
    npt.assert_array_equal(grads["b"], g)
    no_gx, no_gx_grads = layer.backward(cache, g, input_grad=False)
    no_gx_grads = materialize(no_gx_grads)
    assert no_gx is None
    npt.assert_array_equal(no_gx_grads["W"], grads["W"])
    npt.assert_array_equal(no_gx_grads["b"], grads["b"])


def test_dense_length_mismatch():
    layer = DenseLayer(init_weights((2, 4), Rng(0)), np.zeros(2), "relu")
    with pytest.raises(ShapeError):
        layer.forward(np.zeros(5))


# ---------------------------------------------------------------------------
# input checks: each names the bad shape or value
# ---------------------------------------------------------------------------

def _conv_backward(grad_shape):
    layer = seeded_conv(3, 2, 3, "relu", Rng(0))
    _, cache = layer.forward(np.zeros((3, 6, 6)))
    return layer.backward(cache, np.zeros(grad_shape))


def _dense_backward(grad_shape):
    layer = DenseLayer(np.ones((2, 3)), np.zeros(2), "relu")
    _, cache = layer.forward(np.zeros(3))
    return layer.backward(cache, np.zeros(grad_shape))


def _switches():
    return maxpool2x2_forward(np.zeros((2, 4, 4)))[1]


@pytest.mark.parametrize("call, raised, message", [
    (lambda: Conv2DLayer(np.zeros((2, 3, 5)), np.zeros(2), "relu"),
     ShapeError, r"conv weights must be \(out, in, k, k\), got \(2, 3, 5\)"),
    (lambda: Conv2DLayer(np.zeros((2, 3, 5, 5)), np.zeros(3), "relu"),
     ShapeError, r"conv bias shape \(3,\) does not match 2 filters"),
    (lambda: _conv_backward((2, 6, 5)),
     ShapeError, r"conv grad shape \(2, 6, 5\) does not match output \(2, 6, 6\)"),
    (lambda: maxpool2x2_forward(np.zeros((4, 4))),
     ShapeError, r"pool input must be \(c, h, w\), got \(4, 4\)"),
    (lambda: unpool2x2_forward(np.zeros((2, 2)), _switches()),
     ShapeError, r"unpool input must be \(c, h, w\), got \(2, 2\)"),
    (lambda: unpool2x2_backward(_switches(), np.zeros((2, 4, 2))),
     ShapeError, r"unpool grad \(2, 4, 2\) does not match switches \(2, 4, 4\)"),
    (lambda: DenseLayer(np.zeros(3), np.zeros(3), "relu"),
     ShapeError, r"dense weights must be \(out, in\), got \(3,\)"),
    (lambda: DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu"),
     ShapeError, r"dense bias shape \(3,\) does not match 2 units"),
    (lambda: _dense_backward((3,)),
     ShapeError, r"dense grad shape \(3,\) does not match output \(2,\)"),
    (lambda: softmax(np.zeros(0)),
     ShapeError, r"non-empty vector, got \(0,\)"),
    (lambda: softmax(np.zeros((2, 2))),
     ShapeError, r"non-empty vector, got \(2, 2\)"),
    (lambda: cross_entropy(np.full((2, 2), 0.25), 0),
     ShapeError, r"probability vector, got \(2, 2\)"),
    (lambda: softmax_xent_grad(np.array([0.5, 0.5]), 2),
     IndexError, r"target 2 out of range for 2 classes"),
], ids=["conv-weights-rank", "conv-bias", "conv-grad", "pool-rank", "unpool-rank",
        "unpool-grad", "dense-weights-rank", "dense-bias", "dense-grad", "softmax-empty",
        "softmax-rank", "xent-rank", "xent-grad-target"])
def test_input_checks_name_the_bad_shape(call, raised, message):
    with pytest.raises(raised, match=message):
        call()


# ---------------------------------------------------------------------------
# softmax and cross-entropy
# ---------------------------------------------------------------------------

def test_softmax_examples():
    npt.assert_allclose(softmax(np.array([1.0, 1.0, 1.0])), [1 / 3] * 3, rtol=1e-14)
    npt.assert_allclose(softmax(np.array([0.0, np.log(2.0), 0.0])),
                        [0.25, 0.5, 0.25], rtol=1e-14)
    huge = softmax(np.array([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(huge))
    npt.assert_allclose(huge, [1 / 3] * 3, rtol=1e-14)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
       st.floats(-1000, 1000))
@settings(max_examples=50)
def test_softmax_normalized_and_shift_invariant(logits, shift):
    z = np.array(logits)
    p = softmax(z)
    assert abs(p.sum() - 1.0) < 1e-12
    npt.assert_allclose(softmax(z + shift), p, atol=1e-12)


def test_cross_entropy_examples():
    assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0
    assert cross_entropy(np.array([1 / 3, 1 / 3, 1 / 3]), 2) == pytest.approx(np.log(3.0))
    assert cross_entropy(np.array([0.0, 1.0]), 0) == pytest.approx(-np.log(1e-12))


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        cross_entropy(np.array([0.5, 0.5]), 2)
    with pytest.raises(IndexError):
        cross_entropy(np.array([0.5, 0.5]), -1)


def test_softmax_xent_grad_is_probs_minus_onehot():
    logits = np.array([0.2, -1.0, 0.7])
    p = softmax(logits)
    g = softmax_xent_grad(p, 1)
    expected = p.copy()
    expected[1] -= 1.0
    npt.assert_array_equal(g, expected)


def test_softmax_xent_grad_matches_finite_differences():
    logits = Rng(70).uniform_array((6,), -2.0, 2.0)
    target = 3

    def loss():
        return cross_entropy(softmax(logits), target)

    analytic = softmax_xent_grad(softmax(logits), target)
    err = finite_difference_max_rel_error(loss, {"z": logits}, {"z": analytic}, eps=1e-6)
    assert err < 1e-5
