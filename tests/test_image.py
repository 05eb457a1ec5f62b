"""PPM decoding, bilinear resampling, tensor conversion.

The whole-image float64 resampling that the gathered-block resampler
replaced is kept here as the reference it matches byte for byte.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintnet.data.image import ImageRGB, decode_ppm, resample_bilinear, to_tensor
from paintnet.errors import (
    ArgumentError,
    ImageFormatError,
    ImageUnsupportedError,
    ShapeError,
)

from conftest import encode_ppm, random_image


def gray(rows) -> ImageRGB:
    """Grayscale image from a 2-d list of byte values."""
    arr = np.asarray(rows, dtype=np.uint8)
    pixels = np.repeat(arr[:, :, None], 3, axis=2)
    return ImageRGB(width=arr.shape[1], height=arr.shape[0], pixels=pixels)


# ---------------------------------------------------------------------------
# ImageRGB validation
# ---------------------------------------------------------------------------

def test_image_rejects_bad_dims():
    with pytest.raises(ShapeError):
        ImageRGB(width=0, height=1, pixels=np.zeros((1, 0, 3), dtype=np.uint8))
    with pytest.raises(ShapeError):
        ImageRGB(width=2, height=1, pixels=np.zeros((1, 3, 3), dtype=np.uint8))
    with pytest.raises(ShapeError):
        ImageRGB(width=1, height=1, pixels=np.zeros((1, 1, 3), dtype=np.float64))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_two_pixel_example():
    data = b"P6 2 1 255 " + bytes([255, 0, 0, 0, 255, 0])
    img = decode_ppm(data)
    assert (img.width, img.height) == (2, 1)
    npt.assert_array_equal(img.pixels[0, 0], [255, 0, 0])
    npt.assert_array_equal(img.pixels[0, 1], [0, 255, 0])


def test_decode_rejects_ascii_magic():
    with pytest.raises(ImageFormatError):
        decode_ppm(b"P3 1 1 255 1 2 3")


def test_decode_rejects_short_payload():
    data = b"P6 2 2 255 " + bytes(9)  # needs 12
    with pytest.raises(ImageFormatError):
        decode_ppm(data)


def test_decode_rejects_other_maxval():
    with pytest.raises(ImageUnsupportedError):
        decode_ppm(b"P6 1 1 254 " + bytes(3))
    with pytest.raises(ImageUnsupportedError):
        decode_ppm(b"P6 1 1 65535 " + bytes(6))


def test_decode_rejects_truncated_header():
    with pytest.raises(ImageFormatError):
        decode_ppm(b"P6 2")
    with pytest.raises(ImageFormatError):
        decode_ppm(b"")


@pytest.mark.parametrize("data", [b"P6 1 1 255", b"P6 1 1 255#" + bytes(2)],
                         ids=["no-payload", "payload-glued-to-maxval"])
def test_decode_rejects_header_without_separator(data):
    with pytest.raises(ImageFormatError, match="missing separator before pixel payload"):
        decode_ppm(data)


def test_decode_rejects_zero_dims():
    with pytest.raises(ImageFormatError):
        decode_ppm(b"P6 0 1 255 ")


def test_decode_rejects_junk_dims():
    with pytest.raises(ImageFormatError):
        decode_ppm(b"P6 two 1 255 " + bytes(6))


def test_decode_tolerates_header_comments():
    data = b"P6\n# made by hand\n2 1\n# size above\n255\n" + bytes(
        [1, 2, 3, 4, 5, 6])
    img = decode_ppm(data)
    assert (img.width, img.height) == (2, 1)
    npt.assert_array_equal(img.pixels.reshape(-1), [1, 2, 3, 4, 5, 6])


def test_decode_comment_glued_to_token():
    img = decode_ppm(b"P6 2#c\n1 255\n" + bytes([1, 2, 3, 4, 5, 6]))
    assert (img.width, img.height) == (2, 1)
    npt.assert_array_equal(img.pixels.reshape(-1), [1, 2, 3, 4, 5, 6])


_SEPARATORS = [b" ", b"\t", b"\r", b"\n", b"\v", b"\f"]


@pytest.mark.parametrize("sep", _SEPARATORS, ids=["space", "tab", "cr", "lf", "vt", "ff"])
def test_decode_every_whitespace_byte_separates(sep):
    img = decode_ppm(sep.join([b"P6", b"1", b"2", b"255"]) + sep + bytes(range(6)))
    assert (img.width, img.height) == (1, 2)
    npt.assert_array_equal(img.pixels.reshape(-1), list(range(6)))


def test_decode_rejects_magic_glued_to_width():
    with pytest.raises(ImageFormatError, match="not a binary PPM"):
        decode_ppm(b"P62 1 255\n" + bytes(6))


def test_decode_rejects_final_comment_without_newline():
    with pytest.raises(ImageFormatError, match="truncated header"):
        decode_ppm(b"P6 2 1 # no newline")


_comment = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
_filler_piece = st.one_of(st.sampled_from(_SEPARATORS), _comment)
_filler = st.lists(_filler_piece, min_size=1, max_size=4).map(b"".join)


@settings(max_examples=60, deadline=None)
@given(st.lists(_filler_piece, max_size=3).map(b"".join), _filler, _filler, _filler,
       st.sampled_from(_SEPARATORS))
def test_decode_header_filler_does_not_change_pixels(lead, gap1, gap2, gap3, last):
    payload = bytes(range(10, 22))
    plain = decode_ppm(b"P6 2 2 255\n" + payload)
    img = decode_ppm(lead + b"P6" + gap1 + b"2" + gap2 + b"2" + gap3 + b"255" + last + payload)
    assert (img.width, img.height) == (plain.width, plain.height)
    npt.assert_array_equal(img.pixels, plain.pixels)


def test_decode_payload_starts_after_single_separator():
    # payload bytes that look like whitespace must survive
    data = b"P6 1 2 255\n" + bytes([10, 32, 13, 9, 10, 32])
    img = decode_ppm(data)
    npt.assert_array_equal(img.pixels.reshape(-1), [10, 32, 13, 9, 10, 32])


def test_roundtrip_random_images():
    rng = np.random.default_rng(6)
    for _ in range(25):
        w = int(rng.integers(1, 12))
        h = int(rng.integers(1, 12))
        img = random_image(rng, w, h)
        back = decode_ppm(encode_ppm(img))
        assert (back.width, back.height) == (img.width, img.height)
        npt.assert_array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("trailing", [b"", b"\nP6 9 9 255\n" + bytes(7)], ids=["exact", "trailing"])
def test_decode_pixels_are_a_read_only_view_of_the_payload(trailing):
    payload = bytes(range(100, 130))
    img = decode_ppm(b"P6\n5 2\n255\n" + payload + trailing)
    assert (img.width, img.height) == (5, 2)
    assert img.pixels.tobytes() == payload
    assert not img.pixels.flags.owndata
    with pytest.raises(ValueError):
        img.pixels[0, 0, 0] = 0


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_identity():
    rng = np.random.default_rng(7)
    img = random_image(rng, 5, 4)
    out = resample_bilinear(img, (4, 5))
    npt.assert_array_equal(out.pixels, img.pixels)
    assert np.shares_memory(out.pixels, img.pixels)


def test_resample_constant_stays_constant():
    pixels = np.full((3, 5, 3), 77, dtype=np.uint8)
    img = ImageRGB(width=5, height=3, pixels=pixels)
    for target in [(1, 1), (2, 7), (9, 3), (16, 16)]:
        out = resample_bilinear(img, target)
        assert (out.height, out.width) == target
        npt.assert_array_equal(out.pixels, 77)


def test_resample_two_rows_average():
    # rows 0 and 100; the single output center lands halfway between them
    img = gray([[0, 0], [100, 100]])
    out = resample_bilinear(img, (1, 1))
    npt.assert_array_equal(out.pixels.reshape(-1), [50, 50, 50])


def test_resample_half_pixel_centers_upscale():
    # 1x2 (0, 100) -> 1x4: centers at x = -0.25, 0.25, 0.75, 1.25 clamp to
    # the edge pixels outside and blend linearly inside
    img = gray([[0, 100]])
    out = resample_bilinear(img, (1, 4))
    npt.assert_array_equal(out.pixels[0, :, 0], [0, 25, 75, 100])


def test_resample_rejects_zero_target():
    img = gray([[1]])
    with pytest.raises(ArgumentError):
        resample_bilinear(img, (0, 1))
    with pytest.raises(ArgumentError):
        resample_bilinear(img, (1, 0))


def test_resample_output_within_source_range():
    rng = np.random.default_rng(8)
    for _ in range(20):
        img = random_image(rng, int(rng.integers(2, 10)), int(rng.integers(2, 10)))
        target = (int(rng.integers(1, 14)), int(rng.integers(1, 14)))
        out = resample_bilinear(img, target)
        for ch in range(3):
            src = img.pixels[:, :, ch]
            res = out.pixels[:, :, ch]
            assert res.min() >= src.min()
            assert res.max() <= src.max()


def test_resample_deterministic():
    rng = np.random.default_rng(9)
    img = random_image(rng, 7, 5)
    a = resample_bilinear(img, (11, 6))
    b = resample_bilinear(img, (11, 6))
    npt.assert_array_equal(a.pixels, b.pixels)


def reference_resample(img: ImageRGB, target: tuple[int, int]) -> np.ndarray:
    """Bilinear resampling over the whole source converted to float64 first."""
    th, tw = target
    sh, sw = img.height, img.width
    if (th, tw) == (sh, sw):
        return img.pixels.copy()
    ys = (np.arange(th, dtype=np.float64) + 0.5) * (sh / th) - 0.5
    xs = (np.arange(tw, dtype=np.float64) + 0.5) * (sw / tw) - 0.5
    y0 = np.clip(np.floor(ys), 0, sh - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, sw - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    src = img.pixels.astype(np.float64)
    top = src[y0][:, x0] * (1.0 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1.0 - fx) + src[y1][:, x1] * fx
    value = top * (1.0 - fy) + bot * fy
    return np.clip(np.floor(value + 0.5), 0, 255).astype(np.uint8)


# (source height, width, target height, width): the bench's 512 -> 64,
# 1-pixel sides, non-square, and up- and downscales by non-integer ratios
_RESAMPLE_SHAPES = [(512, 512, 64, 64), (1, 1, 5, 3), (1, 9, 4, 2), (9, 1, 1, 1),
                    (7, 5, 300, 200), (300, 517, 64, 128), (17, 5, 5, 17)]


def test_resample_bytes_match_whole_image_reference():
    gen = np.random.default_rng(1010)
    shapes = _RESAMPLE_SHAPES + [tuple(int(v) for v in gen.integers(1, 40, size=4))
                                 for _ in range(600)]
    for sh, sw, th, tw in shapes:
        img = random_image(gen, sw, sh)
        out = resample_bilinear(img, (th, tw))
        assert (out.height, out.width) == (th, tw)
        assert out.pixels.tobytes() == reference_resample(img, (th, tw)).tobytes()


def test_resample_memory_scales_with_the_target():
    # a 12-megapixel photo to 256x256; converting the whole source to
    # float64 first, as the reference does, peaks at 302.6 MiB
    img = ImageRGB(width=4000, height=3000, pixels=np.zeros((3000, 4000, 3), dtype=np.uint8))
    tracemalloc.start()
    try:
        resample_bilinear(img, (256, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ---------------------------------------------------------------------------
# tensor conversion
# ---------------------------------------------------------------------------

def test_to_tensor_scale_points():
    pixels = np.zeros((1, 3, 3), dtype=np.uint8)
    pixels[0, 0] = [255, 255, 255]
    pixels[0, 1] = [0, 0, 0]
    pixels[0, 2] = [51, 51, 51]
    t = to_tensor(ImageRGB(width=3, height=1, pixels=pixels))
    assert t.shape == (3, 1, 3)
    npt.assert_allclose(t[:, 0, 0], 1.0)
    npt.assert_allclose(t[:, 0, 1], 0.0)
    npt.assert_allclose(t[:, 0, 2], 0.2)


def test_to_tensor_channel_planes():
    pixels = np.zeros((2, 2, 3), dtype=np.uint8)
    pixels[:, :, 0] = 255  # red everywhere
    t = to_tensor(ImageRGB(width=2, height=2, pixels=pixels))
    npt.assert_allclose(t[0], 1.0)
    npt.assert_allclose(t[1], 0.0)
    npt.assert_allclose(t[2], 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255))
def test_to_tensor_value_map(byte):
    pixels = np.full((1, 1, 3), byte, dtype=np.uint8)
    t = to_tensor(ImageRGB(width=1, height=1, pixels=pixels))
    npt.assert_allclose(t, byte / 255.0, rtol=0, atol=0)


def test_to_tensor_pins_every_byte_and_is_c_contiguous():
    # each channel holds all 256 byte values, in a different order per channel
    b = np.arange(256, dtype=np.uint8)
    pixels = np.stack([b, b[::-1], np.roll(b, 85)], axis=-1).reshape(16, 16, 3)
    t = to_tensor(ImageRGB(width=16, height=16, pixels=pixels))
    assert t.shape == (3, 16, 16) and t.dtype == np.float64 and t.flags.c_contiguous
    for c in range(3):
        expected = np.array([int(v) / 255.0 for v in pixels[..., c].reshape(-1)])
        assert t[c].reshape(-1).tobytes() == expected.tobytes()
