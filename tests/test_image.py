"""PPM decoding, bilinear resampling, tensor conversion."""

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


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_identity():
    rng = np.random.default_rng(7)
    img = random_image(rng, 5, 4)
    out = resample_bilinear(img, (4, 5))
    npt.assert_array_equal(out.pixels, img.pixels)


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
