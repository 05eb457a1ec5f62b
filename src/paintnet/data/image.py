"""Binary PPM ingestion, bilinear resampling, and tensor conversion.

PPM (P6, maxval 255) is the only accepted format: it is bit-exact and
trivial to decode, so golden tests stay byte-stable.  Other formats are
expected to be converted beforehand.

Decoding copies no pixel byte, and resampling reads only the source
pixels it samples, so ingestion costs in proportion to the pixels the
model keeps, not to the pixels the file holds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import ArgumentError, ImageFormatError, ImageUnsupportedError, ShapeError

_WHITESPACE = b" \t\r\n\v\f"
# a header token after any run of whitespace and '#' comments, which run to end of line
_HEADER_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*)*([^ \t\r\n\v\f#]*)")


@dataclass(frozen=True)
class ImageRGB:
    """8-bit RGB raster, pixels shaped (height, width, 3) row-major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ShapeError(f"image dimensions must be positive, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width, 3):
            raise ShapeError(
                f"pixel block must be ({self.height}, {self.width}, 3), got {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            raise ShapeError(f"pixels must be 8-bit, got dtype {self.pixels.dtype}")


def _header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The next header token from pos, and the position just past it."""
    token = _HEADER_TOKEN.match(data, pos)
    if not token[1]:
        raise ImageFormatError("truncated header")
    return token[1], token.end()


def decode_ppm(data: bytes) -> ImageRGB:
    """Parse binary PPM bytes; pixel values survive bit-exactly.

    Only the P6 variant with maxval 255 is handled.  A different magic or
    short payload is a format error; any other maxval is unsupported.
    Bytes after the payload are ignored.  The pixels are a read-only view
    of data's payload bytes, not a copy.
    """
    magic, pos = _header_token(data, 0)
    if magic != b"P6":
        raise ImageFormatError(f"not a binary PPM: magic {magic!r}")
    numbers = []
    for what in ("width", "height", "maxval"):
        token, pos = _header_token(data, pos)
        if not token.isdigit():
            raise ImageFormatError(f"expected integer for {what}, got {token!r}")
        numbers.append(int(token))
    width, height, maxval = numbers
    if maxval != 255:
        raise ImageUnsupportedError(f"only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise ImageFormatError("missing separator before pixel payload")
    start = pos + 1
    need = width * height * 3
    have = len(data) - start
    if have < need:
        raise ImageFormatError(f"payload truncated: need {need} bytes, have {have}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
    return ImageRGB(width=width, height=height, pixels=pixels.reshape(height, width, 3))


def resample_bilinear(img: ImageRGB, target: tuple[int, int]) -> ImageRGB:
    """Resize with bilinear interpolation, half-pixel-center mapping.

    Target pixel (i, j) samples source coordinate
    ((i + 0.5) * src/dst - 0.5) per axis; edges clamp.  Results round
    half up to the nearest byte, so output values never leave the source
    range.  Only the 2*th source rows and 2*tw columns the samples read
    are gathered and converted to float, so time and memory scale with
    the target, not the source.  At the source size img comes back as
    it is, sharing its pixels.
    """
    th, tw = target
    if th < 1 or tw < 1:
        raise ArgumentError(f"target size must be >= 1x1, got {th}x{tw}")
    sh, sw = img.height, img.width
    if (th, tw) == (sh, sw):
        return img

    ys = (np.arange(th, dtype=np.float64) + 0.5) * (sh / th) - 0.5
    xs = (np.arange(tw, dtype=np.float64) + 0.5) * (sw / tw) - 0.5
    y0 = np.clip(np.floor(ys), 0, sh - 1).astype(np.intp)
    x0 = np.clip(np.floor(xs), 0, sw - 1).astype(np.intp)
    y1 = np.minimum(y0 + 1, sh - 1)
    x1 = np.minimum(x0 + 1, sw - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None]
    # one weight per channel byte of a row-flat (rows, 3*tw) plane
    fx = np.repeat(np.clip(xs - x0, 0.0, 1.0), 3)

    # rows y0 then y1, each holding the x0 pixels then the x1 pixels
    rows = img.pixels.take(np.concatenate((y0, y1)), axis=0)
    src = rows.take(np.concatenate((x0, x1)), axis=1).astype(np.float64)
    src = src.reshape(2, th, 2, 3 * tw)
    top = src[0, :, 0] * (1.0 - fx) + src[0, :, 1] * fx
    bot = src[1, :, 0] * (1.0 - fx) + src[1, :, 1] * fx
    value = top * (1.0 - fy) + bot * fy
    out = np.clip(np.floor(value + 0.5), 0, 255).astype(np.uint8)
    return ImageRGB(width=tw, height=th, pixels=out.reshape(th, tw, 3))


def to_tensor(img: ImageRGB) -> np.ndarray:
    """C-contiguous channel-planar (3, H, W) array of byte/255 values in [0, 1],
    each byte widened to float64 and divided as it is written, in one pass."""
    return np.divide(img.pixels.transpose(2, 0, 1), 255.0, dtype=np.float64, order="C")
