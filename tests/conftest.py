"""Shared helpers: the test-only PPM encoder, synthetic dataset builders,
the packaged assets and a gradcheck builder with a broken gradient."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from paintnet.data.image import ImageRGB

# the packaged profiles and sample manifest
ASSETS = resources.files("paintnet.assets")


def encode_ppm(img: ImageRGB) -> bytes:
    """Inverse of decode_ppm, used only to build test fixtures."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def random_image(rng: np.random.Generator, width: int, height: int) -> ImageRGB:
    pixels = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return ImageRGB(width=width, height=height, pixels=pixels)


def class_image(rng: np.random.Generator, class_index: int, side: int) -> ImageRGB:
    """Synthetic painting stand-in: class-specific dominant channel plus noise.

    The signal (one bright channel) is strong enough to be learnable from
    a handful of samples while the noise keeps images distinct.
    """
    pixels = rng.integers(0, 90, size=(side, side, 3))
    pixels[:, :, class_index % 3] += 140
    # a class-dependent stripe so the task is not purely color statistics
    stride = 2 + class_index
    pixels[::stride, :, :] = np.minimum(pixels[::stride, :, :] + 60, 255)
    return ImageRGB(width=side, height=side, pixels=np.clip(pixels, 0, 255).astype(np.uint8))


def write_dataset(root: Path, n_per_class: int, side: int, seed: int,
                  labels: tuple[str, ...] = ("alpha", "beta", "gamma")) -> Path:
    """Write PPM files plus a manifest CSV under root; returns manifest path."""
    rng = np.random.default_rng(seed)
    lines = ["path,label"]
    for ci, label in enumerate(labels):
        (root / label).mkdir(parents=True, exist_ok=True)
        for i in range(n_per_class):
            img = class_image(rng, ci, side)
            rel = f"{label}/{i:03d}.ppm"
            (root / rel).write_bytes(encode_ppm(img))
            lines.append(f"{rel},{label}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def broken_builder(build):
    """A gradcheck builder like build, its first analytic gradient entry (in key order) off by 1e-3."""
    def nudged(sizes):
        loss, arrays, analytic = build(sizes)
        analytic = {k: v.copy() for k, v in analytic.items()}
        analytic[min(analytic)].reshape(-1)[0] += 1e-3
        return loss, arrays, analytic
    return nudged


@pytest.fixture
def tiny_dataset(tmp_path):
    """4 images per class at 16x16, with manifest; fast enough for CLI runs."""
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=99)
    return tmp_path / "data", manifest
