"""Seeded synthetic inputs for the benchmark workloads.

Images are class-structured binary PPMs: one dominant colour channel per
class plus a class-dependent horizontal stripe, over uniform noise, so a
classifier has something to learn and every image is distinct.  The
same seed writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LABELS = ("alpha", "beta", "gamma")


def class_pixels(rng: np.random.Generator, class_index: int, side: int) -> np.ndarray:
    """(side, side, 3) uint8 raster for one image of class_index."""
    pixels = rng.integers(0, 90, size=(side, side, 3))
    pixels[:, :, class_index % 3] += 140
    stride = 2 + class_index
    pixels[::stride, :, :] += 60
    return np.clip(pixels, 0, 255).astype(np.uint8)


def write_dataset(root: Path, images: int, side: int, seed: int) -> Path:
    """P6 images under root/<label>/ and root/manifest.csv; returns the manifest.

    Image i belongs to class i mod 3, so class sizes differ by at most one.
    """
    rng = np.random.default_rng(seed)
    lines = ["path,label"]
    header = f"P6\n{side} {side}\n255\n".encode("ascii")
    for label in LABELS:
        (root / label).mkdir(parents=True, exist_ok=True)
    for i in range(images):
        ci = i % len(LABELS)
        rel = f"{LABELS[ci]}/{i:03d}.ppm"
        (root / rel).write_bytes(header + class_pixels(rng, ci, side).tobytes())
        lines.append(f"{rel},{LABELS[ci]}")
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def write_cae_checkpoint(path: Path, side: int, channels: tuple[int, int], seed: int) -> None:
    """Seeded, untrained autoencoder checkpoint for finetune and crossval to load."""
    from paintnet.autoencoder import CAEConfig, build_cae
    from paintnet.persist import save_checkpoint

    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(build_cae(CAEConfig(input_size=(side, side), conv_channels=channels), seed),
                    path)


def write_classifier_checkpoint(path: Path, side: int, channels: tuple[int, int],
                                fc_sizes: tuple[int, int], seed: int) -> None:
    """Seeded, untrained classifier checkpoint for evaluate to load."""
    from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract
    from paintnet.classifier import CNNConfig, build_cnn
    from paintnet.persist import save_checkpoint

    cae = build_cae(CAEConfig(input_size=(side, side), conv_channels=channels), seed)
    cnn = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=fc_sizes, n_classes=len(LABELS)),
                    seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(cnn, path)
