"""Dense tensor storage and the one distance the engine needs.

A tensor is a C-contiguous float64 numpy array: the shape tuple plus a
flat row-major buffer of double-precision reals.  Images follow the
(channels, height, width) axis convention.  Tensors are treated as
immutable values once built; operations return new arrays, and the only
sanctioned in-place mutations are the optimizer's parameter update and
the training loop's batch gradient sum.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

Tensor = np.ndarray


def frobenius_sq_dist(a: Tensor, b: Tensor) -> float:
    """Sum of squared elementwise differences."""
    if a.shape != b.shape:
        raise ShapeError(f"distance shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.dot(d.reshape(-1), d.reshape(-1)))
