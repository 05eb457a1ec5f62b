"""Plain SGD, the geometric learning-rate schedule, and gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ArgumentError, ConfigError, ShapeError

REL_ERR_FLOOR = 1e-8

# bytes one column block of a Rank1 step may take: the (B, columns) copy
# of the factors' x slices and the (out, columns) product, B + out rows
# of float64.  Twice layers.BLOCK_BYTES: on the full profile's fc1 (400
# rows, 16 factors) 1 MiB blocks of 256 columns took 1.2 s of CPU and
# 2 MiB blocks of 576 columns 0.9 s, at one BLAS thread
STEP_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class SGDConfig:
    lr0: float = 0.01
    decay: float = 0.98
    batch_size: int = 16

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be positive, got {self.lr0}")
        if not math.isfinite(self.lr0):
            raise ConfigError(f"lr0 must be finite, got {self.lr0}")
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def lr_at_epoch(cfg: SGDConfig, epoch: int) -> float:
    """lr0 * decay**epoch; the rate shrinks geometrically after each epoch."""
    if epoch < 0:
        raise ArgumentError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay ** epoch


def sgd_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray | list],
             lr: float) -> Mapping[str, np.ndarray]:
    """In-place p <- p - lr*g for every parameter tensor; no gradient is modified.

    g is an array, or a batch's dense-layer gradients as a list of
    layers.Rank1 factors in sample order, standing for the mean of their
    outer products.  That step is one matrix product per column block of
    p: the factors' gz, stacked once into an (out, B) matrix scaled by
    -lr/B, times the (B, columns) copy of their x slices, added into p's
    columns.  Each element of p gains one B-term dot product, summed in
    the BLAS's order, with fused multiply-adds where it has them.  With
    u = 2^-53 and S = lr/B * sum(|gz[i] * x[j]|) over the batch, the
    stepped element lies within (B + 3)*u*S + u*|result| of the exact
    p - lr * mean.  OpenBLAS (SkylakeX kernels) sums the 1 to 4 columns
    past a block's last multiple of 8 in another order, so blocks start
    at multiples of 8 and the last n % 8 columns are a block of their
    own; then neither the block width (_step_columns) nor the BLAS thread
    count moves a bit.  No array the size of p, or of every x stacked, is
    made.

    The caller must hold exclusive access to the parameter arrays; this
    is the one sanctioned in-place mutation in the engine.
    """
    if set(params) != set(grads):
        raise ShapeError(f"parameter/gradient keys differ: {sorted(params)} vs {sorted(grads)}")
    for name, p in params.items():
        g = grads[name]
        for shape in [f.shape for f in g] if isinstance(g, list) else [g.shape]:
            if p.shape != shape:
                raise ShapeError(
                    f"gradient shape {shape} does not match parameter {name} {p.shape}")
        if isinstance(g, list):
            _step_rank1(p, g, lr)
        else:
            p -= lr * g
    return params


def _step_columns(rows: int) -> int:
    """Columns per step block: a multiple of 64 whose rows of float64 fit STEP_BLOCK_BYTES."""
    return max(64, STEP_BLOCK_BYTES // (8 * rows) // 64 * 64)


def _step_rank1(p: np.ndarray, factors: list, lr: float) -> None:
    """p -= lr * (the mean of the factors' outer products), one product per column block."""
    (out, n), batch = p.shape, len(factors)
    gz = np.stack([f.gz for f in factors], axis=1)
    gz *= -lr / batch
    width = _step_columns(batch + out)
    # blocks start at multiples of 8 columns, and the last n % 8 columns are
    # a block of their own: OpenBLAS sums the 1 to 4 columns past a block's
    # last multiple of 8 in another order, so they would move with the width
    whole = n - n % 8
    edges = [*range(0, whole, width), whole]
    if n % 8:
        edges.append(n)
    xbuf = np.empty(batch * min(width, n))
    pbuf = np.empty(out * min(width, n))
    for b0, b1 in zip(edges, edges[1:]):
        b = b1 - b0
        xs = np.stack([f.x[b0:b1] for f in factors], out=xbuf[:batch * b].reshape(batch, b))
        p[:, b0:b1] += np.matmul(gz, xs, out=pbuf[:out * b].reshape(out, b))


def finite_difference_max_rel_error(loss_fn: Callable[[], float],
                                    arrays: Mapping[str, np.ndarray],
                                    analytic: Mapping[str, np.ndarray],
                                    eps: float) -> float:
    """Central-difference check of analytic gradients, one scalar at a time.

    Perturbs each element of each array in place (restoring it), in
    row-major order, compares (f(t+eps) - f(t-eps)) / (2 eps) against
    the analytic entry, and returns the worst relative error with
    denominator max(|a|, |n|, 1e-8).  The arrays are indexed directly,
    so a non-contiguous view is perturbed where the loss reads it.
    """
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    worst = 0.0
    for name, arr in arrays.items():
        ana = analytic[name]
        for i in np.ndindex(arr.shape):
            orig = arr[i]
            arr[i] = orig + eps
            lp = loss_fn()
            arr[i] = orig - eps
            lm = loss_fn()
            arr[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            err = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), REL_ERR_FLOOR)
            worst = max(worst, err)
    return worst

