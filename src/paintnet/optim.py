"""Plain SGD, the geometric learning-rate schedule, and gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ArgumentError, ConfigError, ShapeError

REL_ERR_FLOOR = 1e-8


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
    outer products.  That mean is formed one row at a time, in the order
    the array of it would be: gz0[i]*x0, + gz1[i]*x1, ..., then divided
    by the list's length.  Each element thus gets the same IEEE
    operations, so the same bits, and no parameter-sized array is made.

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
            _step_rows(p, g, lr)
        else:
            p -= lr * g
    return params


def _step_rows(p: np.ndarray, factors: list, lr: float) -> None:
    """p -= lr * (the mean of the factors' outer products), one row of p at a time."""
    row = np.empty(p.shape[1])
    term = np.empty(p.shape[1])
    for i in range(p.shape[0]):
        np.multiply(factors[0].gz[i], factors[0].x, out=row)
        for f in factors[1:]:
            np.multiply(f.gz[i], f.x, out=term)
            row += term
        row /= len(factors)
        row *= lr
        p[i] -= row


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

