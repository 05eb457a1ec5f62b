"""Plain SGD, the geometric learning-rate schedule, and gradient checking."""

from __future__ import annotations

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
        if not 0 < self.decay <= 1:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def lr_at_epoch(cfg: SGDConfig, epoch: int) -> float:
    """lr0 * decay**epoch; the rate shrinks geometrically after each epoch."""
    if epoch < 0:
        raise ArgumentError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay ** epoch


def sgd_step(params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray],
             lr: float) -> Mapping[str, np.ndarray]:
    """In-place p <- p - lr*g for every parameter tensor.

    The caller must hold exclusive access to the parameter arrays; this
    is the one sanctioned in-place mutation in the engine.
    """
    if set(params) != set(grads):
        raise ShapeError(f"parameter/gradient keys differ: {sorted(params)} vs {sorted(grads)}")
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {name} {p.shape}")
        p -= lr * g
    return params


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


def grad_check(model, x: np.ndarray, target, eps: float = 1e-6) -> float:
    """Max relative error between a model's analytic and numeric gradients.

    The model must expose named_parameters(), loss_value(x, target), and
    loss_and_param_grads(x, target) -> (loss, output, gradients); target
    is the clean image for an autoencoder and the class index for a
    classifier.
    """
    if eps <= 0:
        raise ArgumentError(f"eps must be positive, got {eps}")
    _, _, analytic = model.loss_and_param_grads(x, target)
    return finite_difference_max_rel_error(
        lambda: model.loss_value(x, target), model.named_parameters(), analytic, eps)
