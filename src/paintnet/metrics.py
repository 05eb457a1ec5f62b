"""Accuracy, confusion matrices, and cross-validation aggregation."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .classifier import CNNModel, predict
from .errors import ArgumentError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with rows indexed by true class, columns by predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        c = self.counts
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ArgumentError(f"confusion matrix must be square, got shape {c.shape}")
        if (c < 0).any():
            raise ArgumentError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def accuracy(cm: ConfusionMatrix) -> float:
    """Fraction of evaluated samples on the diagonal."""
    total = cm.total
    if total == 0:
        raise ArgumentError("accuracy of an empty confusion matrix is undefined")
    return float(np.trace(cm.counts)) / total


def evaluate(model: CNNModel, samples: Sequence[tuple[np.ndarray, int]]) -> ConfusionMatrix:
    """One count per (image, label) of a sequence, at (true label, predicted label)."""
    n = model.config.n_classes
    counts = np.zeros((n, n), dtype=np.int64)
    for img, label in samples:
        if not 0 <= label < n:
            raise ArgumentError(f"label {label} outside [0, {n})")
        counts[label, predict(model, img)] += 1
    return ConfusionMatrix(counts=counts)


@dataclass(frozen=True)
class CrossValReport:
    """Per-fold accuracies with their mean and population standard deviation."""

    fold_accuracies: tuple[float, ...]
    mean: float
    sd: float


def crossval_aggregate(fold_accuracies: list[float]) -> CrossValReport:
    """Mean and population (not sample) standard deviation of fold accuracies."""
    if not fold_accuracies:
        raise ArgumentError("cannot aggregate an empty accuracy list")
    for a in fold_accuracies:
        if not 0.0 <= a <= 1.0:
            raise ArgumentError(f"accuracy {a} outside [0, 1]")
    mean = math.fsum(fold_accuracies) / len(fold_accuracies)
    var = math.fsum((a - mean) ** 2 for a in fold_accuracies) / len(fold_accuracies)
    return CrossValReport(fold_accuracies=tuple(fold_accuracies),
                          mean=mean, sd=math.sqrt(var))


def report_csv(report: CrossValReport) -> str:
    """Fold rows then mean and sd rows; sd is the population deviation."""
    lines = ["fold,accuracy"]
    for i, a in enumerate(report.fold_accuracies):
        lines.append(f"{i},{a:.6f}")
    lines.append(f"mean,{report.mean:.6f}")
    lines.append(f"sd_population,{report.sd:.6f}")
    return "\n".join(lines) + "\n"
