"""Dataset manifests and stratified k-fold splitting.

A manifest is a CSV with header ``path,label``.  Class indices are
assigned in first-appearance order, so the file itself fixes the label
encoding.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

from ..errors import ArgumentError, ManifestError
from .rng import Rng, Stream


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_index: int


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    classes: tuple[str, ...]

    def class_counts(self) -> list[int]:
        counts = [0] * len(self.classes)
        for e in self.entries:
            counts[e.class_index] += 1
        return counts


def parse_manifest(text: str, source: str = "<string>") -> DatasetManifest:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise ManifestError(f"{source}: manifest is empty")
    header = [cell.strip() for cell in rows[0]]
    if header != ["path", "label"]:
        raise ManifestError(f"{source}: header must be 'path,label', got {rows[0]!r}")
    if len(rows) == 1:
        raise ManifestError(f"{source}: manifest has no entries")

    entries = []
    classes: list[str] = []
    seen_paths = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ManifestError(f"{source}:{lineno}: expected 2 fields, got {len(row)}")
        path, label = row[0].strip(), row[1].strip()
        if not path or not label:
            raise ManifestError(f"{source}:{lineno}: empty path or label")
        if "\0" in path:
            raise ManifestError(f"{source}:{lineno}: path {path!r} holds a NUL byte")
        if path in seen_paths:
            raise ManifestError(f"{source}:{lineno}: duplicate path {path!r}")
        seen_paths.add(path)
        if label not in classes:
            classes.append(label)
        entries.append(ManifestEntry(path=path, class_index=classes.index(label)))
    return DatasetManifest(entries=tuple(entries), classes=tuple(classes))


def load_manifest(path) -> DatasetManifest:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {p}: {exc}") from exc
    return parse_manifest(text, source=str(p))


@dataclass(frozen=True)
class FoldSplit:
    """k disjoint validation index sets that together cover the manifest."""

    folds: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.folds)

    def train_indices(self, fold: int) -> tuple[int, ...]:
        if not 0 <= fold < self.k:
            raise ArgumentError(f"fold {fold} out of range [0, {self.k})")
        held_out = set(self.folds[fold])
        all_indices = sorted(i for f in self.folds for i in f)
        return tuple(i for i in all_indices if i not in held_out)


def kfold_split(manifest: DatasetManifest, k: int, seed: int) -> FoldSplit:
    """Stratified folds: shuffle each class, deal round-robin into k bins.

    Per-class fold counts therefore differ by at most one.  Every class
    deals from fold 0, so k may not exceed the largest class count: every
    fold is non-empty.  Deterministic given seed; classes are processed
    in index order, each with its own derived stream.
    """
    if k < 2:
        raise ArgumentError(f"k must be >= 2, got {k}")
    largest = max(manifest.class_counts(), default=0)
    if k > largest:
        raise ArgumentError(f"k={k} exceeds the largest class count {largest}, "
                            f"so fold {largest} and beyond would be empty")

    folds: list[list[int]] = [[] for _ in range(k)]
    for class_index in range(len(manifest.classes)):
        members = [i for i, e in enumerate(manifest.entries) if e.class_index == class_index]
        Rng.stream(seed, Stream.SPLIT, class_index).shuffle(members)
        for position, idx in enumerate(members):
            folds[position % k].append(idx)
    return FoldSplit(folds=tuple(tuple(sorted(f)) for f in folds))
