"""Labeled classification datasets.

Covers reading CIFAR-10 binary batches, a fast synthetic Gaussian generator
used for desk-scale runs, class counting, and the stratified split of a
label vector that carves client holdouts. Datasets are immutable after
construction; a client's shard is an index array into one (see
partition.Partition), never a copy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .seeding import rng_from

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10


@dataclass(frozen=True)
class Dataset:
    """An immutable labeled dataset.

    features is (n, dim) finite float64, labels is (n,) int64 with values in
    [0, num_classes).
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if not np.isfinite(feats).all():
            raise ValueError("features contain NaN or infinity")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must have one entry per feature row")
        if self.num_classes < 2:
            raise ValueError("a dataset needs at least two classes")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def class_counts(dataset: Dataset) -> np.ndarray:
    """Per-class sample counts; counts always sum to the dataset size."""
    return np.bincount(dataset.labels, minlength=dataset.num_classes).astype(np.int64)


def subset(dataset: Dataset, indices: np.ndarray | Sequence[int], name: str | None = None) -> Dataset:
    """Materialize the rows at the given indices as a new Dataset."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        features=dataset.features[idx].copy(),
        labels=dataset.labels[idx].copy(),
        num_classes=dataset.num_classes,
        name=name if name is not None else dataset.name,
    )


# ---------------------------------------------------------------------------
# CIFAR-10 binary format (3073-byte records: 1 label byte + 3072 pixel bytes)
# ---------------------------------------------------------------------------

def _read_cifar_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
        raise ConfigError(
            f"{path}: size {len(blob)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0]
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise ConfigError(
            f"{path}: record {int(bad[0])} has label byte {int(labels[bad[0]])} >= {CIFAR_CLASSES}"
        )
    return labels.astype(np.int64), records[:, 1:]


def _standardize(
    pixels: np.ndarray, mean: np.ndarray, std: np.ndarray, fit: bool = False
) -> np.ndarray:
    """Scale uint8 pixels (n, 3072), channel planes of 1024, to [0, 1] and
    standardize each channel, in place in one float64 copy. With fit, mean
    and std (shape (3,)) are first set to the pixels' own statistics; else
    they are taken as given."""
    planes = pixels.astype(np.float64).reshape(-1, 3, CIFAR_PIXELS // 3)
    planes /= 255.0
    if fit:
        mean[:] = planes.mean(axis=(0, 2))
        std[:] = np.maximum(planes.std(axis=(0, 2)), 1e-8)
    planes -= mean[None, :, None]
    planes /= std[None, :, None]
    return planes.reshape(-1, CIFAR_PIXELS)


def load_cifar10(
    train_paths: Sequence[str | Path], test_path: str | Path
) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 binary batches into standardized train/test datasets.

    Pixels are scaled to [0,1] and then standardized per channel with the
    train-set mean and standard deviation; the test set reuses the train
    statistics.
    """
    if not train_paths:
        raise ValueError("at least one train batch file is required")
    parts = [_read_cifar_file(p) for p in train_paths]
    train_labels = np.concatenate([p[0] for p in parts])
    train_pixels = np.concatenate([p[1] for p in parts])
    test_labels, test_pixels = _read_cifar_file(test_path)

    mean, std = np.empty(3), np.empty(3)
    train = Dataset(
        features=_standardize(train_pixels, mean, std, fit=True),
        labels=train_labels,
        num_classes=CIFAR_CLASSES,
        name="cifar10-train",
    )
    test = Dataset(
        features=_standardize(test_pixels, mean, std),
        labels=test_labels,
        num_classes=CIFAR_CLASSES,
        name="cifar10-test",
    )
    return train, test


# ---------------------------------------------------------------------------
# Synthetic Gaussian data
# ---------------------------------------------------------------------------

def synthetic_class_means(num_classes: int, dim: int, cluster_spread: float) -> np.ndarray:
    """Deterministic lattice of class means with pairwise distance >= 4*spread.

    Class c sits on axis (c mod dim) at ring (c // dim + 1) * 4 * spread, so
    same-axis neighbours are exactly 4*spread apart and cross-axis pairs are
    farther. Placement does not depend on any seed.
    """
    means = np.zeros((num_classes, dim), dtype=np.float64)
    for c in range(num_classes):
        ring = c // dim + 1
        means[c, c % dim] = 4.0 * cluster_spread * ring
    return means


def generate_synthetic(
    num_classes: int,
    per_class: int,
    dim: int,
    cluster_spread: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian blobs, one per class, bit-reproducible per seed."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if cluster_spread <= 0:
        raise ValueError("cluster_spread must be positive")
    means = synthetic_class_means(num_classes, dim, cluster_spread)
    rng = rng_from(seed)
    feats = np.empty((num_classes * per_class, dim), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        noise = rng.standard_normal((per_class, dim)) * cluster_spread
        feats[lo : lo + per_class] = means[c] + noise
        labels[lo : lo + per_class] = c
    return Dataset(
        features=feats,
        labels=labels,
        num_classes=num_classes,
        name=f"synthetic-m{num_classes}-d{dim}",
    )


# ---------------------------------------------------------------------------
# Stratified split
# ---------------------------------------------------------------------------

def stratified_split_indices(
    labels: np.ndarray,
    num_classes: int,
    fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Split positions 0..len(labels) into (train, holdout), per class.

    A class of two or more samples gives floor(count * fraction) of them to
    the holdout, never fewer than one and never its last sample; a
    single-sample class stays entirely in train.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    train_parts: list[np.ndarray] = []
    hold_parts: list[np.ndarray] = []
    for c in range(num_classes):
        pos = np.nonzero(labels == c)[0]
        if pos.size == 0:
            continue
        if pos.size == 1:
            train_parts.append(pos)
            continue
        take = min(max(1, math.floor(pos.size * fraction)), pos.size - 1)
        perm = rng.permutation(pos)
        hold_parts.append(perm[:take])
        train_parts.append(perm[take:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, np.int64)
    hold = np.sort(np.concatenate(hold_parts)) if hold_parts else np.empty(0, np.int64)
    return train.astype(np.int64), hold.astype(np.int64)
