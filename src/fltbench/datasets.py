"""Labeled classification datasets and the long-tail rules over their classes.

Covers reading CIFAR-10 binary batches, a fast synthetic Gaussian generator
used for desk-scale runs, class counting, and the per-class draw that
long-tail shaping, partitioning and the stratified split of client holdouts
share. Datasets are immutable after construction; a client's shard is an
index array into one (see partition.Partition), never a copy.

A long-tail profile assigns a target count to each class, head first (class
0 is the head), decaying geometrically so that head/tail equals the
requested imbalance factor. Shaping subsamples a dataset to those counts;
the rotated_lt partition rotates the same counts to give each client another
head class. head_tail_groups buckets classes into the head, medium and tail
groups that evaluation reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .seeding import rng_from

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"


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


def class_counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class counts of labels in [0, num_classes) as an int64 (M,) array;
    they sum to len(labels). The package's one class count."""
    return np.bincount(labels, minlength=num_classes).astype(np.int64, copy=False)


def subset(dataset: Dataset, indices: np.ndarray | Sequence[int], name: str | None = None) -> Dataset:
    """The rows at the given indices as a new Dataset, copied once (fancy indexing)."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        features=dataset.features[idx],
        labels=dataset.labels[idx],
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


def load_cifar10(data_dir: str | Path) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10's train batches (CIFAR_TRAIN_FILES) and test batch
    (CIFAR_TEST_FILE) from data_dir into standardized train/test datasets.

    Pixels are scaled to [0,1] and then standardized per channel with the
    train-set mean and standard deviation; the test set reuses the train
    statistics. A file that is missing, unreadable or malformed raises a
    ConfigError that names it.
    """
    root = Path(data_dir)
    parts = [_read_cifar_file(root / name) for name in CIFAR_TRAIN_FILES]
    test_labels, test_pixels = _read_cifar_file(root / CIFAR_TEST_FILE)
    # Each set is one float64 copy, scaled and standardized in place by
    # channel plane. The test copy is made after the train statistics,
    # whose temporaries are as large as the train set.
    train_features = np.concatenate([p[1] for p in parts], dtype=np.float64)
    train_features /= 255.0
    train_planes = train_features.reshape(-1, 3, CIFAR_PIXELS // 3)
    mean = train_planes.mean(axis=(0, 2))[None, :, None]
    std = np.maximum(train_planes.std(axis=(0, 2)), 1e-8)[None, :, None]
    test_features = np.divide(test_pixels, 255.0, dtype=np.float64)
    for features in (train_features, test_features):
        planes = features.reshape(-1, 3, CIFAR_PIXELS // 3)
        planes -= mean
        planes /= std
    train = Dataset(
        features=train_features,
        labels=np.concatenate([p[0] for p in parts]),
        num_classes=CIFAR_CLASSES,
        name="cifar10-train",
    )
    test = Dataset(
        features=test_features,
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
    feats = rng_from(seed).standard_normal((num_classes, per_class, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        feats *= cluster_spread
        feats += means[:, None, :]
    try:
        return Dataset(
            features=feats.reshape(-1, dim),
            labels=np.repeat(np.arange(num_classes), per_class),
            num_classes=num_classes,
            name=f"synthetic-m{num_classes}-d{dim}",
        )
    except ValueError as exc:  # only the features can be at fault: they overflowed
        raise ConfigError(f"synthetic data with cluster_spread {cluster_spread:g}: {exc}") from exc


# ---------------------------------------------------------------------------
# Per-class draws
# ---------------------------------------------------------------------------

def deal_by_class(labels: np.ndarray, num_classes: int, num_parts: int, rng: np.random.Generator,
                  shares_of: Callable[[int, int], Sequence[int]]) -> list[np.ndarray]:
    """Per class, shuffle its positions in labels under rng, then give part k
    the k-th of the runs whose lengths shares_of(cls, class size) returns; it
    may draw from rng after the shuffle. Positions past the runs go to no
    part, and a class without samples draws nothing."""
    lists: list[list[np.ndarray]] = [[] for _ in range(num_parts)]
    for cls in range(num_classes):
        pool = np.nonzero(labels == cls)[0]
        if pool.size == 0:
            continue
        pool = rng.permutation(pool)
        start = 0
        for parts, share in zip(lists, shares_of(cls, pool.size)):
            parts.append(pool[start : start + share])
            start += share
    return [np.concatenate(parts) if parts else np.empty(0, np.int64) for parts in lists]


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

    def shares(cls: int, size: int) -> Sequence[int]:
        take = min(max(1, math.floor(size * fraction)), size - 1)
        return [take, size - take]

    hold, train = deal_by_class(labels, num_classes, 2, rng, shares)
    return np.sort(train), np.sort(hold)


# ---------------------------------------------------------------------------
# Long-tail profiles, shaping and class groups
# ---------------------------------------------------------------------------

# Tolerance on the realized head/tail ratio after integer rounding.
PROFILE_IF_TOLERANCE = 0.02


@dataclass(frozen=True)
class LtProfile:
    """Per-class sample counts, non-increasing from the head class 0.

    Counts that do not realize target_if raise a ConfigError that names the
    long-tail target (lt_target_if) and the head class's count.
    """

    target_if: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.shape[0] < 2:
            raise ValueError("a profile needs at least two classes")
        steep = (f"lt_target_if {self.target_if:g} cannot be realized from "
                 f"{counts[0]} samples per class")
        if counts.min() < 1:
            raise ConfigError(f"{steep}: profile tail count fell to zero")
        if np.any(np.diff(counts) > 0):
            raise ConfigError(f"{steep}: profile counts must be non-increasing by class")
        realized = counts[0] / counts[-1]
        if abs(realized - self.target_if) > PROFILE_IF_TOLERANCE * self.target_if:
            raise ConfigError(
                f"{steep}: integer rounding realizes IF {realized:.3f}, "
                f"outside {PROFILE_IF_TOLERANCE:.0%} of target {self.target_if}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]


def profile_counts(n_max: int, num_classes: int, target_if: float) -> np.ndarray:
    """Raw geometric-decay counts: floor(n_max * IF^(-j/(M-1))), exact tail.

    The tail entry is forced to round(n_max / IF) so the realized head/tail
    ratio matches the target up to that rounding.
    """
    ranks = np.arange(num_classes, dtype=np.float64)
    raw = n_max * target_if ** (-ranks / (num_classes - 1))
    counts = np.floor(raw).astype(np.int64)
    counts[-1] = math.floor(n_max / target_if + 0.5)
    return counts


def exponential_profile(n_max: int, num_classes: int, target_if: float) -> LtProfile:
    """Build a head-first profile.

    Raises ConfigError when the tail class would get less than one sample,
    or integer rounding cannot realize the target ratio.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if target_if < 1.0:
        raise ValueError("target_if must be >= 1")
    if n_max < target_if:
        raise ConfigError(f"the smallest class has {n_max} samples, below lt_target_if "
                          f"{target_if:g}: the tail class would get less than one sample")
    return LtProfile(
        target_if=float(target_if),
        counts=profile_counts(n_max, num_classes, target_if),
    )


def shape_long_tailed(dataset: Dataset, profile: LtProfile, seed: int) -> Dataset:
    """Subsample a dataset so its class counts match the profile exactly.

    Selection within each class is uniform without replacement under the
    seed (deal_by_class); unselected samples are simply discarded.
    """
    if profile.num_classes != dataset.num_classes:
        raise ValueError("profile and dataset class counts differ")
    have, need = class_counts(dataset.labels, dataset.num_classes), profile.counts.tolist()
    short = np.flatnonzero(have < profile.counts)
    if short.size:
        cls = short[0]
        raise ConfigError(f"class {cls} has {have[cls]} samples, the profile needs {need[cls]}")
    (picks,) = deal_by_class(dataset.labels, profile.num_classes, 1, rng_from(seed),
                             lambda cls, _: [need[cls]])
    return subset(dataset, np.sort(picks), name=f"{dataset.name}-lt{profile.target_if:g}")


# Head/medium/tail cutoffs at the reference scale of 5000 train samples for
# the largest class; scaled proportionally for smaller datasets.
GROUP_HI_REFERENCE = 1000.0
GROUP_LO_REFERENCE = 200.0
GROUP_REFERENCE_MAX = 5000.0


def head_tail_groups(train_global_counts: np.ndarray) -> dict[int, str]:
    """Bucket classes by train count: > hi is head, < lo is tail, else medium.

    The cutoffs hi/lo are 1000/200 at CIFAR scale (largest class 5000) and
    scale proportionally with the largest observed class count.
    """
    counts = np.asarray(train_global_counts, dtype=np.int64)
    scale = counts.max() / GROUP_REFERENCE_MAX
    hi = GROUP_HI_REFERENCE * scale
    lo = GROUP_LO_REFERENCE * scale
    groups: dict[int, str] = {}
    for cls, count in enumerate(counts):
        if count > hi:
            groups[cls] = "head"
        elif count < lo:
            groups[cls] = "tail"
        else:
            groups[cls] = "medium"
    return groups
