"""Labeled classification datasets and client-side index views.

Covers CIFAR-10 binary IO, a fast synthetic Gaussian generator used for
desk-scale runs, class counting, and stratified holdout splits. Datasets are
immutable after construction; shards are index views into a parent dataset,
never copies.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CorruptRecordError,
    DegenerateClassError,
    MalformedFileError,
)
from .seeding import rng_from

CIFAR_RECORD_BYTES = 3073
CIFAR_PIXELS = 3072
CIFAR_CLASSES = 10

RECORD_MAGIC = b"FLTDS1"
_RECORD_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class Dataset:
    """An immutable labeled dataset.

    features is (n, dim) finite float64, labels is (n,) int64 with values in
    [0, num_classes). raw_pixels keeps the original uint8 bytes for datasets
    loaded from CIFAR files so they can be written back verbatim.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"
    raw_pixels: np.ndarray | None = None

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
        if self.raw_pixels is not None:
            raw = np.ascontiguousarray(self.raw_pixels, dtype=np.uint8)
            if raw.shape[0] != feats.shape[0]:
                raise ValueError("raw_pixels must have one row per sample")
            raw.flags.writeable = False
            object.__setattr__(self, "raw_pixels", raw)

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClientShard:
    """An index view over a parent dataset owned by one client."""

    client_id: int
    indices: np.ndarray

    def __post_init__(self) -> None:
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("shard indices must be 1-D")
        if idx.size and np.unique(idx).size != idx.size:
            raise ValueError(f"shard {self.client_id} holds duplicate indices")
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]


def class_counts(data: Dataset | ClientShard, dataset: Dataset | None = None) -> np.ndarray:
    """Per-class sample counts; counts always sum to the collection size."""
    if isinstance(data, Dataset):
        return np.bincount(data.labels, minlength=data.num_classes).astype(np.int64)
    if dataset is None:
        raise ValueError("counting a shard requires its parent dataset")
    labels = dataset.labels[data.indices]
    return np.bincount(labels, minlength=dataset.num_classes).astype(np.int64)


def subset(dataset: Dataset, indices: np.ndarray | Sequence[int], name: str | None = None) -> Dataset:
    """Materialize the rows at the given indices as a new Dataset."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        features=dataset.features[idx].copy(),
        labels=dataset.labels[idx].copy(),
        num_classes=dataset.num_classes,
        name=name if name is not None else dataset.name,
        raw_pixels=None if dataset.raw_pixels is None else dataset.raw_pixels[idx].copy(),
    )


def gather(dataset: Dataset, shard: ClientShard) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of a shard as dense arrays."""
    return dataset.features[shard.indices], dataset.labels[shard.indices]


# ---------------------------------------------------------------------------
# CIFAR-10 binary format (3073-byte records: 1 label byte + 3072 pixel bytes)
# ---------------------------------------------------------------------------

def _read_cifar_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    blob = Path(path).read_bytes()
    if len(blob) == 0 or len(blob) % CIFAR_RECORD_BYTES != 0:
        raise MalformedFileError(
            f"{path}: size {len(blob)} is not a positive multiple of {CIFAR_RECORD_BYTES}"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0]
    bad = np.nonzero(labels >= CIFAR_CLASSES)[0]
    if bad.size:
        raise CorruptRecordError(
            f"{path}: record {int(bad[0])} has label byte {int(labels[bad[0]])} >= {CIFAR_CLASSES}"
        )
    return labels.astype(np.int64), records[:, 1:].copy()


def _standardize(pixels: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    # pixels (n, 3072) uint8, channel planes of 1024; scale to [0,1] first.
    scaled = pixels.astype(np.float64).reshape(-1, 3, CIFAR_PIXELS // 3) / 255.0
    out = (scaled - mean[None, :, None]) / std[None, :, None]
    return out.reshape(-1, CIFAR_PIXELS)


def load_cifar10(
    train_paths: Sequence[str | Path], test_path: str | Path
) -> tuple[Dataset, Dataset]:
    """Load CIFAR-10 binary batches into standardized train/test datasets.

    Pixels are scaled to [0,1] and then standardized per channel with the
    train-set mean and standard deviation; the test set reuses the train
    statistics. Raw pixel bytes are retained so datasets can be written back
    to the binary format losslessly.
    """
    if not train_paths:
        raise ValueError("at least one train batch file is required")
    parts = [_read_cifar_file(p) for p in train_paths]
    train_labels = np.concatenate([p[0] for p in parts])
    train_pixels = np.concatenate([p[1] for p in parts])
    test_labels, test_pixels = _read_cifar_file(test_path)

    planes = train_pixels.astype(np.float64).reshape(-1, 3, CIFAR_PIXELS // 3) / 255.0
    mean = planes.mean(axis=(0, 2))
    std = np.maximum(planes.std(axis=(0, 2)), 1e-8)

    train = Dataset(
        features=_standardize(train_pixels, mean, std),
        labels=train_labels,
        num_classes=CIFAR_CLASSES,
        name="cifar10-train",
        raw_pixels=train_pixels,
    )
    test = Dataset(
        features=_standardize(test_pixels, mean, std),
        labels=test_labels,
        num_classes=CIFAR_CLASSES,
        name="cifar10-test",
        raw_pixels=test_pixels,
    )
    return train, test


def write_cifar_batch(path: str | Path, dataset: Dataset) -> None:
    """Write a dataset back to the CIFAR-10 binary record format.

    Requires the dataset to carry raw pixel bytes (i.e. it came from
    load_cifar10 or a subset of such a dataset).
    """
    if dataset.raw_pixels is None:
        raise ValueError("dataset has no raw pixel bytes to write")
    records = np.empty((len(dataset), CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = dataset.labels.astype(np.uint8)
    records[:, 1:] = dataset.raw_pixels
    Path(path).write_bytes(records.tobytes())


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
# Stratified holdout
# ---------------------------------------------------------------------------

def stratified_split_indices(
    labels: np.ndarray,
    num_classes: int,
    fraction: float,
    rng: np.random.Generator,
    strict: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Split positions 0..len(labels) into (train, holdout), per class.

    Every non-empty class keeps at least one sample on the train side and,
    in strict mode, contributes at least one holdout sample; a strict split
    of a single-sample class is impossible and raises DegenerateClassError.
    In lenient mode single-sample classes stay entirely in train.
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
            if strict:
                raise DegenerateClassError(
                    f"class {c} has a single sample; cannot keep both sides non-empty"
                )
            train_parts.append(pos)
            continue
        take = min(max(1, math.floor(pos.size * fraction)), pos.size - 1)
        perm = rng.permutation(pos)
        hold_parts.append(perm[:take])
        train_parts.append(perm[take:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, np.int64)
    hold = np.sort(np.concatenate(hold_parts)) if hold_parts else np.empty(0, np.int64)
    return train.astype(np.int64), hold.astype(np.int64)


def stratified_holdout(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split a dataset class by class with the same holdout fraction.

    The holdout takes floor(count * fraction) samples of each class, never
    fewer than one and never the last remaining sample; deterministic for a
    given seed.
    """
    rng = rng_from(seed)
    train_idx, hold_idx = stratified_split_indices(
        dataset.labels, dataset.num_classes, fraction, rng, strict=True
    )
    return (
        subset(dataset, train_idx, name=f"{dataset.name}-train"),
        subset(dataset, hold_idx, name=f"{dataset.name}-holdout"),
    )


# ---------------------------------------------------------------------------
# FLTDS1 record files (simple export format for synthetic datasets)
# ---------------------------------------------------------------------------

def write_record_file(path: str | Path, dataset: Dataset) -> None:
    """Write a dataset as FLTDS1: header + per-sample label and f32 features."""
    n, dim = dataset.features.shape
    rec_dtype = np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])
    records = np.empty(n, dtype=rec_dtype)
    records["label"] = dataset.labels.astype(np.uint32)
    records["feat"] = dataset.features.astype(np.float32)
    with open(path, "wb") as fh:
        fh.write(RECORD_MAGIC)
        fh.write(_RECORD_HEADER.pack(dataset.num_classes, dim, n))
        fh.write(records.tobytes())


def read_record_file(path: str | Path, name: str | None = None) -> Dataset:
    """Load a dataset from an FLTDS1 record file."""
    blob = Path(path).read_bytes()
    head_len = len(RECORD_MAGIC) + _RECORD_HEADER.size
    if len(blob) < head_len or blob[: len(RECORD_MAGIC)] != RECORD_MAGIC:
        raise MalformedFileError(f"{path}: missing FLTDS1 header")
    num_classes, dim, n = _RECORD_HEADER.unpack(blob[len(RECORD_MAGIC) : head_len])
    rec_dtype = np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])
    expected = head_len + n * rec_dtype.itemsize
    if len(blob) != expected:
        raise MalformedFileError(f"{path}: expected {expected} bytes, found {len(blob)}")
    records = np.frombuffer(blob[head_len:], dtype=rec_dtype)
    labels = records["label"].astype(np.int64)
    if labels.size and labels.max() >= num_classes:
        raise CorruptRecordError(f"{path}: label {int(labels.max())} >= {num_classes}")
    return Dataset(
        features=records["feat"].astype(np.float64),
        labels=labels,
        num_classes=num_classes,
        name=name if name is not None else Path(path).stem,
    )
