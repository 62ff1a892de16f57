"""Class-frequency vectors and imbalance factors for shards and partitions.

The local distribution of a client is its per-class sample fraction vector;
the global distribution is the same vector over the union of all shards. An
imbalance factor is the ratio of the largest to the smallest per-class count.
Classes with zero samples are excluded from the minimum (the ratio would
otherwise be infinite) and reported separately in empty_classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import ClientShard, Dataset, class_counts
from .errors import EmptyPartitionError, EmptyShardError


@dataclass(frozen=True)
class DistributionStats:
    """Counts, frequencies, and imbalance factor of one sample collection."""

    counts: np.ndarray
    probs: np.ndarray
    total: int
    imbalance_factor: float
    empty_classes: int

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        counts.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probs", probs)

    @property
    def entropy(self) -> float:
        """Shannon entropy (nats) of the class frequencies."""
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())

    def to_json_dict(self) -> dict:
        return {
            "counts": self.counts.tolist(),
            "probs": self.probs.tolist(),
            "total": self.total,
            "imbalance_factor": self.imbalance_factor,
            "empty_classes": self.empty_classes,
        }


def imbalance_factor_from_counts(counts: np.ndarray) -> float:
    """max/min count ratio, the minimum taken over non-empty classes only."""
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts[counts > 0]
    if nonzero.size == 0:
        raise EmptyShardError("imbalance factor undefined: all classes empty")
    return float(counts.max()) / float(nonzero.min())


def stats_from_counts(counts: np.ndarray) -> DistributionStats:
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        raise EmptyShardError("distribution undefined for an empty collection")
    return DistributionStats(
        counts=counts,
        probs=counts.astype(np.float64) / total,
        total=total,
        imbalance_factor=imbalance_factor_from_counts(counts),
        empty_classes=int((counts == 0).sum()),
    )


def local_distribution(shard: ClientShard, dataset: Dataset) -> DistributionStats:
    """Per-class frequency vector of one client's shard."""
    if len(shard) == 0:
        raise EmptyShardError(f"client {shard.client_id} holds no samples")
    return stats_from_counts(class_counts(shard, dataset))


def global_distribution(shards: Sequence[ClientShard], dataset: Dataset) -> DistributionStats:
    """Per-class frequency vector of the union of all shards."""
    counts = np.zeros(dataset.num_classes, dtype=np.int64)
    for shard in shards:
        counts += class_counts(shard, dataset)
    if counts.sum() == 0:
        raise EmptyPartitionError("every shard is empty")
    return stats_from_counts(counts)

