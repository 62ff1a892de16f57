"""Long-tail shaping: exponential class-count profiles and dataset subsampling.

A profile assigns a target count to each class, head first (class 0 is the
head), decaying geometrically so that head/tail equals the requested
imbalance factor. Shaping subsamples a dataset to those counts; the
rotated_lt partition rotates the same counts to give each client another
head class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import datasets
from .datasets import Dataset, class_counts, deal_by_class
from .errors import ConfigError
from .seeding import rng_from

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
    seed (datasets.deal_by_class); unselected samples are simply discarded.
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
    # Through the module, so a wrapper set on datasets.subset sees the call.
    return datasets.subset(dataset, np.sort(picks), name=f"{dataset.name}-lt{profile.target_if:g}")
