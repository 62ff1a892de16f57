"""Client data partitioning: IID, Dirichlet label skew, and rotated long-tail.

Three regimes cover the interesting combinations of local and global
imbalance:

* ``iid``         - shuffle and deal round-robin; every client mirrors the
                    global distribution (long-tailed if the dataset is).
* ``dirichlet``   - for each class, client shares are drawn from a symmetric
                    Dirichlet(alpha); small alpha gives highly skewed,
                    non-identical local distributions.
* ``rotated_lt``  - every client gets the same long-tail profile but with a
                    rotated head class, so locals are long-tailed while the
                    global stays balanced.

All constructions are deterministic in build_partition's seed and never
assign one sample to two clients. A partition carries its client-by-class
count matrix, from which the report derives each client's imbalance factor
(IF_L) and the global one (IF_G).
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datasets import Dataset, class_counts, deal_by_class, exponential_profile, profile_counts
from .errors import ConfigError, FltbenchError
from .seeding import derive_rng, rng_from

KIND_IID = "iid"
KIND_DIRICHLET = "dirichlet"
KIND_ROTATED_LT = "rotated_lt"
PARTITION_KINDS = (KIND_IID, KIND_DIRICHLET, KIND_ROTATED_LT)

DIRICHLET_RETRY_BUDGET = 100

# Tolerance on each client's realized imbalance factor in rotated_lt.
LOCAL_IF_TOLERANCE = 0.10


@dataclass(frozen=True)
class PartitionSpec:
    kind: str
    num_clients: int
    alpha: float | None = None
    local_if: float | None = None
    min_shard_size: int = 10

    def __post_init__(self) -> None:
        if self.kind not in PARTITION_KINDS:
            raise ValueError(
                f"kind must be one of {', '.join(PARTITION_KINDS)}, not {self.kind!r}"
            )
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.min_shard_size < 1:
            raise ValueError("min_shard_size must be >= 1")
        if self.kind == KIND_DIRICHLET:
            if self.alpha is None or self.alpha <= 0:
                raise ValueError(f"alpha must be > 0 for {KIND_DIRICHLET} partitions")
        elif self.alpha is not None:
            raise ValueError(f"alpha is only valid for {KIND_DIRICHLET} partitions")
        if self.kind == KIND_ROTATED_LT:
            if self.local_if is None or self.local_if < 1.0:
                raise ValueError(f"local_if must be >= 1 for {KIND_ROTATED_LT} partitions")
        elif self.local_if is not None:
            raise ValueError(f"local_if is only valid for {KIND_ROTATED_LT} partitions")


def imbalance_factor(counts: np.ndarray) -> np.ndarray | float:
    """Largest count over the smallest non-zero count, along the last axis.

    Empty classes are left out of the minimum (the ratio would otherwise be
    infinite). A 1-D count vector gives a scalar, a matrix one ratio per row.
    """
    counts = np.asarray(counts, dtype=np.int64)
    lows = np.where(counts > 0, counts, np.iinfo(np.int64).max).min(axis=-1)
    return counts.max(axis=-1) / lows


@dataclass(frozen=True)
class Partition:
    """Client shards and their (num_clients, M) count matrix.

    shards[k] is client k's sorted, read-only int64 array of dataset
    indices; row k of counts holds its per-class sample counts.
    """

    shards: tuple[np.ndarray, ...]
    counts: np.ndarray = field(repr=False)


def _finish(dataset: Dataset, spec: PartitionSpec, index_lists: list[np.ndarray]) -> Partition:
    shards = tuple(np.sort(np.asarray(idx, dtype=np.int64)) for idx in index_lists)
    for k, shard in enumerate(shards):
        if shard.size < spec.min_shard_size:
            raise ConfigError(
                f"client {k} got {shard.size} samples, "
                f"below min_shard_size {spec.min_shard_size}"
            )
        shard.flags.writeable = False
    owned = np.concatenate(shards)
    if np.bincount(owned, minlength=len(dataset)).max() > 1:
        raise FltbenchError("internal error: overlapping shards")
    counts = np.stack([class_counts(dataset.labels[s], dataset.num_classes) for s in shards])
    counts.flags.writeable = False
    return Partition(shards=shards, counts=counts)


def check_supply(spec: PartitionSpec, counts: np.ndarray) -> np.ndarray | None:
    """Reject a dataset with these class counts before anything is drawn.

    Every client needs min_shard_size samples. rotated_lt needs a
    balanced source and a local_if profile that fits each client's share and
    that every client still realizes, within LOCAL_IF_TOLERANCE and with at
    least min_shard_size samples, once integer rounding has shaped it and
    oversubscribed classes are scaled down to their supply. For rotated_lt
    this returns the (num_clients, M) demand matrix, client k's per-class
    sample counts in row k; None for the other kinds. Raises ConfigError;
    the config checks call this too, when the counts are known from the
    config.
    """
    n, need = int(counts.sum()), spec.min_shard_size
    if spec.kind != KIND_ROTATED_LT:
        if n < spec.num_clients * need:
            raise ConfigError(
                f"{n} samples cannot give {spec.num_clients} clients at least {need} each"
            )
        return None
    if imbalance_factor(counts) > 1.05:
        raise ConfigError("rotated_lt needs a balanced source dataset (IF <= 1.05)")
    num_clients, m, local_if = spec.num_clients, len(counts), float(spec.local_if)
    if n // num_clients < need:
        raise ConfigError(
            f"per-client budget {n // num_clients} is below "
            f"min_shard_size {spec.min_shard_size}"
        )
    base = _solve_profile_budget(m, local_if, n // num_clients)
    # Client k's head class is k mod M: it holds base[(c - k) mod M] of class c.
    demand = base[(np.arange(m) - np.arange(num_clients)[:, None]) % m]

    # Scale any oversubscribed class down to its supply, preserving totals.
    for cls in range(m):
        demanded = int(demand[:, cls].sum())
        if demanded > int(counts[cls]):
            scaled = demand[:, cls].astype(np.float64) * (counts[cls] / demanded)
            demand[:, cls] = _largest_remainder(scaled, int(counts[cls]))

    realized = imbalance_factor(demand)
    off = np.flatnonzero(np.abs(realized - local_if) > LOCAL_IF_TOLERANCE * local_if)
    if off.size:
        k = off[0]
        raise ConfigError(
            f"client {k} realizes IF {realized[k]:.2f}, outside "
            f"{LOCAL_IF_TOLERANCE:.0%} of target {local_if}; the dataset is "
            f"too small for this profile or too few clients share the "
            f"{m} head rotations (supply scaling distorted the shape)"
        )
    rows = demand.sum(axis=1)
    short = np.flatnonzero(rows < need)
    if short.size:
        k = short[0]
        raise ConfigError(f"client {k} gets {rows[k]} samples, below min_shard_size {need}")
    return demand


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative quotas to integers that sum exactly to total.

    Floors first, then hands the remainder to the largest fractional parts;
    ties go to the lower client index.
    """
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        frac = quotas - base
        order = np.lexsort((np.arange(quotas.shape[0]), -frac))
        base[order[:short]] += 1
    return base


def _solve_profile_budget(num_classes: int, local_if: float, budget: int) -> np.ndarray:
    """The profile counts of the largest n_max that fits the per-client
    budget and is valid.

    The raw count sum is monotone in n_max, so binary search finds the
    budget boundary; from there we walk down (bounded) to the nearest n_max
    whose rounded profile realizes the target ratio.
    """
    floor_n = max(int(np.ceil(local_if)), 1)
    if int(profile_counts(floor_n, num_classes, local_if).sum()) > budget:
        raise ConfigError(
            f"per-client budget {budget} cannot hold a profile with IF {local_if}"
        )
    lo, hi = floor_n, budget
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(profile_counts(mid, num_classes, local_if).sum()) <= budget:
            lo = mid
        else:
            hi = mid - 1
    for n_max in range(lo, floor_n - 1, -1):
        try:
            return exponential_profile(n_max, num_classes, local_if)
        except ConfigError:
            continue
    raise ConfigError(
        f"no integer profile realizes IF {local_if} within the budget {budget}"
    )


def _draw_iid(n: int, num_clients: int, seed: int) -> list[np.ndarray]:
    """Shuffle all indices under the seed and deal them round-robin."""
    perm = rng_from(seed).permutation(n)
    return [perm[k :: num_clients] for k in range(num_clients)]


def _draw_dirichlet(labels: np.ndarray, num_classes: int, spec: PartitionSpec,
                    seed: int) -> list[np.ndarray]:
    """Per class, split its samples across clients by Dirichlet(alpha) shares.

    Shares are drawn independently per class from a symmetric Dirichlet and
    rounded by largest remainder, so per-class totals are preserved exactly.
    Draws that leave any client below min_shard_size are retried with a
    derived sub-seed, up to DIRICHLET_RETRY_BUDGET attempts.
    """
    num_clients = spec.num_clients
    for attempt in range(DIRICHLET_RETRY_BUDGET):
        rng = derive_rng(seed, "dirichlet-attempt", attempt)

        def shares(cls: int, size: int) -> Sequence[int]:
            if num_clients == 1:
                return [size]
            props = rng.dirichlet(np.full(num_clients, spec.alpha))
            return _largest_remainder(props * size, size).tolist()

        lists = deal_by_class(labels, num_classes, num_clients, rng, shares)
        if min(part.size for part in lists) >= spec.min_shard_size:
            return lists
    raise ConfigError(
        f"no Dirichlet draw satisfied min_shard_size={spec.min_shard_size} "
        f"within {DIRICHLET_RETRY_BUDGET} attempts (alpha={spec.alpha}, N={num_clients})"
    )


def build_partition(dataset: Dataset, spec: PartitionSpec, seed: int) -> Partition:
    """Partition a dataset among spec.num_clients clients by spec.kind.

    The class counts are checked once against the spec (check_supply raises
    ConfigError), then the shards are drawn under seed.
    """
    counts = class_counts(dataset.labels, dataset.num_classes)
    demand = check_supply(spec, counts)
    if spec.kind == KIND_IID:
        lists = _draw_iid(len(dataset), spec.num_clients, seed)
    elif spec.kind == KIND_DIRICHLET:
        lists = _draw_dirichlet(dataset.labels, len(counts), spec, seed)
    else:
        lists = deal_by_class(dataset.labels, len(counts), spec.num_clients,
                              rng_from(seed), lambda cls, _: demand[:, cls].tolist())
    return _finish(dataset, spec, lists)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionReport:
    """Client-by-class count matrix plus per-client and global imbalance."""

    matrix: np.ndarray
    client_sizes: np.ndarray
    client_if: np.ndarray
    global_counts: np.ndarray
    global_size: int
    global_if: float

    def to_csv(self) -> str:
        m = self.matrix.shape[1]
        out = io.StringIO()
        header = ["client"] + [f"class_{c}" for c in range(m)] + ["n_k", "IF_L"]
        out.write(",".join(header) + "\n")
        for k in range(self.matrix.shape[0]):
            row = [str(k)] + [str(int(v)) for v in self.matrix[k]]
            row += [str(int(self.client_sizes[k])), f"{self.client_if[k]:.6g}"]
            out.write(",".join(row) + "\n")
        final = ["GLOBAL"] + [str(int(v)) for v in self.global_counts]
        final += [str(self.global_size), f"{self.global_if:.6g}"]
        out.write(",".join(final) + "\n")
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "client_sizes": self.client_sizes.tolist(),
            "client_if": self.client_if.tolist(),
            "global_counts": self.global_counts.tolist(),
            "global_size": self.global_size,
            "global_if": self.global_if,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def partition_report(partition: Partition) -> PartitionReport:
    """Summarize a partition as an N x M count matrix with imbalance columns."""
    matrix = partition.counts
    global_counts = matrix.sum(axis=0)
    return PartitionReport(
        matrix=matrix,
        client_sizes=matrix.sum(axis=1),
        client_if=imbalance_factor(matrix),
        global_counts=global_counts,
        global_size=int(global_counts.sum()),
        global_if=float(imbalance_factor(global_counts)),
    )
