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

All constructions are deterministic in PartitionSpec.seed and never assign
one sample to two clients.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .datasets import ClientShard, Dataset, class_counts
from .errors import CapacityError, InfeasibleSpecError, ProfileTooSteepError
from .lt_shaping import exponential_profile, profile_counts, rotate_profile
from .seeding import derive_rng, rng_from
from .stats import (
    DistributionStats,
    global_distribution,
    imbalance_factor_from_counts,
    local_distribution,
)

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
    seed: int = 0
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
        if self.min_shard_size < 0:
            raise ValueError("min_shard_size must be >= 0")
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


@dataclass(frozen=True)
class Partition:
    shards: tuple[ClientShard, ...]
    spec: PartitionSpec
    client_stats: tuple[DistributionStats, ...] = field(repr=False)
    global_stats: DistributionStats = field(repr=False)


def _finish(dataset: Dataset, spec: PartitionSpec, index_lists: list[np.ndarray]) -> Partition:
    shards = tuple(
        ClientShard(client_id=k, indices=np.sort(idx).astype(np.int64))
        for k, idx in enumerate(index_lists)
    )
    seen: set[int] = set()
    for shard in shards:
        if len(shard) < spec.min_shard_size:
            raise InfeasibleSpecError(
                f"client {shard.client_id} got {len(shard)} samples, "
                f"below min_shard_size {spec.min_shard_size}"
            )
        as_set = set(shard.indices.tolist())
        if seen & as_set:
            raise AssertionError("internal error: overlapping shards")
        seen |= as_set
    client_stats = tuple(local_distribution(s, dataset) for s in shards)
    return Partition(
        shards=shards,
        spec=spec,
        client_stats=client_stats,
        global_stats=global_distribution(shards, dataset),
    )


def check_supply(spec: PartitionSpec, counts: np.ndarray) -> None:
    """Reject a dataset with these class counts before anything is drawn.

    Every client needs max(min_shard_size, 1) samples, and rotated_lt needs
    a balanced source and a local_if profile that fits each client's share.
    Raises CapacityError or InfeasibleSpecError; the config checks call this
    too, when the counts are known from the config.
    """
    n, need = int(counts.sum()), max(spec.min_shard_size, 1)
    if spec.kind != KIND_ROTATED_LT:
        if n < spec.num_clients * need:
            raise CapacityError(
                f"{n} samples cannot give {spec.num_clients} clients at least {need} each"
            )
        return
    if imbalance_factor_from_counts(counts) > 1.05:
        raise InfeasibleSpecError("rotated_lt needs a balanced source dataset (IF <= 1.05)")
    if n // spec.num_clients < need:
        raise CapacityError(
            f"per-client budget {n // spec.num_clients} is below "
            f"min_shard_size {spec.min_shard_size}"
        )
    _solve_profile_budget(len(counts), float(spec.local_if), n // spec.num_clients)


def partition_iid(dataset: Dataset, spec: PartitionSpec) -> Partition:
    """Shuffle all indices under the seed and deal them round-robin."""
    if spec.kind != KIND_IID:
        raise ValueError("spec.kind must be 'iid'")
    check_supply(spec, class_counts(dataset))
    n = len(dataset)
    perm = rng_from(spec.seed).permutation(n)
    lists = [perm[k :: spec.num_clients] for k in range(spec.num_clients)]
    return _finish(dataset, spec, lists)


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


def partition_dirichlet(dataset: Dataset, spec: PartitionSpec) -> Partition:
    """Per class, split its samples across clients by Dirichlet(alpha) shares.

    Shares are drawn independently per class from a symmetric Dirichlet and
    rounded by largest remainder, so per-class totals are preserved exactly.
    Draws that leave any client below min_shard_size are retried with a
    derived sub-seed, up to DIRICHLET_RETRY_BUDGET attempts.
    """
    if spec.kind != KIND_DIRICHLET:
        raise ValueError("spec.kind must be 'dirichlet'")
    num_clients = spec.num_clients
    counts = class_counts(dataset)
    check_supply(spec, counts)
    for attempt in range(DIRICHLET_RETRY_BUDGET):
        rng = derive_rng(spec.seed, "dirichlet-attempt", attempt)
        lists: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
        sizes = np.zeros(num_clients, dtype=np.int64)
        for cls in range(dataset.num_classes):
            n_cls = int(counts[cls])
            if n_cls == 0:
                continue
            pool = rng.permutation(np.nonzero(dataset.labels == cls)[0])
            if num_clients == 1:
                shares = np.asarray([n_cls], dtype=np.int64)
            else:
                props = rng.dirichlet(np.full(num_clients, spec.alpha))
                shares = _largest_remainder(props * n_cls, n_cls)
            offsets = np.concatenate([[0], np.cumsum(shares)])
            for k in range(num_clients):
                lists[k].append(pool[offsets[k] : offsets[k + 1]])
            sizes += shares
        if sizes.min() >= spec.min_shard_size:
            merged = [
                np.concatenate(parts) if parts else np.empty(0, np.int64) for parts in lists
            ]
            return _finish(dataset, spec, merged)
    raise InfeasibleSpecError(
        f"no Dirichlet draw satisfied min_shard_size={spec.min_shard_size} "
        f"within {DIRICHLET_RETRY_BUDGET} attempts (alpha={spec.alpha}, N={num_clients})"
    )


def _solve_profile_budget(num_classes: int, local_if: float, budget: int) -> int:
    """Largest n_max whose profile fits the per-client budget and is valid.

    The raw count sum is monotone in n_max, so binary search finds the
    budget boundary; from there we walk down (bounded) to the nearest n_max
    whose rounded profile realizes the target ratio.
    """
    lo = max(int(np.ceil(local_if)), 1)
    if int(profile_counts(lo, num_classes, local_if).sum()) > budget:
        raise InfeasibleSpecError(
            f"per-client budget {budget} cannot hold a profile with IF {local_if}"
        )
    hi = budget
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(profile_counts(mid, num_classes, local_if).sum()) <= budget:
            lo = mid
        else:
            hi = mid - 1
    floor_n = max(int(np.ceil(local_if)), 1)
    for n_max in range(lo, floor_n - 1, -1):
        try:
            exponential_profile(n_max, num_classes, local_if)
        except ProfileTooSteepError:
            continue
        return n_max
    raise InfeasibleSpecError(
        f"no integer profile realizes IF {local_if} within the budget {budget}"
    )


def partition_rotated_longtail(dataset: Dataset, spec: PartitionSpec) -> Partition:
    """Give every client the same long-tail profile with a rotated head.

    Client k's head class is (k mod M). Per-class demand that exceeds supply
    (possible when N is not a multiple of M) is scaled down proportionally
    with largest-remainder rounding. With N a multiple of M the per-class
    global totals come out exactly equal; with N much smaller than M the
    few used rotations pile demand onto neighbouring head classes and the
    scaled shards may no longer realize the target ratio, which raises
    InfeasibleSpecError rather than returning a distorted partition.
    """
    if spec.kind != KIND_ROTATED_LT:
        raise ValueError("spec.kind must be 'rotated_lt'")
    supply = class_counts(dataset)
    check_supply(spec, supply)
    n, num_clients, m = len(dataset), spec.num_clients, dataset.num_classes
    budget = n // num_clients
    local_if = float(spec.local_if)
    n_max = _solve_profile_budget(m, local_if, budget)
    base = exponential_profile(n_max, m, local_if)

    demand = np.zeros((num_clients, m), dtype=np.int64)
    for k in range(num_clients):
        rotated = rotate_profile(base, k % m)
        demand[k, rotated.class_order] = rotated.counts

    # Scale any oversubscribed class down to its supply, preserving totals.
    for cls in range(m):
        need = int(demand[:, cls].sum())
        if need > int(supply[cls]):
            scaled = demand[:, cls].astype(np.float64) * (supply[cls] / need)
            demand[:, cls] = _largest_remainder(scaled, int(supply[cls]))

    rng = rng_from(spec.seed)
    lists: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for cls in range(m):
        pool = rng.permutation(np.nonzero(dataset.labels == cls)[0])
        offsets = np.concatenate([[0], np.cumsum(demand[:, cls])])
        for k in range(num_clients):
            lists[k].append(pool[offsets[k] : offsets[k + 1]])
    merged = [np.concatenate(parts) for parts in lists]

    for k in range(num_clients):
        realized = imbalance_factor_from_counts(demand[k])
        if abs(realized - local_if) > LOCAL_IF_TOLERANCE * local_if:
            raise InfeasibleSpecError(
                f"client {k} realizes IF {realized:.2f}, outside "
                f"{LOCAL_IF_TOLERANCE:.0%} of target {local_if}; the dataset is "
                f"too small for this profile or too few clients share the "
                f"{m} head rotations (supply scaling distorted the shape)"
            )
    return _finish(dataset, spec, merged)


def build_partition(dataset: Dataset, spec: PartitionSpec) -> Partition:
    """Dispatch on spec.kind."""
    if spec.kind == KIND_IID:
        return partition_iid(dataset, spec)
    if spec.kind == KIND_DIRICHLET:
        return partition_dirichlet(dataset, spec)
    return partition_rotated_longtail(dataset, spec)


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
    matrix = np.stack([s.counts for s in partition.client_stats])
    return PartitionReport(
        matrix=matrix,
        client_sizes=np.asarray([s.total for s in partition.client_stats], dtype=np.int64),
        client_if=np.asarray(
            [s.imbalance_factor for s in partition.client_stats], dtype=np.float64
        ),
        global_counts=partition.global_stats.counts.copy(),
        global_size=partition.global_stats.total,
        global_if=partition.global_stats.imbalance_factor,
    )
