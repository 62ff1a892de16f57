"""Experiment orchestration: data building, the round loop, metrics, sweeps.

A single master seed drives everything. Sub-streams (data generation,
partitioning, model init, per-round client sampling, per-client shuffling)
are derived by purpose tag so results are bit-identical regardless of how
many workers execute the client updates or sweep cells.
"""
from __future__ import annotations

import concurrent.futures
import io
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .algorithms import (
    ALGO_CREFF,
    ALGO_FEDPER,
    ALGO_FEDPROX,
    AlgoConfig,
    ClientUpdate,
    CreffServer,
    aggregate_rep_only,
    aggregate_weighted,
    creff_client_head_grads,
    local_update_fedavg,
    local_update_fedper,
    local_update_fedprox,
)
from .datasets import (
    ClientShard,
    Dataset,
    class_counts,
    gather,
    generate_synthetic,
    load_cifar10,
    stratified_split_indices,
)
from .errors import ConfigError, ExperimentError, FltbenchError, NonFiniteError
from .lt_shaping import exponential_profile, shape_long_tailed
from .nn import Metrics, ModelConfig, ModelParams, TrainConfig, evaluate, init_model
from .partition import (
    Partition,
    PartitionReport,
    PartitionSpec,
    build_partition,
    partition_report,
)
from .seeding import derive_rng, derive_seed, rng_from

SOURCE_SYNTHETIC = "synthetic"
SOURCE_CIFAR10 = "cifar10"

CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"

# Head/medium/tail cutoffs at the reference scale of 5000 train samples for
# the largest class; scaled proportionally for smaller datasets.
GROUP_HI_REFERENCE = 1000.0
GROUP_LO_REFERENCE = 200.0
GROUP_REFERENCE_MAX = 5000.0


@dataclass(frozen=True)
class DataConfig:
    source: str
    num_classes: int = 10
    per_class: int = 500
    test_per_class: int = 100
    dim: int = 32
    cluster_spread: float = 1.0
    data_dir: str | None = None
    lt_target_if: float | None = None

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_SYNTHETIC, SOURCE_CIFAR10):
            raise ValueError(f"unknown data source {self.source!r}")
        if self.lt_target_if is not None and self.lt_target_if < 1.0:
            raise ValueError("lt_target_if must be >= 1")


@dataclass(frozen=True)
class ModelSpec:
    arch: str = "mlp1h"
    hidden_units: int | None = 200


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig
    partition: PartitionSpec
    model: ModelSpec
    train: TrainConfig
    algo: AlgoConfig
    eval_every: int = 10
    client_holdout_fraction: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not 0.0 <= self.client_holdout_fraction < 1.0:
            raise ValueError("client_holdout_fraction must lie in [0, 1)")


def build_data(config: ExperimentConfig) -> tuple[Dataset, Dataset, dict]:
    """Materialize train/test datasets, applying long-tail shaping to train."""
    data = config.data
    if data.source == SOURCE_SYNTHETIC:
        train = generate_synthetic(
            data.num_classes, data.per_class, data.dim, data.cluster_spread,
            seed=derive_seed(config.master_seed, "train-data"),
        )
        test = generate_synthetic(
            data.num_classes, data.test_per_class, data.dim, data.cluster_spread,
            seed=derive_seed(config.master_seed, "test-data"),
        )
    else:
        if data.data_dir is None:
            raise ConfigError("cifar10 runs need data_dir (or FLTB_DATA_DIR)")
        root = Path(data.data_dir)
        train_paths = [root / name for name in CIFAR_TRAIN_FILES]
        test_path = root / CIFAR_TEST_FILE
        for p in [*train_paths, test_path]:
            if not p.exists():
                raise ConfigError(f"dataset file not found: {p}")
        train, test = load_cifar10(train_paths, test_path)

    info = {"train_size_before_shaping": len(train), "train_size": len(train)}
    if data.lt_target_if is not None:
        n_max = int(class_counts(train).min())
        profile = exponential_profile(n_max, train.num_classes, data.lt_target_if)
        train = shape_long_tailed(
            train, profile, seed=derive_seed(config.master_seed, "lt-shaping")
        )
        info["train_size"] = len(train)
    info["discarded_by_shaping"] = info["train_size_before_shaping"] - info["train_size"]
    info["test_size"] = len(test)
    return train, test, info


def head_tail_groups(
    train_global_counts: np.ndarray,
    hi: float | None = None,
    lo: float | None = None,
) -> dict[int, str]:
    """Bucket classes by train count: > hi is head, < lo is tail, else medium.

    Default cutoffs are 1000/200 at CIFAR scale (largest class 5000) and
    scale proportionally with the largest observed class count.
    """
    counts = np.asarray(train_global_counts, dtype=np.int64)
    scale = counts.max() / GROUP_REFERENCE_MAX
    hi = GROUP_HI_REFERENCE * scale if hi is None else hi
    lo = GROUP_LO_REFERENCE * scale if lo is None else lo
    groups: dict[int, str] = {}
    for cls, count in enumerate(counts):
        if count > hi:
            groups[cls] = "head"
        elif count < lo:
            groups[cls] = "tail"
        else:
            groups[cls] = "medium"
    return groups


def sample_clients(num_clients: int, fraction: float, seed: int) -> list[int]:
    """ceil(C*N) distinct clients, drawn uniformly under the given seed."""
    count = math.ceil(fraction * num_clients)
    rng = rng_from(seed)
    return sorted(int(k) for k in rng.choice(num_clients, size=count, replace=False))


def _split_client_shards(
    train: Dataset, partition: Partition, fraction: float, master_seed: int
) -> tuple[list[ClientShard], list[ClientShard] | None]:
    """Hold out a stratified slice of every client shard for evaluation.

    Uses the lenient per-class rule: single-sample classes stay on the train
    side, every class with two or more samples contributes a holdout sample.
    """
    if fraction == 0.0:
        return list(partition.shards), None
    train_shards: list[ClientShard] = []
    test_shards: list[ClientShard] = []
    for shard in partition.shards:
        labels = train.labels[shard.indices]
        rng = derive_rng(master_seed, "client-holdout", shard.client_id)
        tr_pos, te_pos = stratified_split_indices(
            labels, train.num_classes, fraction, rng, strict=False
        )
        train_shards.append(ClientShard(shard.client_id, shard.indices[tr_pos]))
        test_shards.append(ClientShard(shard.client_id, shard.indices[te_pos]))
        if np.intersect1d(train_shards[-1].indices, test_shards[-1].indices).size:
            raise AssertionError(
                f"client {shard.client_id} evaluation indices leaked into training"
            )
    return train_shards, test_shards


@dataclass(frozen=True)
class EvalPoint:
    round: int
    global_metrics: Metrics
    personalized_mean: float | None = None
    personalized_per_client: list[float] | None = None
    global_on_clients_mean: float | None = None
    global_on_clients_per_client: list[float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "global": self.global_metrics.to_json_dict(),
            "personalized_mean": self.personalized_mean,
            "personalized_per_client": self.personalized_per_client,
            "global_on_clients_mean": self.global_on_clients_mean,
            "global_on_clients_per_client": self.global_on_clients_per_client,
        }


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    eval_points: tuple[EvalPoint, ...]
    best_accuracy: float
    final_accuracy: float
    best_personalized_mean: float | None
    partition: PartitionReport
    data_info: dict
    wall_clock_sec: float
    model_config: ModelConfig = field(repr=False, compare=False, default=None)
    final_params: ModelParams = field(repr=False, compare=False, default=None)
    federated_features: np.ndarray | None = field(repr=False, compare=False, default=None)

    def to_json_dict(self) -> dict:
        from .config import experiment_config_to_dict

        return {
            "config": experiment_config_to_dict(self.config),
            "eval_points": [p.to_json_dict() for p in self.eval_points],
            "best_accuracy": self.best_accuracy,
            "final_accuracy": self.final_accuracy,
            "best_personalized_mean": self.best_personalized_mean,
            "partition": self.partition.to_json_dict(),
            "data_info": self.data_info,
            "wall_clock_sec": self.wall_clock_sec,
        }

    def metrics_csv(self) -> str:
        """Flat time series: round,split,metric,class,value."""
        out = io.StringIO()
        out.write("round,split,metric,class,value\n")
        for point in self.eval_points:
            g = point.global_metrics
            out.write(f"{point.round},global_test,accuracy,,{g.accuracy:.10g}\n")
            for cls, acc in enumerate(g.per_class_accuracy):
                out.write(f"{point.round},global_test,class_accuracy,{cls},{acc:.10g}\n")
            if g.group_accuracy:
                for group, acc in g.group_accuracy.items():
                    out.write(f"{point.round},global_test,group_accuracy,{group},{acc:.10g}\n")
            if point.personalized_mean is not None:
                out.write(
                    f"{point.round},client_test,personalized_accuracy_mean,,"
                    f"{point.personalized_mean:.10g}\n"
                )
            if point.global_on_clients_mean is not None:
                out.write(
                    f"{point.round},client_test,global_accuracy_mean,,"
                    f"{point.global_on_clients_mean:.10g}\n"
                )
        return out.getvalue()


class _RoundContext:
    """Per-run state shared by the dispatch helpers."""

    def __init__(self, config: ExperimentConfig, train: Dataset, model_config: ModelConfig):
        self.config = config
        self.train = train
        self.model_config = model_config
        self.client_heads: dict[int, np.ndarray] = {}
        self.creff: CreffServer | None = None


def _client_train_config(config: ExperimentConfig, round_idx: int, client_id: int) -> TrainConfig:
    return replace(
        config.train,
        shuffle_seed=derive_seed(config.master_seed, "local-train", round_idx, client_id),
    )


def _run_client(
    ctx: _RoundContext,
    round_idx: int,
    client_id: int,
    shard: ClientShard,
    global_params: ModelParams,
) -> ClientUpdate:
    shard_x, shard_y = gather(ctx.train, shard)
    tc = _client_train_config(ctx.config, round_idx, client_id)
    algo = ctx.config.algo
    if algo.algorithm == ALGO_FEDPROX:
        return local_update_fedprox(
            global_params, ctx.model_config, shard_x, shard_y, tc, algo.mu, client_id
        )
    if algo.algorithm == ALGO_FEDPER:
        return local_update_fedper(
            global_params, ctx.client_heads[client_id], ctx.model_config,
            shard_x, shard_y, tc, client_id,
        )
    update = local_update_fedavg(
        global_params, ctx.model_config, shard_x, shard_y, tc, client_id
    )
    if algo.algorithm == ALGO_CREFF:
        update.head_class_grads = creff_client_head_grads(
            global_params, ctx.model_config, shard_x, shard_y
        )
    return update


def _evaluate_point(
    ctx: _RoundContext,
    round_idx: int,
    params: ModelParams,
    test: Dataset,
    groups: dict[int, str],
    client_test_shards: list[ClientShard] | None,
) -> EvalPoint:
    global_metrics = evaluate(params, ctx.model_config, test, groups)
    personalized = None
    personalized_per = None
    global_on_clients = None
    global_per = None
    if client_test_shards is not None:
        from .datasets import subset

        global_per = []
        personalized_per = [] if ctx.config.algo.algorithm == ALGO_FEDPER else None
        for shard in client_test_shards:
            if len(shard) == 0:
                continue
            local_ds = subset(ctx.train, shard.indices)
            global_per.append(
                evaluate(params, ctx.model_config, local_ds).accuracy
            )
            if personalized_per is not None:
                personal = ModelParams(
                    params.rep_block, ctx.client_heads[shard.client_id]
                )
                personalized_per.append(
                    evaluate(personal, ctx.model_config, local_ds).accuracy
                )
        if global_per:
            global_on_clients = float(np.mean(global_per))
        if personalized_per:
            personalized = float(np.mean(personalized_per))
    return EvalPoint(
        round=round_idx,
        global_metrics=global_metrics,
        personalized_mean=personalized,
        personalized_per_client=personalized_per,
        global_on_clients_mean=global_on_clients,
        global_on_clients_per_client=global_per,
    )


def _divergence_message(updates: list[ClientUpdate]) -> str:
    """Names the first client, by id, whose update is already non-finite."""
    first = min((u.client_id for u in updates if not u.params.is_finite()), default=None)
    if first is None:
        source = "every client update is finite"
    else:
        source = f"first non-finite client update: client {first}"
    return f"global model parameters are non-finite after aggregation ({source})"


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentReport:
    """Run one federated experiment end to end.

    The round loop samples ceil(C*N) clients per round, dispatches the
    algorithm's local update (optionally on a thread pool; results do not
    depend on worker count), aggregates in client-id order, and evaluates the
    global model every eval_every rounds plus at round 0 and the final round.
    A round whose aggregated model holds NaN or infinity ends the run with an
    ExperimentError naming the round.
    """
    start = time.perf_counter()
    train, test, data_info = build_data(config)
    spec = replace(config.partition, seed=derive_seed(config.master_seed, "partition"))
    partition = build_partition(train, spec)
    train_shards, client_test_shards = _split_client_shards(
        train, partition, config.client_holdout_fraction, config.master_seed
    )

    model_config = ModelConfig(
        arch=config.model.arch,
        input_dim=train.dim,
        num_classes=train.num_classes,
        init_seed=derive_seed(config.master_seed, "model-init"),
        hidden_units=config.model.hidden_units,
    )
    params = init_model(model_config)

    ctx = _RoundContext(config, train, model_config)
    algo = config.algo
    if algo.algorithm == ALGO_FEDPER:
        ctx.client_heads = {
            s.client_id: params.head_block.copy() for s in partition.shards
        }
    if algo.algorithm == ALGO_CREFF:
        ctx.creff = CreffServer(
            model_config, algo, seed=derive_seed(config.master_seed, "creff-features")
        )

    groups = head_tail_groups(partition.global_stats.counts)
    eval_points = [
        _evaluate_point(ctx, 0, params, test, groups, client_test_shards)
    ]

    for round_idx in range(1, algo.rounds + 1):
        try:
            sampled = sample_clients(
                spec.num_clients,
                algo.participation_fraction,
                derive_seed(config.master_seed, "client-sampling", round_idx),
            )
            round_params = params
            if workers > 1 and len(sampled) > 1:
                with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                    updates = list(
                        pool.map(
                            lambda k: _run_client(
                                ctx, round_idx, k, train_shards[k], round_params
                            ),
                            sampled,
                        )
                    )
            else:
                updates = [
                    _run_client(ctx, round_idx, k, train_shards[k], round_params)
                    for k in sampled
                ]

            if algo.algorithm == ALGO_FEDPER:
                for u in updates:
                    ctx.client_heads[u.client_id] = u.params.head_block.copy()
                params = aggregate_rep_only(updates, params)
            elif algo.algorithm == ALGO_CREFF:
                aggregated = aggregate_weighted(updates)
                new_head = ctx.creff.server_round(
                    params, [u.head_class_grads for u in updates]
                )
                params = ModelParams(aggregated.rep_block, new_head)
            else:
                params = aggregate_weighted(updates)
            if not params.is_finite():
                raise NonFiniteError(_divergence_message(updates))
        except FltbenchError as exc:
            raise ExperimentError(f"round {round_idx}: {exc}") from exc

        if round_idx % config.eval_every == 0 or round_idx == algo.rounds:
            eval_points.append(
                _evaluate_point(ctx, round_idx, params, test, groups, client_test_shards)
            )

    best = max(p.global_metrics.accuracy for p in eval_points)
    best_personalized = None
    personalized_values = [
        p.personalized_mean for p in eval_points if p.personalized_mean is not None
    ]
    if personalized_values:
        best_personalized = max(personalized_values)
    return ExperimentReport(
        config=config,
        eval_points=tuple(eval_points),
        best_accuracy=best,
        final_accuracy=eval_points[-1].global_metrics.accuracy,
        best_personalized_mean=best_personalized,
        partition=partition_report(partition),
        data_info=data_info,
        wall_clock_sec=time.perf_counter() - start,
        model_config=model_config,
        final_params=params,
        federated_features=None if ctx.creff is None else ctx.creff.features.copy(),
    )


def prepare_partition(config: ExperimentConfig) -> tuple[Dataset, Partition]:
    """Build the train dataset and its partition without training anything."""
    train, _, _ = build_data(config)
    spec = replace(config.partition, seed=derive_seed(config.master_seed, "partition"))
    return train, build_partition(train, spec)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    row: str
    col: str
    seed_index: int
    config: ExperimentConfig


@dataclass
class SweepResult:
    rows: list[str]
    cols: list[str]
    values: dict[tuple[str, str], float] = field(default_factory=dict)
    reports: list[tuple[SweepCell, ExperimentReport]] = field(default_factory=list)
    errors: list[tuple[SweepCell, str]] = field(default_factory=list)

    def table_csv(self) -> str:
        out = io.StringIO()
        out.write("algorithm," + ",".join(self.cols) + "\n")
        for row in self.rows:
            cells = []
            for col in self.cols:
                v = self.values.get((row, col))
                cells.append("ERROR" if v is None else f"{v:.4f}")
            out.write(row + "," + ",".join(cells) + "\n")
        return out.getvalue()


def _run_cell(cell: SweepCell) -> tuple[SweepCell, ExperimentReport | None, str | None]:
    try:
        return cell, run_experiment(cell.config), None
    except FltbenchError as exc:
        return cell, None, str(exc)


def run_sweep(
    cells: list[SweepCell],
    rows: list[str],
    cols: list[str],
    workers: int = 1,
) -> SweepResult:
    """Run every cell (optionally on a process pool) and tabulate best accuracy.

    Cell values are the best test accuracy averaged over the cell's seeds.
    Failed cells are recorded and rendered as ERROR; the sweep continues.
    """
    result = SweepResult(rows=rows, cols=cols)
    if workers > 1 and len(cells) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, cells))
    else:
        outcomes = [_run_cell(c) for c in cells]

    by_pos: dict[tuple[str, str], list[float]] = {}
    failed: set[tuple[str, str]] = set()
    for cell, report, error in outcomes:
        key = (cell.row, cell.col)
        if report is None:
            result.errors.append((cell, error or "unknown error"))
            failed.add(key)
        else:
            result.reports.append((cell, report))
            by_pos.setdefault(key, []).append(report.best_accuracy)
    for key, accs in by_pos.items():
        if key not in failed:
            result.values[key] = float(np.mean(accs))
    return result
