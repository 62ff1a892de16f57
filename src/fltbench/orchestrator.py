"""Experiment orchestration: data building, the round loop, metrics, sweeps.

A single master seed drives everything. Sub-streams (data generation,
partitioning, model init, per-round client sampling, per-client shuffling)
are derived by purpose tag so results are bit-identical regardless of how
many workers execute the sweep cells.
"""
from __future__ import annotations

import concurrent.futures
import ctypes
import io
import math
import os
import signal
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
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
    CIFAR_CLASSES,
    CIFAR_PIXELS,
    Dataset,
    class_counts,
    generate_synthetic,
    load_cifar10,
    stratified_split_indices,
)
from .errors import ConfigError, FltbenchError
from .lt_shaping import exponential_profile, shape_long_tailed
from .nn import (
    EVAL_BLOCK_ROWS,
    Metrics,
    ModelConfig,
    ModelParams,
    TrainConfig,
    check_architecture,
    evaluate,
    init_model,
    one_blas_thread,
    predict,
)
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


def _check_floats(what: str, count: int) -> None:
    # numpy raises ValueError, not MemoryError, for arrays of 2**63 bytes or
    # more, so sizes that ask for one are config faults found at parse time.
    if count >= 2**60:
        raise ValueError(f"{what} would be {count} float64s, more than numpy can hold")


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
            raise ValueError(
                f"source must be one of {SOURCE_SYNTHETIC}, {SOURCE_CIFAR10}, not {self.source!r}"
            )
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if min(self.per_class, self.test_per_class, self.dim) < 1:
            raise ValueError("per_class, test_per_class and dim must be >= 1")
        if not 0.0 < self.cluster_spread < math.inf:
            raise ValueError("cluster_spread must be positive and finite")
        if self.lt_target_if is not None and not self.lt_target_if >= 1.0:
            raise ValueError("lt_target_if must be >= 1")
        if self.source == SOURCE_SYNTHETIC:
            _check_floats("num_classes * max(per_class, test_per_class) * dim",
                          self.num_classes * max(self.per_class, self.test_per_class) * self.dim)
        self.synthetic_train_counts()  # rejects an unrealizable long-tail profile

    def synthetic_train_counts(self) -> np.ndarray | None:
        """Per-class train counts after long-tail shaping, for synthetic data.

        Synthetic classes all hold per_class samples before shaping. None for
        CIFAR-10, whose counts are known only once the files are read (see
        build_data).
        """
        if self.source != SOURCE_SYNTHETIC:
            return None
        if self.lt_target_if is None:
            return np.full(self.num_classes, self.per_class, dtype=np.int64)
        return exponential_profile(self.per_class, self.num_classes, self.lt_target_if).counts


@dataclass(frozen=True)
class ModelSpec:
    """The model section of a config; input_dim and num_classes come from the data."""

    arch: str
    hidden_units: int | None = None

    def __post_init__(self) -> None:
        check_architecture(self.arch, self.hidden_units)


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
        cifar = self.data.source == SOURCE_CIFAR10
        classes = CIFAR_CLASSES if cifar else self.data.num_classes
        dim = CIFAR_PIXELS if cifar else self.data.dim
        hidden = self.model.hidden_units
        _check_floats("model.hidden_units weights", (hidden or 0) * max(dim, classes))
        if self.algo.algorithm == ALGO_CREFF:
            _check_floats("algo.ff_per_class prototypes",
                          classes * self.algo.ff_per_class * max(hidden or dim, classes))


def build_data(config: ExperimentConfig) -> tuple[Dataset, Dataset, dict]:
    """Materialize train/test datasets, applying long-tail shaping to train."""
    data = config.data
    if data.source == SOURCE_SYNTHETIC:
        # DataConfig has checked every argument, so a ValueError here means
        # the features overflowed: cluster_spread is too large.
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                train = generate_synthetic(
                    data.num_classes, data.per_class, data.dim, data.cluster_spread,
                    seed=derive_seed(config.master_seed, "train-data"),
                )
                test = generate_synthetic(
                    data.num_classes, data.test_per_class, data.dim, data.cluster_spread,
                    seed=derive_seed(config.master_seed, "test-data"),
                )
        except ValueError as exc:
            raise ConfigError(
                f"data: synthetic data with cluster_spread {data.cluster_spread:g}: {exc}"
            ) from exc
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


def sample_clients(num_clients: int, fraction: float, seed: int) -> list[int]:
    """ceil(C*N) distinct clients, drawn uniformly under the given seed.

    C*N is taken from the decimal C that was configured, so a fraction of
    0.07 with 100 clients picks 7 clients, not 8 (0.07 * 100 in floats is
    7.000000000000001).
    """
    count = math.ceil(Fraction(str(fraction)) * num_clients)
    rng = rng_from(seed)
    return sorted(int(k) for k in rng.choice(num_clients, size=count, replace=False))


def _split_client_shards(
    train: Dataset, partition: Partition, fraction: float, master_seed: int
) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
    """Hold out a stratified slice of every client shard for evaluation.

    Returns the train and holdout index arrays, position k for client k. A
    single-sample class stays on the train side; every class with two or
    more samples contributes a holdout sample.
    """
    if fraction == 0.0:
        return list(partition.shards), None
    train_shards: list[np.ndarray] = []
    test_shards: list[np.ndarray] = []
    for k, shard in enumerate(partition.shards):
        rng = derive_rng(master_seed, "client-holdout", k)
        tr_pos, te_pos = stratified_split_indices(
            train.labels[shard], train.num_classes, fraction, rng
        )
        train_shards.append(shard[tr_pos])
        test_shards.append(shard[te_pos])
        if np.intersect1d(train_shards[-1], test_shards[-1]).size:
            raise AssertionError(f"client {k} evaluation indices leaked into training")
    return train_shards, test_shards


@dataclass(frozen=True)
class _HoldoutStack:
    """Client holdouts of equal row count, classified in one stacked pass.

    positions index the client shards, position k for client k, so they
    are the clients' ids.
    """

    positions: np.ndarray  # (G,)
    features: np.ndarray  # (G, n, input_dim)
    labels: np.ndarray  # (G, n)


def _holdout_stacks(train: Dataset, shards: list[np.ndarray]) -> list[_HoldoutStack]:
    """Stack the non-empty holdouts by row count, at most EVAL_BLOCK_ROWS rows
    a stack (a holdout longer than that forms a stack of its own)."""
    by_rows: dict[int, list[int]] = {}
    for pos, shard in enumerate(shards):
        if len(shard):
            by_rows.setdefault(len(shard), []).append(pos)
    stacks = []
    for n, positions in sorted(by_rows.items()):
        per_stack = max(1, EVAL_BLOCK_ROWS // n)
        for lo in range(0, len(positions), per_stack):
            chunk = positions[lo : lo + per_stack]
            idx = np.stack([shards[p] for p in chunk])
            stacks.append(_HoldoutStack(
                positions=np.array(chunk),
                features=train.features[idx],
                labels=train.labels[idx],
            ))
    return stacks


@dataclass(frozen=True)
class EvalPoint:
    round: int
    global_metrics: Metrics
    personalized_mean: float | None = None
    # One entry per client, in client-id order, None where the holdout is
    # empty; the means are over the clients with a holdout.
    personalized_per_client: list[float | None] | None = None
    global_on_clients_mean: float | None = None
    global_on_clients_per_client: list[float | None] | None = None

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


@dataclass(frozen=True)
class _Algorithm:
    """One algorithm's client and server steps, and the state they update in
    place from round to round."""

    # (global params, shard x, shard y, train config, client id) -> update
    client_step: Callable[[ModelParams, np.ndarray, np.ndarray, TrainConfig, int], ClientUpdate]
    # (global params, updates) -> the next global params
    server_step: Callable[[ModelParams, list[ClientUpdate]], ModelParams]
    heads: np.ndarray | None = None  # FedPer: (num_clients, head_size), row k client k's head
    features: np.ndarray | None = None  # CReFF: the prototypes that model.ckpt stores


def _algorithm(
    config: ExperimentConfig, model_config: ModelConfig, params: ModelParams
) -> _Algorithm:
    """The steps of config.algo.algorithm from the initial params: the only
    code in this module that reads the algorithm's name. The steps look the
    rules up in this module's globals at call time, so a wrapper set on those
    names (the benchmark's tracer) sees every call."""
    algo = config.algo

    def local_sgd(w, x, y, tc, k):
        return local_update_fedavg(w, model_config, x, y, tc, k)

    def average(w, updates):
        return aggregate_weighted(updates)

    if algo.algorithm == ALGO_FEDPROX:
        return _Algorithm(
            lambda w, x, y, tc, k: local_update_fedprox(w, model_config, x, y, tc, algo.mu, k),
            average,
        )
    if algo.algorithm == ALGO_FEDPER:
        heads = np.tile(params.head_block, (config.partition.num_clients, 1))

        def keep_heads_average_rep(w, updates):
            for u in updates:
                heads[u.client_id] = u.params.head_block
            return aggregate_rep_only(updates, w)

        return _Algorithm(
            lambda w, x, y, tc, k: local_update_fedper(w, heads[k], model_config, x, y, tc, k),
            keep_heads_average_rep,
            heads=heads,
        )
    if algo.algorithm == ALGO_CREFF:
        creff = CreffServer(
            model_config, algo, seed=derive_seed(config.master_seed, "creff-features")
        )

        def local_sgd_and_head_grads(w, x, y, tc, k):
            update = local_sgd(w, x, y, tc, k)
            update.head_class_grads = creff_client_head_grads(w, model_config, x, y)
            return update

        def average_and_retrain_head(w, updates):
            rep = aggregate_rep_only(updates, w).rep_block
            return ModelParams(rep, creff.server_round(w, updates))

        return _Algorithm(
            local_sgd_and_head_grads, average_and_retrain_head, features=creff.features
        )
    return _Algorithm(local_sgd, average)


def _client_accuracies(acc: np.ndarray) -> tuple[float | None, list[float | None]]:
    """The mean over the clients with a holdout, and the per-client list with
    None for an empty holdout (NaN in acc)."""
    held = acc[~np.isnan(acc)]
    mean = float(np.mean(held)) if held.size else None
    return mean, [None if math.isnan(a) else a for a in acc.tolist()]


def _evaluate_point(
    config: ExperimentConfig, model_config: ModelConfig, round_idx: int, params: ModelParams,
    heads: np.ndarray | None, test: Dataset, groups: dict[int, str],
    holdouts: list[_HoldoutStack] | None,
) -> EvalPoint:
    """Given FedPer's heads, also scores each client's personal model."""
    global_metrics = evaluate(params, model_config, test, groups)
    personalized = None
    personalized_per = None
    global_on_clients = None
    global_per = None
    if holdouts is not None:
        global_acc = np.full(config.partition.num_clients, np.nan)  # NaN: empty holdout
        personal_acc = None if heads is None else global_acc.copy()
        for stack in holdouts:
            preds = predict(params, model_config, stack.features)
            global_acc[stack.positions] = (preds == stack.labels).mean(axis=1)
            if heads is not None:
                personal = ModelParams(params.rep_block, heads[stack.positions])
                preds = predict(personal, model_config, stack.features)
                personal_acc[stack.positions] = (preds == stack.labels).mean(axis=1)
        global_on_clients, global_per = _client_accuracies(global_acc)
        if personal_acc is not None:
            personalized, personalized_per = _client_accuracies(personal_acc)
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


@one_blas_thread()
def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one federated experiment end to end, on one BLAS thread.

    The round loop samples ceil(C*N) clients per round, runs the algorithm's
    local update for each in client-id order, aggregates, and evaluates the
    global model every eval_every rounds plus at round 0 and the final round.
    A round whose aggregated model holds NaN or infinity ends the run with an
    FltbenchError naming the round; numpy's overflow and invalid-value
    warnings on the way there are silenced, since that error reports them.
    """
    start = time.perf_counter()
    train, test, data_info, partition = prepare_partition(config)
    train_shards, client_test_shards = _split_client_shards(
        train, partition, config.client_holdout_fraction, config.master_seed
    )
    holdouts = None
    if client_test_shards is not None:
        holdouts = _holdout_stacks(train, client_test_shards)  # built once per run

    model_config = ModelConfig(
        arch=config.model.arch,
        input_dim=train.dim,
        num_classes=train.num_classes,
        init_seed=derive_seed(config.master_seed, "model-init"),
        hidden_units=config.model.hidden_units,
    )
    params = init_model(model_config)
    algorithm = _algorithm(config, model_config, params)
    algo = config.algo

    groups = head_tail_groups(partition.counts.sum(axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        eval_points = [_evaluate_point(
            config, model_config, 0, params, algorithm.heads, test, groups, holdouts
        )]
        for round_idx in range(1, algo.rounds + 1):
            try:
                sampled = sample_clients(
                    config.partition.num_clients,
                    algo.participation_fraction,
                    derive_seed(config.master_seed, "client-sampling", round_idx),
                )
                updates = []
                for k in sampled:
                    shard = train_shards[k]
                    shard_x, shard_y = train.features[shard], train.labels[shard]
                    seed = derive_seed(config.master_seed, "local-train", round_idx, k)
                    tc = replace(config.train, shuffle_seed=seed)
                    updates.append(algorithm.client_step(params, shard_x, shard_y, tc, k))
                params = algorithm.server_step(params, updates)
                if not params.is_finite():
                    raise FltbenchError(_divergence_message(updates))
            except FltbenchError as exc:
                raise FltbenchError(f"round {round_idx}: {exc}") from exc

            if round_idx % config.eval_every == 0 or round_idx == algo.rounds:
                eval_points.append(_evaluate_point(
                    config, model_config, round_idx, params, algorithm.heads,
                    test, groups, holdouts,
                ))

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
        federated_features=(
            None if algorithm.features is None else algorithm.features.copy()
        ),
    )


def prepare_partition(config: ExperimentConfig) -> tuple[Dataset, Dataset, dict, Partition]:
    """build_data's train set, test set and data info, and the train set's
    partition under the seed derived for it: a run's data, before training."""
    train, test, data_info = build_data(config)
    spec = replace(config.partition, seed=derive_seed(config.master_seed, "partition"))
    return train, test, data_info, build_partition(train, spec)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    row: str
    col: str
    seed_index: int
    config: ExperimentConfig


SweepOutcome = tuple[SweepCell, ExperimentReport | None, str | None]


def _run_cell(cell: SweepCell) -> SweepOutcome:
    """Run one cell; any exception becomes the cell's one-line error, so one
    crashing cell never takes down the sweep.

    A sweep writes only each cell's JSON report, so the report comes back
    without the model arrays (final_params, federated_features): a CReFF
    cell's prototypes alone are 320 KB at the table2 grid, pickled from its
    worker and unpickled by the sweep for nothing.
    """
    try:
        report = run_experiment(cell.config)
        return cell, replace(report, final_params=None, federated_features=None), None
    except Exception as exc:
        return cell, None, " ".join(f"{type(exc).__name__}: {exc}".splitlines())


def _die_with_parent(parent: int) -> None:
    """Pool worker initializer: on Linux, have the kernel SIGKILL this worker
    when the thread that forked it, the sweep's, ends, as it does when the
    sweep process is killed; and exit at once if the sweep is gone already.
    Without it a killed sweep leaves its workers running, busy on a cell or
    waiting on a queue that their siblings keep open. SIGKILL, because
    forked workers inherit the sweep's signal handlers. Elsewhere this does
    nothing."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
        if os.getppid() != parent:
            os._exit(1)


def run_sweep(cells: list[SweepCell], workers: int = 1) -> list[SweepOutcome]:
    """Run every cell, optionally on a process pool, and return each cell's
    (cell, report, None), or (cell, None, one-line error) if it failed, in
    cell order. A failed cell does not stop the others. The reports carry no
    final_params or federated_features."""
    if workers > 1 and len(cells) > 1:
        # Forked workers inherit the one BLAS thread, so run_experiment never
        # has to set it there. The pool forks all its workers at once, so it
        # gets no more workers than cells.
        with one_blas_thread(), concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(cells)), initializer=_die_with_parent,
                initargs=(os.getpid(),)) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]


def sweep_table(rows: list[str], cols: list[str], outcomes: list[SweepOutcome]) -> str:
    """The sweep table as CSV, a line per row (algorithm) and a column per
    setting. A cell is its seeds' mean best accuracy, or ERROR if any failed."""
    accs: dict[tuple[str, str], list[float | None]] = {}
    for cell, report, _ in outcomes:
        acc = None if report is None else report.best_accuracy
        accs.setdefault((cell.row, cell.col), []).append(acc)
    lines = ["algorithm," + ",".join(cols)]
    for row in rows:
        seeds = [accs.get((row, col), [None]) for col in cols]
        values = ["ERROR" if None in s else f"{np.mean(s):.4f}" for s in seeds]
        lines.append(",".join([row, *values]))
    return "".join(line + "\n" for line in lines)
