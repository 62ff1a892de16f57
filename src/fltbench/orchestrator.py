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

import numpy as np

from .algorithms import (
    ALGO_CREFF,
    ALGO_FEDPER,
    ALGO_FEDPROX,
    ClientUpdate,
    CreffServer,
    aggregate_rep_only,
    aggregate_weighted,
    creff_client_head_grads,
    local_update_fedavg,
    local_update_fedper,
    local_update_fedprox,
)
from .config import SOURCE_SYNTHETIC, ExperimentConfig, SweepCell, experiment_config_to_dict
from .datasets import (
    Dataset,
    class_counts,
    exponential_profile,
    generate_synthetic,
    head_tail_groups,
    load_cifar10,
    shape_long_tailed,
    stratified_split_indices,
)
from .errors import ConfigError, FltbenchError
from .nn import (
    EVAL_BLOCK_ROWS,
    Metrics,
    ModelConfig,
    ModelParams,
    evaluate,
    init_model,
    one_blas_thread,
    predict,
)
from .partition import Partition, PartitionReport, build_partition, partition_report
from .seeding import derive_rng, derive_seed, rng_from


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
        train, test = load_cifar10(data.data_dir)

    info = {"train_size_before_shaping": len(train), "train_size": len(train)}
    if data.lt_target_if is not None:
        n_max = int(class_counts(train.labels, train.num_classes).min())
        profile = exponential_profile(n_max, train.num_classes, data.lt_target_if)
        train = shape_long_tailed(
            train, profile, seed=derive_seed(config.master_seed, "lt-shaping")
        )
        info["train_size"] = len(train)
    info["discarded_by_shaping"] = info["train_size_before_shaping"] - info["train_size"]
    info["test_size"] = len(test)
    return train, test, info


def sample_clients(num_clients: int, fraction: float, seed: int) -> list[int]:
    """ceil(C*N) distinct clients, drawn uniformly under the given seed.

    C*N is taken from the decimal C that was configured, so a fraction of
    0.07 with 100 clients picks 7 clients, not 8 (0.07 * 100 in floats is
    7.000000000000001).
    """
    count = math.ceil(Fraction(str(fraction)) * num_clients)
    rng = rng_from(seed)
    return sorted(int(k) for k in rng.choice(num_clients, size=count, replace=False))


# A stack of client holdouts of equal row count, classified in one pass:
# (client ids (G,), features (G, n, input_dim), labels (G, n)).
_Holdouts = list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _client_holdouts(
    train: Dataset, partition: Partition, fraction: float, master_seed: int
) -> tuple[list[np.ndarray], _Holdouts | None]:
    """Hold out a stratified slice of every client shard for evaluation.

    Returns the train index arrays, position k for client k, and the
    non-empty holdouts stacked by row count, at most EVAL_BLOCK_ROWS rows a
    stack (a holdout longer than that forms a stack of its own). A
    single-sample class stays on the train side; every class with two or
    more samples contributes a holdout sample.
    """
    if fraction == 0.0:
        return list(partition.shards), None
    train_shards: list[np.ndarray] = []
    by_rows: dict[int, list[tuple[int, np.ndarray]]] = {}
    for k, shard in enumerate(partition.shards):
        rng = derive_rng(master_seed, "client-holdout", k)
        tr_pos, te_pos = stratified_split_indices(
            train.labels[shard], train.num_classes, fraction, rng
        )
        train_shards.append(shard[tr_pos])
        held = shard[te_pos]
        if np.intersect1d(train_shards[-1], held).size:
            raise AssertionError(f"client {k} evaluation indices leaked into training")
        if held.size:
            by_rows.setdefault(held.size, []).append((k, held))
    stacks = []
    for n, clients in sorted(by_rows.items()):
        per_stack = max(1, EVAL_BLOCK_ROWS // n)
        for lo in range(0, len(clients), per_stack):
            ids, indices = zip(*clients[lo : lo + per_stack])
            idx = np.stack(indices)
            stacks.append((np.array(ids), train.features[idx], train.labels[idx]))
    return train_shards, stacks


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

    # (global params, shard x, shard y, shuffle generator, client id) -> update
    client_step: Callable[[ModelParams, np.ndarray, np.ndarray, np.random.Generator, int],
                          ClientUpdate]
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
    algo, tc = config.algo, config.train

    def local_sgd(w, x, y, rng, k):
        return local_update_fedavg(w, model_config, x, y, tc, rng, k)

    def average(w, updates):
        return aggregate_weighted(updates)

    if algo.algorithm == ALGO_FEDPROX:
        return _Algorithm(
            lambda w, x, y, rng, k: local_update_fedprox(
                w, model_config, x, y, tc, rng, algo.mu, k),
            average,
        )
    if algo.algorithm == ALGO_FEDPER:
        heads = np.tile(params.head_block, (config.partition.num_clients, 1))

        def keep_heads_average_rep(w, updates):
            for u in updates:
                heads[u.client_id] = u.params.head_block
            return aggregate_rep_only(updates, w)

        return _Algorithm(
            lambda w, x, y, rng, k: local_update_fedper(
                w, heads[k], model_config, x, y, tc, rng, k),
            keep_heads_average_rep,
            heads=heads,
        )
    if algo.algorithm == ALGO_CREFF:
        creff = CreffServer(
            model_config, algo, seed=derive_seed(config.master_seed, "creff-features")
        )

        def local_sgd_and_head_grads(w, x, y, rng, k):
            update = local_sgd(w, x, y, rng, k)
            update.head_class_grads = creff_client_head_grads(w, model_config, x, y)
            return update

        def average_and_retrain_head(w, updates):
            rep = aggregate_weighted(updates).rep_block
            return ModelParams(rep, creff.server_round(w, updates))

        return _Algorithm(
            local_sgd_and_head_grads, average_and_retrain_head, features=creff.features
        )
    return _Algorithm(local_sgd, average)


def _holdout_accuracies(
    model_config: ModelConfig, rep_block: np.ndarray, heads: np.ndarray,
    holdouts: _Holdouts, num_clients: int,
) -> tuple[float | None, list[float | None]]:
    """Score every client holdout under the shared rep_block and heads: one
    (head_size,) head block for every client, or FedPer's (num_clients,
    head_size) heads, row k for client k. Returns the mean over the clients
    with a holdout, and the per-client list with None for an empty holdout."""
    acc = np.full(num_clients, np.nan)  # NaN: empty holdout
    for ids, features, labels in holdouts:
        head = heads if heads.ndim == 1 else heads[ids]
        preds = predict(ModelParams(rep_block, head), model_config, features)
        acc[ids] = (preds == labels).mean(axis=1)
    held = acc[~np.isnan(acc)]
    mean = float(np.mean(held)) if held.size else None
    return mean, [None if math.isnan(a) else a for a in acc.tolist()]


def _evaluate_point(
    config: ExperimentConfig, model_config: ModelConfig, round_idx: int, params: ModelParams,
    heads: np.ndarray | None, test: Dataset, groups: dict[int, str],
    holdouts: _Holdouts | None,
) -> EvalPoint:
    """Given FedPer's heads, also scores each client's personal model."""
    global_metrics = evaluate(params, model_config, test, groups)
    personalized = personalized_per = global_on_clients = global_per = None
    if holdouts is not None:
        num_clients = config.partition.num_clients
        global_on_clients, global_per = _holdout_accuracies(
            model_config, params.rep_block, params.head_block, holdouts, num_clients
        )
        if heads is not None:
            personalized, personalized_per = _holdout_accuracies(
                model_config, params.rep_block, heads, holdouts, num_clients
            )
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
    train_shards, holdouts = _client_holdouts(
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
                    rng = derive_rng(config.master_seed, "local-train", round_idx, k)
                    updates.append(algorithm.client_step(params, shard_x, shard_y, rng, k))
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
    seed = derive_seed(config.master_seed, "partition")
    return train, test, data_info, build_partition(train, config.partition, seed)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

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
        return cell, None, _one_line(exc)


def _one_line(exc: BaseException) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".splitlines())


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


def _pool_outcomes(
    cells: list[SweepCell], workers: int, on_outcome: Callable[[SweepOutcome], None]
) -> list[SweepOutcome]:
    """_run_cell of every cell on a pool of that many workers, in cell order;
    on_outcome gets each cell's outcome as soon as it arrives.

    A worker that dies breaks the pool, which then fails every cell it had
    not finished with BrokenProcessPool and refuses the cells not yet
    submitted. So each such cell runs once more, alone, in a fresh
    one-worker pool, and only a cell whose own pool breaks keeps that error
    (a fresh pool takes its first cell: it has no worker yet to die).
    """
    outcomes: list[SweepOutcome | None] = [None] * len(cells)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_die_with_parent,
            initargs=(os.getpid(),)) as pool:
        futures = {}
        try:
            for i, cell in enumerate(cells):
                try:
                    futures[pool.submit(_run_cell, cell)] = i
                except concurrent.futures.BrokenExecutor:
                    break  # the cells left unsubmitted re-run below
            for future in concurrent.futures.as_completed(futures):
                i = futures[future]
                try:
                    outcomes[i] = future.result()
                except concurrent.futures.BrokenExecutor as exc:  # BrokenProcessPool
                    if len(cells) > 1:
                        continue  # re-run below
                    outcomes[i] = (cells[i], None, _one_line(exc))
                on_outcome(outcomes[i])
        except BaseException:
            # Leaving the with block would wait for every queued cell to run.
            pool.shutdown(cancel_futures=True)
            raise
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            (outcomes[i],) = _pool_outcomes([cells[i]], 1, on_outcome)
    return outcomes


def run_sweep(
    cells: list[SweepCell], workers: int = 1,
    on_outcome: Callable[[SweepOutcome], None] = lambda outcome: None,
) -> list[SweepOutcome]:
    """Run every cell, optionally on a process pool, and return each cell's
    (cell, report, None), or (cell, None, one-line error) if it failed, in
    cell order. on_outcome is called in this process with each outcome as
    soon as its cell ends, in the order the cells end, so a caller can keep
    what a sweep finished before it was interrupted. No queued cell starts
    after an interruption (a KeyboardInterrupt, or an exception raised by
    on_outcome): the exception propagates once the cells already handed to
    pool workers have ended, and their outcomes are dropped. A failed cell
    does not stop the others, and a pool worker that dies fails only its
    own cell, with a BrokenProcessPool error (see _pool_outcomes). The
    reports carry no final_params or federated_features."""
    if workers > 1 and len(cells) > 1:
        # Forked workers inherit the one BLAS thread, so run_experiment never
        # has to set it there. The pool forks all its workers at once, so it
        # gets no more workers than cells.
        with one_blas_thread():
            return _pool_outcomes(cells, min(workers, len(cells)), on_outcome)
    outcomes = []
    for cell in cells:
        outcomes.append(_run_cell(cell))
        on_outcome(outcomes[-1])
    return outcomes


def sweep_table(rows: list[str], cols: list[str], outcomes: list[SweepOutcome]) -> str:
    """The sweep table as CSV, a line per row (algorithm) and a column per
    setting. A cell is the mean over its seeds of each report's
    best_personalized_mean, or its best_accuracy when it has none (every
    algorithm but FedPer, and FedPer without client holdouts), or ERROR if
    any seed failed."""
    accs: dict[tuple[str, str], list[float | None]] = {}
    for cell, report, _ in outcomes:
        acc = None
        if report is not None:
            acc = report.best_personalized_mean
            if acc is None:
                acc = report.best_accuracy
        accs.setdefault((cell.row, cell.col), []).append(acc)
    lines = ["algorithm," + ",".join(cols)]
    for row in rows:
        seeds = [accs.get((row, col), [None]) for col in cols]
        values = ["ERROR" if None in s else f"{np.mean(s):.4f}" for s in seeds]
        lines.append(",".join([row, *values]))
    return "".join(line + "\n" for line in lines)
