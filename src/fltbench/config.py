"""Strict config-file schema for the CLI.

Config documents are JSON with nested sections that map one-to-one onto
ExperimentConfig. Unknown keys are fatal: a typo in a hyperparameter name
must never silently fall back to a default. All randomness flows from
run.master_seed; sub-seeds are derived inside the orchestrator and never
appear in config files.
"""
from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

from .algorithms import ALGORITHMS, AlgoConfig
from .errors import ConfigError
from .nn import ARCHITECTURES, ARCH_MLP1H, TrainConfig
from .orchestrator import (
    DataConfig,
    ExperimentConfig,
    ModelSpec,
    SOURCE_CIFAR10,
    SOURCE_SYNTHETIC,
    SweepCell,
)
from .partition import KIND_DIRICHLET, KIND_ROTATED_LT, PARTITION_KINDS, PartitionSpec

_SECTIONS = ("data", "partition", "model", "train", "algo", "run")


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kind: type | tuple, where: str, default: Any = ...) -> Any:
    if key not in section or section[key] is None:
        if default is ...:
            raise ConfigError(f"{where}.{key} is required")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{where}.{key} must be a number, not a boolean")
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return value


def parse_experiment_config(raw: dict, env_data_dir: str | None = None) -> ExperimentConfig:
    """Validate a raw JSON document and build an ExperimentConfig.

    env_data_dir supplies a default dataset root (the FLTB_DATA_DIR
    environment variable) for cifar10 configs without an explicit data_dir.
    """
    raw = _require_mapping(raw, "config")
    _check_keys(raw, set(_SECTIONS), "config")
    for name in _SECTIONS:
        if name not in raw:
            raise ConfigError(f"missing config section '{name}'")

    data_raw = _require_mapping(raw["data"], "data")
    _check_keys(
        data_raw,
        {"source", "num_classes", "per_class", "test_per_class", "dim",
         "cluster_spread", "data_dir", "lt_target_if"},
        "data",
    )
    source = _get(data_raw, "source", str, "data")
    if source not in (SOURCE_SYNTHETIC, SOURCE_CIFAR10):
        raise ConfigError(f"data.source must be one of {SOURCE_SYNTHETIC}, {SOURCE_CIFAR10}")
    data_dir = _get(data_raw, "data_dir", str, "data", default=None)
    if source == SOURCE_CIFAR10 and data_dir is None:
        data_dir = env_data_dir
    try:
        data = DataConfig(
            source=source,
            num_classes=_get(data_raw, "num_classes", int, "data", default=10),
            per_class=_get(data_raw, "per_class", int, "data", default=500),
            test_per_class=_get(data_raw, "test_per_class", int, "data", default=100),
            dim=_get(data_raw, "dim", int, "data", default=32),
            cluster_spread=_get(data_raw, "cluster_spread", float, "data", default=1.0),
            data_dir=data_dir,
            lt_target_if=_get(data_raw, "lt_target_if", float, "data", default=None),
        )
    except ValueError as exc:
        raise ConfigError(f"data: {exc}") from exc

    part_raw = _require_mapping(raw["partition"], "partition")
    _check_keys(
        part_raw, {"kind", "num_clients", "alpha", "local_if", "min_shard_size"}, "partition"
    )
    kind = _get(part_raw, "kind", str, "partition")
    if kind not in PARTITION_KINDS:
        raise ConfigError(f"partition.kind must be one of {', '.join(PARTITION_KINDS)}")
    alpha = _get(part_raw, "alpha", float, "partition", default=None)
    if kind == KIND_DIRICHLET and (alpha is None or alpha <= 0):
        raise ConfigError("partition.alpha must be > 0 for dirichlet partitions")
    local_if = _get(part_raw, "local_if", float, "partition", default=None)
    if kind == KIND_ROTATED_LT and (local_if is None or local_if < 1):
        raise ConfigError("partition.local_if must be >= 1 for rotated_lt partitions")
    try:
        partition = PartitionSpec(
            kind=kind,
            num_clients=_get(part_raw, "num_clients", int, "partition"),
            alpha=alpha,
            local_if=local_if,
            min_shard_size=_get(part_raw, "min_shard_size", int, "partition", default=10),
        )
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from exc

    model_raw = _require_mapping(raw["model"], "model")
    _check_keys(model_raw, {"arch", "hidden_units"}, "model")
    arch = _get(model_raw, "arch", str, "model")
    if arch not in ARCHITECTURES:
        raise ConfigError(f"model.arch must be one of {', '.join(ARCHITECTURES)}")
    hidden = _get(model_raw, "hidden_units", int, "model", default=None)
    if arch == ARCH_MLP1H and (hidden is None or hidden < 1):
        raise ConfigError("model.hidden_units must be >= 1 for mlp1h")
    if arch != ARCH_MLP1H and hidden is not None:
        raise ConfigError("model.hidden_units is only valid for mlp1h")
    model = ModelSpec(arch=arch, hidden_units=hidden)

    train_raw = _require_mapping(raw["train"], "train")
    _check_keys(
        train_raw, {"learning_rate", "batch_size", "local_epochs", "weight_decay"}, "train"
    )
    try:
        train = TrainConfig(
            learning_rate=_get(train_raw, "learning_rate", float, "train"),
            batch_size=_get(train_raw, "batch_size", int, "train"),
            local_epochs=_get(train_raw, "local_epochs", int, "train", default=1),
            weight_decay=_get(train_raw, "weight_decay", float, "train", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc

    algo_raw = _require_mapping(raw["algo"], "algo")
    _check_keys(
        algo_raw,
        {"algorithm", "rounds", "participation_fraction", "mu",
         "ff_per_class", "ff_steps", "retrain_steps", "ff_lr", "retrain_lr"},
        "algo",
    )
    algorithm = _get(algo_raw, "algorithm", str, "algo")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algo.algorithm must be one of {', '.join(ALGORITHMS)}")
    try:
        algo = AlgoConfig(
            algorithm=algorithm,
            rounds=_get(algo_raw, "rounds", int, "algo"),
            participation_fraction=_get(
                algo_raw, "participation_fraction", float, "algo", default=1.0
            ),
            mu=_get(algo_raw, "mu", float, "algo", default=0.01),
            ff_per_class=_get(algo_raw, "ff_per_class", int, "algo", default=100),
            ff_steps=_get(algo_raw, "ff_steps", int, "algo", default=100),
            retrain_steps=_get(algo_raw, "retrain_steps", int, "algo", default=300),
            ff_lr=_get(algo_raw, "ff_lr", float, "algo", default=0.01),
            retrain_lr=_get(algo_raw, "retrain_lr", float, "algo", default=0.1),
        )
    except ValueError as exc:
        raise ConfigError(f"algo: {exc}") from exc

    run_raw = _require_mapping(raw["run"], "run")
    _check_keys(run_raw, {"eval_every", "client_holdout_fraction", "master_seed"}, "run")
    try:
        return ExperimentConfig(
            data=data,
            partition=partition,
            model=model,
            train=train,
            algo=algo,
            eval_every=_get(run_raw, "eval_every", int, "run", default=10),
            client_holdout_fraction=_get(
                run_raw, "client_holdout_fraction", float, "run", default=0.0
            ),
            master_seed=_get(run_raw, "master_seed", int, "run", default=0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize back to the config-file document shape (round-trippable)."""
    return {
        "data": {
            "source": config.data.source,
            "num_classes": config.data.num_classes,
            "per_class": config.data.per_class,
            "test_per_class": config.data.test_per_class,
            "dim": config.data.dim,
            "cluster_spread": config.data.cluster_spread,
            "data_dir": config.data.data_dir,
            "lt_target_if": config.data.lt_target_if,
        },
        "partition": {
            "kind": config.partition.kind,
            "num_clients": config.partition.num_clients,
            "alpha": config.partition.alpha,
            "local_if": config.partition.local_if,
            "min_shard_size": config.partition.min_shard_size,
        },
        "model": {
            "arch": config.model.arch,
            "hidden_units": config.model.hidden_units,
        },
        "train": {
            "learning_rate": config.train.learning_rate,
            "batch_size": config.train.batch_size,
            "local_epochs": config.train.local_epochs,
            "weight_decay": config.train.weight_decay,
        },
        "algo": {
            "algorithm": config.algo.algorithm,
            "rounds": config.algo.rounds,
            "participation_fraction": config.algo.participation_fraction,
            "mu": config.algo.mu,
            "ff_per_class": config.algo.ff_per_class,
            "ff_steps": config.algo.ff_steps,
            "retrain_steps": config.algo.retrain_steps,
            "ff_lr": config.algo.ff_lr,
            "retrain_lr": config.algo.retrain_lr,
        },
        "run": {
            "eval_every": config.eval_every,
            "client_holdout_fraction": config.client_holdout_fraction,
            "master_seed": config.master_seed,
        },
    }


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def deep_merge(base: dict, overrides: dict) -> dict:
    """Recursively merge override values into a copy of base.

    Scalars and lists replace; nested objects merge key by key. A null
    override clears the key (used to drop optional settings like
    lt_target_if in sweep grids).
    """
    merged = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


# ---------------------------------------------------------------------------
# Sweep grids
# ---------------------------------------------------------------------------

def parse_grid_config(
    raw: dict, env_data_dir: str | None = None
) -> tuple[str, list[SweepCell], list[str], list[str]]:
    """Expand a grid document into sweep cells.

    The grid varies algorithms (rows) against named settings (columns); each
    setting is an override document merged into the base config. Optional
    seeds replicate every cell; cell values are averaged over them.
    """
    raw = _require_mapping(raw, "grid")
    _check_keys(raw, {"name", "base", "algorithms", "settings", "seeds"}, "grid")
    name = _get(raw, "name", str, "grid")
    base = _require_mapping(raw.get("base"), "grid.base")
    algorithms = raw.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("grid.algorithms must be a non-empty list")
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ConfigError(f"grid.algorithms holds unknown algorithm {algo!r}")
    settings = raw.get("settings")
    if not isinstance(settings, list) or not settings:
        raise ConfigError("grid.settings must be a non-empty list")
    seeds = raw.get("seeds", None)
    if seeds is None:
        seeds = [None]
    elif not isinstance(seeds, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("grid.seeds must be a list of integers")

    cols: list[str] = []
    cells: list[SweepCell] = []
    for setting in settings:
        setting = _require_mapping(setting, "grid.settings[]")
        _check_keys(setting, {"label", "overrides"}, "grid.settings[]")
        label = _get(setting, "label", str, "grid.settings[]")
        if label in cols:
            raise ConfigError(f"duplicate setting label {label!r}")
        cols.append(label)
        overrides = setting.get("overrides", {})
        if overrides is None:
            overrides = {}
        overrides = _require_mapping(overrides, f"grid.settings[{label}].overrides")
        for algo in algorithms:
            for seed_index, seed in enumerate(seeds):
                doc = deep_merge(base, overrides)
                doc = deep_merge(doc, {"algo": {"algorithm": algo}})
                if seed is not None:
                    doc = deep_merge(doc, {"run": {"master_seed": seed}})
                config = parse_experiment_config(doc, env_data_dir=env_data_dir)
                cells.append(
                    SweepCell(row=algo, col=label, seed_index=seed_index, config=config)
                )
    return name, cells, list(algorithms), cols
