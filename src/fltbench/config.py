"""The experiment's config objects and their strict config-file schema.

ExperimentConfig and its sections are the one record of what a run does:
this module parses a document into one and the orchestrator runs it, so it
imports nothing of the orchestrator. Config documents are JSON
with nested sections that map one-to-one onto ExperimentConfig: each
dataclass-typed field is a section, and the remaining scalar fields form the
run section. A section's keys are its dataclass's fields, with the same
types and defaults, so every value rule lives in the dataclass that owns the
field. Unknown keys are fatal: a typo in a hyperparameter name must never
silently fall back to a default. All randomness flows from run.master_seed;
sub-seeds are derived inside the orchestrator and never appear in config
files.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .algorithms import ALGO_CREFF, AlgoConfig
from .datasets import CIFAR_CLASSES, CIFAR_PIXELS, check_synthetic, exponential_profile
from .errors import ConfigError
from .nn import TrainConfig, check_architecture
from .partition import PartitionSpec, check_supply

SOURCE_SYNTHETIC = "synthetic"
SOURCE_CIFAR10 = "cifar10"


def _check_floats(what: str, count: int) -> None:
    # numpy raises ValueError, not MemoryError, for arrays of 2**63 bytes or
    # more, so sizes that ask for one are config faults found at parse time.
    if count >= 2**60:
        raise ValueError(f"{what} would be {count} float64s, more than numpy can hold")


# The data keys that only synthetic data reads, and their defaults there.
SYNTHETIC_DEFAULTS = {"per_class": 500, "test_per_class": 100, "dim": 32, "cluster_spread": 1.0}


@dataclass(frozen=True)
class DataConfig:
    source: str
    num_classes: int = 10
    per_class: int | None = None
    test_per_class: int | None = None
    dim: int | None = None
    cluster_spread: float | None = None
    data_dir: str | None = None
    lt_target_if: float | None = None

    def __post_init__(self) -> None:
        if self.source not in (SOURCE_SYNTHETIC, SOURCE_CIFAR10):
            raise ValueError(
                f"source must be one of {SOURCE_SYNTHETIC}, {SOURCE_CIFAR10}, not {self.source!r}"
            )
        for key, default in SYNTHETIC_DEFAULTS.items():
            if self.source == SOURCE_SYNTHETIC and getattr(self, key) is None:
                object.__setattr__(self, key, default)
            elif self.source == SOURCE_CIFAR10 and getattr(self, key) is not None:
                raise ValueError(f"{key} is read by synthetic data only, not by cifar10")
        if self.source == SOURCE_CIFAR10 and self.num_classes != CIFAR_CLASSES:
            raise ValueError(f"num_classes must be {CIFAR_CLASSES} for cifar10")
        if self.source == SOURCE_SYNTHETIC:
            check_synthetic(self.num_classes, self.dim, self.cluster_spread,
                            per_class=self.per_class, test_per_class=self.test_per_class)
            _check_floats("num_classes * max(per_class, test_per_class) * dim",
                          self.num_classes * max(self.per_class, self.test_per_class) * self.dim)
        if self.lt_target_if is not None and not self.lt_target_if >= 1.0:
            raise ValueError("lt_target_if must be >= 1")
        self.synthetic_train_counts()  # rejects an unrealizable long-tail profile

    def synthetic_train_counts(self) -> np.ndarray | None:
        """Per-class train counts after long-tail shaping, for synthetic data.

        Synthetic classes all hold per_class samples before shaping. None for
        CIFAR-10, whose counts are known only once the files are read (see
        orchestrator.build_data).
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
        if not 0 <= self.master_seed < 2**64:
            # derive_seed keeps 64 bits, so any other seed would alias one of these
            raise ValueError(f"master_seed {self.master_seed} is outside [0, 2**64)")
        classes = self.data.num_classes
        dim = CIFAR_PIXELS if self.data.source == SOURCE_CIFAR10 else self.data.dim
        hidden = self.model.hidden_units
        _check_floats("model.hidden_units weights", (hidden or 0) * max(dim, classes))
        if self.algo.algorithm == ALGO_CREFF:
            _check_floats("algo.ff_per_class prototypes",
                          classes * self.algo.ff_per_class * max(hidden or dim, classes))


_RUN = "run"


def _schema_fields(cls: type) -> tuple[tuple[str, type, Any], ...]:
    """(key, type, default) of each scalar field a config file may set; the
    default is ... for a required field, and an optional type is its
    non-null member."""
    hints = typing.get_type_hints(cls)
    fields = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            continue
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        fields.append((f.name, kind, ... if f.default is dataclasses.MISSING else f.default))
    return tuple(fields)


_HINTS = typing.get_type_hints(ExperimentConfig)
# (section, dataclass, fields) in document order, resolved once at import.
_SCHEMA = tuple(
    (f.name, _HINTS[f.name], _schema_fields(_HINTS[f.name]))
    for f in dataclasses.fields(ExperimentConfig)
    if dataclasses.is_dataclass(_HINTS[f.name])
) + ((_RUN, ExperimentConfig, _schema_fields(ExperimentConfig)),)
_SECTION_KEYS = {name: {key for key, _, _ in fields} for name, _, fields in _SCHEMA}
_SECTIONS = set(_SECTION_KEYS)


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    return value


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kind: type, where: str, default: Any = ...) -> Any:
    if key not in section or section[key] is None:
        if default is ...:
            raise ConfigError(f"{where}.{key} is required")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        # An integer beyond the float range counts as infinite.
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(f"{where}.{key} must be a number, not a boolean")
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} has the wrong type")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite")
    return value


def parse_experiment_config(raw: dict, env_data_dir: str | None = None) -> ExperimentConfig:
    """Validate a raw JSON document and build an ExperimentConfig.

    env_data_dir supplies a default dataset root (the FLTB_DATA_DIR
    environment variable) for cifar10 configs without an explicit data_dir.
    A dataclass's ValueError or ConfigError becomes a ConfigError prefixed
    by its section. A synthetic config's partition is checked against the
    class counts its data section implies, so a spec the data cannot supply
    fails here and not when the partition is built.
    """
    raw = _require_mapping(raw, "config")
    _check_keys(raw, _SECTIONS, "config")
    for name, _, _ in _SCHEMA:
        if name not in raw:
            raise ConfigError(f"missing config section '{name}'")
    built: dict[str, Any] = {}
    for name, cls, fields in _SCHEMA:
        section = _require_mapping(raw[name], name)
        _check_keys(section, _SECTION_KEYS[name], name)
        values = {key: _get(section, key, kind, name, default) for key, kind, default in fields}
        if name == "data" and values["source"] == SOURCE_CIFAR10 and values["data_dir"] is None:
            values["data_dir"] = env_data_dir
        if name == _RUN:
            values.update(built)
        try:
            built[name] = cls(**values)
            counts = built["data"].synthetic_train_counts() if name == "partition" else None
            if counts is not None:
                check_supply(built[name], counts)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc) if name == _RUN else f"{name}: {exc}") from exc
    return built[_RUN]


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    """Serialize back to the config-file document shape (round-trippable)."""
    doc = {}
    for name, _, fields in _SCHEMA:
        owner = config if name == _RUN else getattr(config, name)
        doc[name] = {key: getattr(owner, key) for key, _, _ in fields}
    return doc


# Arrays and objects a config document may nest; a grid's settings nest 5.
MAX_CONFIG_DEPTH = 32


def load_config_file(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} nests too deeply to parse: {exc}") from exc
    pending = [(doc, 1)]  # walked without recursion, so any depth is safe
    while pending:
        value, depth = pending.pop()
        if isinstance(value, (dict, list)):
            if depth > MAX_CONFIG_DEPTH:
                raise ConfigError(f"{path} nests more than {MAX_CONFIG_DEPTH} levels deep")
            children = value.values() if isinstance(value, dict) else value
            pending += [(child, depth + 1) for child in children]
    return doc


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

@dataclass(frozen=True)
class SweepCell:
    row: str
    col: str
    seed_index: int
    config: ExperimentConfig


def slug(label: str) -> str:
    """The part of a sweep cell's report file name that names its setting."""
    return "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in label)


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
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"grid.name {name!r} must be a file name, not a path")
    base = _require_mapping(raw.get("base"), "grid.base")
    algorithms = raw.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        raise ConfigError("grid.algorithms must be a non-empty list")
    for i, algo in enumerate(algorithms):
        if algo in algorithms[:i]:
            raise ConfigError(f"duplicate algorithm {algo!r}")
    settings = raw.get("settings")
    if not isinstance(settings, list) or not settings:
        raise ConfigError("grid.settings must be a non-empty list")
    seeds = raw.get("seeds", None)
    if seeds is None:
        seeds = [None]
    elif not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("grid.seeds must be a non-empty list of integers")

    cols: list[str] = []
    slugs: dict[str, str] = {}
    cells: list[SweepCell] = []
    for setting in settings:
        setting = _require_mapping(setting, "grid.settings[]")
        _check_keys(setting, {"label", "overrides"}, "grid.settings[]")
        label = _get(setting, "label", str, "grid.settings[]")
        if label in cols:
            raise ConfigError(f"duplicate setting label {label!r}")
        if any(ch in label for ch in ',"\r\n'):
            raise ConfigError(f"setting label {label!r} is a column of the sweep table "
                              "and cannot hold a comma, a double quote or a line break")
        if slugs.setdefault(slug(label), label) != label:
            raise ConfigError(f"setting labels {slugs[slug(label)]!r} and {label!r} "
                              "give their cells the same report file name")
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
