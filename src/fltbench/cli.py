"""Command-line front end: partition, train, and sweep subcommands.

Exit codes: 0 success, 1 runtime failure (FltbenchError), 2 usage error or
an input at fault (ConfigError). All CSVs are UTF-8 with LF line endings and
'.' decimals; every emitted file is fully determined by the config file (the
CLI injects no entropy of its own).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import Iterator

from .config import (
    experiment_config_to_dict,
    load_config_file,
    parse_experiment_config,
    parse_grid_config,
    slug,
)
from .errors import ConfigError, FltbenchError
from .nn import save_checkpoint
from .orchestrator import (ExperimentConfig, SweepCell, prepare_partition, run_experiment,
                           run_sweep, sweep_table)
from .partition import partition_report

DATA_DIR_ENV = "FLTB_DATA_DIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltbench",
        description="Deterministic federated learning benchmark for long-tailed data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("partition", "write partition statistics and the shard manifest, no training"),
        ("train", "run one federated experiment and write its report"),
        ("sweep", "run a grid of experiments and write a benchmark table"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        if name == "sweep":
            cmd.add_argument(
                "--workers", type=int, default=1, help="processes that run sweep cells"
            )
        cmd.add_argument(
            "--dry-run",
            action="store_true",
            help="validate the config, print it resolved, and exit",
        )
    return parser


def _prepare_out_dir(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(path, os.W_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return path


@contextlib.contextmanager
def _writing(path: Path) -> Iterator[None]:
    try:
        yield
    except OSError as exc:  # such as an output directory removed meanwhile
        raise FltbenchError(f"cannot write {path}: {exc.strerror}") from exc


def _write(path: Path, text: str) -> None:
    with _writing(path), open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig | None:
    """The parsed config of a partition or train command, or None once
    --dry-run has printed it resolved."""
    raw = load_config_file(args.config)
    config = parse_experiment_config(raw, env_data_dir=os.environ.get(DATA_DIR_ENV))
    if args.dry_run:
        print(json.dumps(experiment_config_to_dict(config), indent=2))
        return None
    return config


def _cmd_partition(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    if config is None:
        return EXIT_OK
    out = _prepare_out_dir(args.out)
    train, _, _, partition = prepare_partition(config)
    report = partition_report(partition)
    _write(out / "partition.csv", report.to_csv())
    _write(out / "partition.json", report.to_json() + "\n")
    manifest = {
        "dataset": train.name,
        "num_samples": len(train),
        "clients": {str(k): shard.tolist() for k, shard in enumerate(partition.shards)},
    }
    _write(out / "shards.json", json.dumps(manifest) + "\n")
    print(f"wrote partition report for {config.partition.num_clients} clients to {out}")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    config = _experiment_config(args)
    if config is None:
        return EXIT_OK
    out = _prepare_out_dir(args.out)
    report = run_experiment(config)
    _write(out / "report.json", json.dumps(report.to_json_dict(), indent=2) + "\n")
    _write(out / "metrics.csv", report.metrics_csv())
    with _writing(out / "model.ckpt"):
        save_checkpoint(
            out / "model.ckpt",
            report.model_config,
            report.final_params,
            federated_features=report.federated_features,
        )
    print(
        f"final accuracy {report.final_accuracy:.4f}, "
        f"best {report.best_accuracy:.4f}; report written to {out}"
    )
    return EXIT_OK


def _cell_report_path(cell_dir: Path, cell: SweepCell) -> Path:
    return cell_dir / f"{cell.row}__{slug(cell.col)}__seed{cell.seed_index}.report.json"


def _check_creatable(directory: Path, paths: list[Path]) -> None:
    """Fail before a sweep runs its cells if the file system refuses one of
    its output names: create the directory, and create or open each file,
    removing the files this made."""
    path = directory
    try:
        directory.mkdir(exist_ok=True)
        for path in paths:
            existed = path.exists()
            open(path, "a").close()
            if not existed:
                path.unlink()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create sweep output {str(path)!r}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, not {args.workers}")
    raw = load_config_file(args.config)
    name, cells, rows, cols = parse_grid_config(
        raw, env_data_dir=os.environ.get(DATA_DIR_ENV)
    )
    if args.dry_run:
        print(
            json.dumps(
                {
                    "name": name,
                    "rows": rows,
                    "cols": cols,
                    "cells": [
                        {
                            "row": c.row,
                            "col": c.col,
                            "seed_index": c.seed_index,
                            "config": experiment_config_to_dict(c.config),
                        }
                        for c in cells
                    ],
                },
                indent=2,
            )
        )
        return EXIT_OK
    out = _prepare_out_dir(args.out)
    cell_dir = out / "cells"
    _check_creatable(
        cell_dir,
        [out / f"{name}.csv", out / "errors.txt"]
        + [_cell_report_path(cell_dir, cell) for cell in cells],
    )
    outcomes = run_sweep(cells, workers=args.workers)
    _write(out / f"{name}.csv", sweep_table(rows, cols, outcomes))
    failures = []
    for cell, report, error in outcomes:
        if report is None:
            where = f"cell ({cell.row}, {cell.col}) seed {cell.seed_index}"
            failures.append(f"{where} failed: {error}\n")
        else:
            report_json = json.dumps(report.to_json_dict(), indent=2) + "\n"
            _write(_cell_report_path(cell_dir, cell), report_json)
    _write(out / "errors.txt", "".join(failures))
    for line in failures:
        print(f"warning: {line}", end="", file=sys.stderr)
    print(f"sweep table written to {out / (name + '.csv')} ({len(failures)} warnings)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    handlers = {
        "partition": _cmd_partition,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FltbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
