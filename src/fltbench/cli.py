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
    ExperimentConfig,
    SweepCell,
    experiment_config_to_dict,
    load_config_file,
    parse_experiment_config,
    parse_grid_config,
    slug,
)
from .errors import ConfigError, FltbenchError
from .nn import save_checkpoint
from .orchestrator import (SweepOutcome, prepare_partition, run_experiment, run_sweep,
                           sweep_table)
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
            help="validate the config without reading data, print it resolved, and exit",
        )
    return parser


def _prepare_outputs(command: str, out: str, names: list[str]) -> Path:
    """Fail before a command does its work if the file system refuses one of
    its outputs: create the output directory and the directories of the
    named files in it, then create or open each file, removing the files
    this made. Raises ConfigError; returns the output directory."""
    root = Path(out)
    paths = [root / name for name in names]
    try:
        for path in dict.fromkeys(p.parent for p in paths):
            path.mkdir(parents=True, exist_ok=True)
        for path in paths:
            existed = path.exists()
            open(path, "a").close()
            if not existed:
                path.unlink()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot create {command} output {str(path)!r}: {exc}") from exc
    return root


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
    out = _prepare_outputs("partition", args.out,
                           ["partition.csv", "partition.json", "shards.json"])
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
    out = _prepare_outputs("train", args.out, ["report.json", "metrics.csv", "model.ckpt"])
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


def _cell_report_name(cell: SweepCell) -> str:
    return f"cells/{cell.row}__{slug(cell.col)}__seed{cell.seed_index}.report.json"


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
    out = _prepare_outputs("sweep", args.out, [f"{name}.csv", "errors.txt"]
                           + [_cell_report_name(cell) for cell in cells])

    def write_report(outcome: SweepOutcome) -> None:
        cell, report, _ = outcome
        if report is not None:
            report_json = json.dumps(report.to_json_dict(), indent=2) + "\n"
            _write(out / _cell_report_name(cell), report_json)

    # Each report is written as its cell ends, so an interrupted sweep keeps
    # the cells it finished; the table and errors.txt come last.
    outcomes = run_sweep(cells, workers=args.workers, on_outcome=write_report)
    _write(out / f"{name}.csv", sweep_table(rows, cols, outcomes))
    failures = [f"cell ({cell.row}, {cell.col}) seed {cell.seed_index} failed: {error}\n"
                for cell, report, error in outcomes if report is None]
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
