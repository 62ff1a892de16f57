"""The four benchmark workloads and how one operation of each is run and checked.

Every workload derives from the table2 example grid's base config, copied
here so that an edit to the examples cannot change the benchmark. The
workload seed becomes ``run.master_seed``; the program only sees the
generated config file.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fltbench import cli
from fltbench.config import deep_merge
from fltbench.nn import load_checkpoint

TABLE2_BASE = {
    "data": {"source": "synthetic", "num_classes": 10, "per_class": 1000,
             "test_per_class": 200, "dim": 5, "cluster_spread": 1.0},
    "partition": {"kind": "iid", "num_clients": 10, "min_shard_size": 10},
    "model": {"arch": "mlp1h", "hidden_units": 200},
    "train": {"learning_rate": 0.1, "batch_size": 64, "local_epochs": 1,
              "weight_decay": 0.0001},
    "algo": {"algorithm": "fedavg", "rounds": 200, "ff_per_class": 20, "ff_steps": 30,
             "retrain_steps": 300, "ff_lr": 5.0, "retrain_lr": 0.1},
    "run": {"eval_every": 20, "master_seed": 0},
}
LONG_TAIL = {"data": {"lt_target_if": 100.0},
             "partition": {"kind": "dirichlet", "alpha": 0.5}}

SWEEP_WORKERS = 2
TINY_FLOOR = 0.3  # --tiny runs train for two rounds; this only excludes chance level
WALL_CLOCK = re.compile(rb'"wall_clock_sec": [^,\n]*')


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    rounds: int
    tiny_rounds: int
    # best_accuracy must reach the floor on every seed. Each floor sits at
    # least 0.08 below the lowest value seen over seeds 0-29 and 100-109.
    floor: float
    sweep: bool = False

    def config_doc(self, seed: int, tiny: bool, setup: bool) -> dict:
        rounds = 0 if setup else (self.tiny_rounds if tiny else self.rounds)
        doc = deep_merge(TABLE2_BASE, self.overrides)
        doc = deep_merge(doc, {"algo": {"rounds": rounds}, "run": {"master_seed": seed}})
        if not self.sweep:
            return doc
        return {
            "name": "table_sweep",
            "base": doc,
            "algorithms": ["fedavg", "fedprox", "creff", "fedper"],
            "settings": [
                {"label": "IFG1_iid", "overrides": {}},
                {"label": "IFG100_dir0.5", "overrides": LONG_TAIL},
            ],
            "seeds": [seed],
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fedavg_iid", {"algo": {"algorithm": "fedavg"}},
                 rounds=20, tiny_rounds=2, floor=0.7),
        # Evaluated every round, so tail_accuracy averages eight points.
        Workload("creff_lt", deep_merge(LONG_TAIL, {"algo": {"algorithm": "creff"},
                                                    "run": {"eval_every": 1}}),
                 rounds=8, tiny_rounds=2, floor=0.5),
        Workload("fedper_c100",
                 {"partition": {"kind": "rotated_lt", "local_if": 10.0, "num_clients": 100},
                  "algo": {"algorithm": "fedper", "participation_fraction": 0.2},
                  "run": {"client_holdout_fraction": 0.2, "eval_every": 5}},
                 rounds=60, tiny_rounds=5, floor=0.5),
        Workload("table_sweep", {"run": {"eval_every": 2}}, rounds=10, tiny_rounds=2,
                 floor=0.4, sweep=True),
    )
}


@dataclass
class Outcome:
    """What one operation produced, and which of its checks failed."""

    seconds: float
    ops: int  # one run, or one per sweep cell
    files: dict[str, bytes]  # output files, wall_clock_sec masked
    best_accuracy: float = math.nan
    tail_accuracy: float = math.nan
    cell_seconds: float = 0.0  # sum of the sweep cells' own wall_clock_sec
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.ops if self.problems else 0


def run_op(workload: Workload, config_path: Path, out: Path, workers: int, floor: float) -> Outcome:
    """Run one `fltbench train` or `fltbench sweep` through cli.main and check it."""
    argv = ["sweep" if workload.sweep else "train", "--config", str(config_path),
            "--out", str(out)]
    if workload.sweep:
        argv += ["--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails the operation, not the benchmark
            code = repr(exc)
        seconds = time.perf_counter() - start
    files = {
        str(p.relative_to(out)): WALL_CLOCK.sub(b'"wall_clock_sec": -', p.read_bytes())
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    outcome = Outcome(seconds, 1, files)
    if code != 0:
        outcome.problems.append(f"exit {code}")
    if workload.sweep:
        _check_sweep(outcome, out)
    else:
        _check_train(outcome, out)
    if not outcome.best_accuracy >= floor:
        outcome.problems.append(f"best_accuracy {outcome.best_accuracy} below floor {floor}")
    return outcome


def _check_train(outcome: Outcome, out: Path) -> None:
    try:
        report = json.loads((out / "report.json").read_text())
        _, params, _ = load_checkpoint(out / "model.ckpt")
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"unreadable output: {exc}")
        return
    if not (np.isfinite(params.rep_block).all() and np.isfinite(params.head_block).all()):
        outcome.problems.append("non-finite final parameters")
    outcome.best_accuracy, outcome.tail_accuracy = quality(report)


def _check_sweep(outcome: Outcome, out: Path) -> None:
    cells = sorted((out / "cells").glob("*.report.json"))
    outcome.ops = len(cells) or 1
    try:
        table = (out / "table_sweep.csv").read_text()
        reports = [json.loads(p.read_text()) for p in cells]
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"unreadable output: {exc}")
        return
    rows = [line.split(",") for line in table.strip().splitlines()[1:]]
    values = [cell for row in rows for cell in row[1:]]
    if "ERROR" in values or len(values) != len(reports) or not reports:
        outcome.problems.append(f"table has {len(values)} cells for {len(reports)} reports")
        return
    outcome.best_accuracy = sum(float(v) for v in values) / len(values)
    # FedPer cells are left out: their global head is never trained, and
    # without client holdouts they have no personalized score.
    trained = [r for r in reports if r["config"]["algo"]["algorithm"] != "fedper"]
    outcome.tail_accuracy = sum(quality(r)[1] for r in trained) / max(len(trained), 1)
    outcome.cell_seconds = sum(r["wall_clock_sec"] for r in reports)


def quality(report: dict) -> tuple[float, float]:
    """(best_accuracy, tail_accuracy) of one report.json.

    tail_accuracy is the accuracy on the rarest class group (the tail group
    when the training data has one), averaged over the eval points after
    round 0. On balanced training data all classes share one group. At these
    run lengths the mean over the run varies far less between seeds than
    criterion 08's value at the best eval point. FedPer's global head is
    never trained, so a FedPer run with client holdouts is scored by its
    personalized accuracy instead.
    """
    points = report["eval_points"][1:] or report["eval_points"]
    if report["best_personalized_mean"] is not None:
        return report["best_personalized_mean"], statistics.mean(
            p["personalized_mean"] for p in points
        )
    return report["best_accuracy"], statistics.mean(_rarest(p["global"]) for p in points)


def _rarest(metrics: dict) -> float:
    groups = metrics["group_accuracy"] or {}
    return next((groups[g] for g in ("tail", "medium", "head") if g in groups),
                metrics["accuracy"])


def write_config(workload: Workload, seed: int, tiny: bool, setup: bool, path: Path) -> Path:
    path.write_text(json.dumps(workload.config_doc(seed, tiny, setup)))
    return path
