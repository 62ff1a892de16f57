"""Property: `fltbench train` and `partition` on any small config document,
and `sweep --dry-run` on any small grid document, exit 0, 1 or 2; and a
document that passes `train --dry-run` exits 2 in `train` only for the one
fault the dry run does not look for, a Dirichlet retry budget run out.

Documents are drawn around the valid region, with values on and past each
bound, and training is kept to at most one round on a few dozen samples so
that an example takes milliseconds. A raised exception (a traceback at the
command line) fails the property.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fltbench.algorithms import ALGORITHMS
from fltbench.cli import main
from fltbench.partition import PARTITION_KINDS


def _doc(partition=None, **data):
    """A valid one-round document with the given partition and data values."""
    doc = {
        "data": {"source": "synthetic", "num_classes": 3, "per_class": 20,
                 "test_per_class": 2, "dim": 2, "cluster_spread": 1.0},
        "partition": {"kind": "iid", "num_clients": 2, "min_shard_size": 1},
        "model": {"arch": "linear_softmax"},
        "train": {"learning_rate": 0.1, "batch_size": 8},
        "algo": {"algorithm": "fedavg", "rounds": 1},
        "run": {"eval_every": 1},
    }
    doc["data"].update(data)
    doc["partition"].update(partition or {})
    return doc


ROTATED = {"kind": "rotated_lt", "local_if": 1.0}
# Partition conflicts that a synthetic config shows before any data is built.
UNBALANCED_ROTATED = _doc(ROTATED, lt_target_if=2.0)
BUDGET_BELOW_MIN_SHARD = _doc({**ROTATED, "num_clients": 4, "min_shard_size": 16})
BUDGET_BELOW_PROFILE = _doc({**ROTATED, "local_if": 100.0})
# Two clients use 2 of the 10 head rotations, so classes 0 to 3 are
# oversubscribed; scaled down to their supply, client 0 realizes IF 7.58.
PROFILE_DISTORTED_BY_SCALING = _doc(
    {**ROTATED, "local_if": 10.0}, num_classes=10, per_class=100
)
# min_shard_size 0 let a Dirichlet draw leave client 2 without a sample.
EMPTY_CLIENTS_ALLOWED = _doc(
    {"kind": "dirichlet", "num_clients": 20, "alpha": 0.05, "min_shard_size": 0}
)


def _main(command, text, *flags):
    """Exit code and stderr of `fltbench <command>` on the document text."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(Path(tmp) / "out"),
                         *flags])
    return code, err.getvalue()


def _train(doc, *flags):
    return _main("train", json.dumps(doc), *flags)


# The dry run only parses, and a synthetic config's only fault that parsing
# cannot see is a Dirichlet partition that no draw within the retry budget fits.
DIRICHLET_BUDGET = "config error: no Dirichlet draw satisfied min_shard_size="


# Values past or on a bound. A drawn document sets at most one of them, so
# most documents get past config parsing and into training.
EDGES = [
    ("data", "num_classes", 1), ("data", "per_class", 0), ("data", "test_per_class", 0),
    ("data", "dim", 0), ("data", "cluster_spread", -1.0), ("data", "cluster_spread", 0.0),
    ("data", "cluster_spread", 1e308), ("data", "lt_target_if", 0.5),
    ("data", "lt_target_if", 100.0), ("partition", "num_clients", 0),
    ("partition", "num_clients", 40), ("partition", "min_shard_size", -1),
    ("partition", "min_shard_size", 25), ("model", "hidden_units", 0),
    ("train", "learning_rate", -1.0), ("train", "learning_rate", 1e12),
    ("train", "batch_size", 0), ("train", "local_epochs", 0),
    ("train", "weight_decay", -1.0), ("train", "weight_decay", 1e12),
    ("algo", "participation_fraction", 0.0), ("algo", "ff_per_class", 0),
    ("algo", "ff_lr", 1e12), ("algo", "retrain_lr", 1e12), ("algo", "mu", -1.0),
    ("run", "eval_every", 0), ("run", "client_holdout_fraction", 1.0),
]


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(PARTITION_KINDS))
    arch = draw(st.sampled_from(["linear_softmax", "mlp1h"]))
    doc = {
        "data": {
            "source": "synthetic",
            "num_classes": draw(st.integers(2, 4)),
            "per_class": draw(st.integers(1, 30)),
            "test_per_class": draw(st.integers(1, 3)),
            "dim": draw(st.integers(1, 3)),
            "cluster_spread": draw(st.sampled_from([0.5, 1.0, 4.0])),
            "lt_target_if": draw(st.sampled_from([None, 1.0, 2.0, 3.0])),
        },
        "partition": {
            "kind": kind,
            "num_clients": draw(st.integers(1, 4)),
            "alpha": draw(st.sampled_from([0.1, 10.0])) if kind == "dirichlet" else None,
            "local_if": draw(st.sampled_from([1.0, 10.0])) if kind == "rotated_lt" else None,
            "min_shard_size": draw(st.integers(0, 5)),
        },
        "model": {"arch": arch, "hidden_units": draw(st.integers(1, 4)) if arch == "mlp1h" else None},
        "train": {
            "learning_rate": draw(st.sampled_from([0.0, 0.1, 1.0])),
            "batch_size": draw(st.integers(1, 8)),
            "local_epochs": draw(st.integers(1, 2)),
            "weight_decay": draw(st.sampled_from([0.0, 1e-4])),
        },
        "algo": {
            "algorithm": draw(st.sampled_from(ALGORITHMS)),
            "rounds": draw(st.integers(0, 1)),
            "participation_fraction": draw(st.sampled_from([0.5, 1.0])),
            "ff_per_class": draw(st.integers(1, 2)),
            "ff_steps": draw(st.integers(0, 2)),
            "retrain_steps": draw(st.integers(0, 2)),
        },
        "run": {
            "eval_every": draw(st.integers(1, 2)),
            "client_holdout_fraction": draw(st.sampled_from([0.0, 0.3, 0.6])),
            "master_seed": draw(st.integers(0, 3)),
        },
    }
    edge = draw(st.none() | st.sampled_from(EDGES))
    if edge is not None:
        section, key, value = edge
        doc[section][key] = value
    return doc


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
# Each of these used to end in a traceback instead of an exit code.
@example(_doc(test_per_class=0))
@example(_doc(dim=0))
@example(_doc(num_classes=1))
@example(_doc(cluster_spread=-1.0))
@example(_doc(cluster_spread=1e308))  # features overflow to infinity
# Exited 1, as a runtime failure: integer rounding realizes IF 75, not 100.
@example(_doc(per_class=150, lt_target_if=100.0))
# Exited 1, as runtime failures of the partition step.
@example(UNBALANCED_ROTATED)
@example(BUDGET_BELOW_MIN_SHARD)
# Passed --dry-run, then exited 1 when the partition was built.
@example(BUDGET_BELOW_PROFILE)
@example(PROFILE_DISTORTED_BY_SCALING)
@example(EMPTY_CLIENTS_ALLOWED)
def test_train_always_exits_with_a_code(doc):
    dry, _ = _train(doc, "--dry-run")
    code, err = _train(doc)
    assert dry in (0, 2) and code in (0, 1, 2)
    if dry == 2:
        assert code == 2
    elif code == 2:
        assert err.startswith(DIRICHLET_BUDGET), err


@pytest.mark.parametrize("doc,message", [
    (UNBALANCED_ROTATED, "partition: rotated_lt needs a balanced source dataset (IF <= 1.05)"),
    (BUDGET_BELOW_MIN_SHARD, "partition: per-client budget 15 is below min_shard_size 16"),
    (BUDGET_BELOW_PROFILE, "partition: per-client budget 30 cannot hold a profile with IF 100.0"),
    (PROFILE_DISTORTED_BY_SCALING, "partition: client 0 realizes IF 7.58, outside 10% of target"),
    (EMPTY_CLIENTS_ALLOWED, "partition: min_shard_size must be >= 1"),
])
def test_partition_conflicts_exit_2_at_parse_time(doc, message):
    code, err = _train(doc, "--dry-run")
    assert code == 2
    assert message in err


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_partition_always_exits_with_a_code(doc):
    code, _ = _main("partition", json.dumps(doc))
    assert code in (0, 1, 2)


LABELS = ["iid", "dir", "a/b", "a-b", "l" * 300]
# Values of one grid key past or on a bound, as EDGES are for a document.
GRID_EDGES = [
    ("name", ""), ("name", ".."), ("name", "a/b"), ("name", "t" * 300), ("name", "t\0"),
    ("name", 1), ("base", []), ("algorithms", []), ("algorithms", "fedavg"),
    ("algorithms", ["fedavg", "fedavg"]), ("algorithms", ["sgd"]), ("settings", []),
    ("settings", {}), ("settings", [None]), ("settings", [{"label": "a", "extra": 1}]),
    ("settings", [{"label": ""}]), ("settings", [{"label": "a,b"}]),
    ("settings", [{"label": 'a"b'}]), ("settings", [{"label": "a\nb"}]),
    ("settings", [{"label": "a"}, {"label": "a"}]), ("settings", [{"label": 1}]),
    ("seeds", []), ("seeds", [True]), ("seeds", [-1]), ("seeds", [2**64]), ("seeds", ["0"]),
    ("extra", 1),
]


@st.composite
def overrides(draw):
    choice = draw(st.sampled_from(["none", "empty", "list", "dirichlet", "clear", "edge"]))
    if choice == "edge":
        section, key, value = draw(st.sampled_from(EDGES))
        return {section: {key: value}}
    return {
        "none": None, "empty": {}, "list": [],
        "dirichlet": {"partition": {"kind": "dirichlet", "alpha": 0.5}},
        "clear": {"data": {"lt_target_if": None}},
    }[choice]


@st.composite
def grids(draw):
    settings = draw(st.lists(
        st.fixed_dictionaries({"label": st.sampled_from(LABELS)},
                              optional={"overrides": overrides()}),
        min_size=1, max_size=3, unique_by=lambda setting: setting["label"],
    ))
    grid = {
        "name": "t",
        "base": draw(documents()),
        "algorithms": draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=2,
                                    unique=True)),
        "settings": settings,
    }
    seeds = draw(st.none() | st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if seeds is not None:
        grid["seeds"] = seeds
    edge = draw(st.none() | st.sampled_from(GRID_EDGES))
    if edge is not None:
        grid[edge[0]] = edge[1]
    return grid


# Ended in a RecursionError traceback from copying the grid's base. Given as
# text, since hypothesis cannot print a list nested 500 levels deep.
NESTED_GRID = json.dumps(
    {"name": "t", "base": _doc(deep="DEEP"), "algorithms": ["fedavg"],
     "settings": [{"label": "iid"}]}
).replace('"DEEP"', "[" * 500 + "]" * 500)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grids().map(json.dumps))
@example(NESTED_GRID)
def test_sweep_dry_run_always_exits_with_a_code(text):
    code, _ = _main("sweep", text, "--dry-run")
    assert code in (0, 1, 2)
