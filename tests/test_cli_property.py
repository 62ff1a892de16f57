"""Property: `fltbench train` on any small config document exits 0, 1 or 2.

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


def _train(doc, *flags):
    """Exit code and stderr of `fltbench train` on the document."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--config", str(config), "--out", str(Path(tmp) / "out"),
                         *flags])
    return code, err.getvalue()


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
def test_train_always_exits_with_a_code(doc):
    code, _ = _train(doc)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("doc,message", [
    (UNBALANCED_ROTATED, "partition: rotated_lt needs a balanced source dataset (IF <= 1.05)"),
    (BUDGET_BELOW_MIN_SHARD, "partition: per-client budget 15 is below min_shard_size 16"),
    (BUDGET_BELOW_PROFILE, "partition: per-client budget 30 cannot hold a profile with IF 100.0"),
])
def test_partition_conflicts_exit_2_at_parse_time(doc, message):
    code, err = _train(doc, "--dry-run")
    assert code == 2
    assert message in err
