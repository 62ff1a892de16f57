"""The config-file schema, field by field, and the shipped example configs.

Every key of every section is checked against the same parsing rules:
unknown keys are fatal, a missing required key is named, null means the
default, a boolean or a value of the wrong type is rejected, an int is
accepted for a float, and the parsed document round-trips through
experiment_config_to_dict.
"""
import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import fltbench
from fltbench.cli import main
from fltbench.config import experiment_config_to_dict, parse_experiment_config
from fltbench.errors import ConfigError

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "docs" / "examples").glob("*.json"))

REQUIRED = object()

# A valid document in which every optional key may be set to null.
BASE = {
    "data": {"source": "synthetic", "num_classes": 4, "per_class": 40, "test_per_class": 5,
             "dim": 3, "cluster_spread": 1.0},
    "partition": {"kind": "iid", "num_clients": 2, "min_shard_size": 1},
    "model": {"arch": "linear_softmax"},
    "train": {"learning_rate": 0.1, "batch_size": 8},
    "algo": {"algorithm": "fedavg", "rounds": 1},
    "run": {"eval_every": 1},
}

MLP1H = {"model": {"arch": "mlp1h", "hidden_units": 5}}
DIRICHLET = {"partition": {"kind": "dirichlet", "alpha": 0.5}}
ROTATED = {"partition": {"kind": "rotated_lt", "num_clients": 4, "local_if": 2.0}}

# (section, key, type, default, a valid value, the sections that value needs).
FIELDS = [
    ("data", "source", str, REQUIRED, "synthetic", {}),
    ("data", "num_classes", int, 10, 3, {}),
    ("data", "per_class", int, 500, 30, {}),
    ("data", "test_per_class", int, 100, 2, {}),
    ("data", "dim", int, 32, 2, {}),
    ("data", "cluster_spread", float, 1.0, 2, {}),
    ("data", "data_dir", str, None, "some/dir", {}),
    ("data", "lt_target_if", float, None, 2, {}),
    ("partition", "kind", str, REQUIRED, "dirichlet", DIRICHLET),
    ("partition", "num_clients", int, REQUIRED, 3, {}),
    ("partition", "alpha", float, None, 1, DIRICHLET),
    ("partition", "local_if", float, None, 2, ROTATED),
    ("partition", "min_shard_size", int, 10, 2, {}),
    ("model", "arch", str, REQUIRED, "mlp1h", MLP1H),
    ("model", "hidden_units", int, None, 7, MLP1H),
    ("train", "learning_rate", float, REQUIRED, 1, {}),
    ("train", "batch_size", int, REQUIRED, 4, {}),
    ("train", "local_epochs", int, 1, 2, {}),
    ("train", "weight_decay", float, 0.0, 1, {}),
    ("algo", "algorithm", str, REQUIRED, "creff", {}),
    ("algo", "rounds", int, REQUIRED, 2, {}),
    ("algo", "participation_fraction", float, 1.0, 1, {}),
    ("algo", "mu", float, 0.01, 1, {}),
    ("algo", "ff_per_class", int, 100, 3, {}),
    ("algo", "ff_steps", int, 100, 3, {}),
    ("algo", "retrain_steps", int, 300, 3, {}),
    ("algo", "ff_lr", float, 0.01, 1, {}),
    ("algo", "retrain_lr", float, 0.1, 1, {}),
    ("run", "eval_every", int, 10, 2, {}),
    ("run", "client_holdout_fraction", float, 0.0, 0, {}),
    ("run", "master_seed", int, 0, 5, {}),
]
IDS = [f"{section}.{key}" for section, key, *_ in FIELDS]


def _doc(context=None, **sections):
    """BASE with the context's and then the given sections' keys set."""
    doc = json.loads(json.dumps(BASE))
    for extra in (context or {}, sections):
        for section, values in extra.items():
            doc[section].update(values)
    return doc


def _parsed(config, section, key):
    return getattr(config, key) if section == "run" else getattr(getattr(config, section), key)


@pytest.mark.parametrize("section,key,kind,default,value,context", FIELDS, ids=IDS)
class TestEveryField:
    def test_unknown_key_is_rejected_by_name(self, section, key, kind, default, value, context):
        with pytest.raises(ConfigError, match=f"{key}_typo"):
            parse_experiment_config(_doc(**{section: {f"{key}_typo": value}}))

    def test_missing_key_is_required_or_defaults(self, section, key, kind, default, value,
                                                 context):
        doc = _doc()
        doc[section].pop(key, None)
        if default is REQUIRED:
            with pytest.raises(ConfigError, match=f"^{section}\\.{key} is required$"):
                parse_experiment_config(doc)
        else:
            assert _parsed(parse_experiment_config(doc), section, key) == default

    def test_null_means_the_default(self, section, key, kind, default, value, context):
        doc = _doc(**{section: {key: None}})
        if default is REQUIRED:
            with pytest.raises(ConfigError, match=f"^{section}\\.{key} is required$"):
                parse_experiment_config(doc)
        else:
            assert _parsed(parse_experiment_config(doc), section, key) == default

    def test_boolean_is_rejected(self, section, key, kind, default, value, context):
        with pytest.raises(ConfigError, match=f"{section}\\.{key} "):
            parse_experiment_config(_doc(context, **{section: {key: True}}))

    def test_wrong_type_is_rejected(self, section, key, kind, default, value, context):
        wrong = 5 if kind is str else ("2.5" if kind is float else 2.5)
        with pytest.raises(ConfigError, match=f"^{section}\\.{key} has the wrong type$"):
            parse_experiment_config(_doc(context, **{section: {key: wrong}}))

    def test_value_round_trips(self, section, key, kind, default, value, context):
        config = parse_experiment_config(_doc(context, **{section: {key: value}}))
        doc = experiment_config_to_dict(config)
        written = doc[section][key]
        assert written == value
        assert type(written) is kind  # an int given for a float is written as a float
        assert parse_experiment_config(doc) == config


def test_boolean_for_a_number_names_the_reason():
    with pytest.raises(ConfigError, match="^train.batch_size must be a number, not a boolean$"):
        parse_experiment_config(_doc(train={"batch_size": False}))


@pytest.mark.parametrize("section,key,value,context", [
    ("train", "learning_rate", math.nan, {}),
    ("train", "learning_rate", 10**400, {}),  # beyond the float range
    ("train", "weight_decay", math.nan, {}),
    ("algo", "mu", math.nan, {}),
    ("algo", "ff_lr", math.nan, {}),
    ("partition", "alpha", math.nan, DIRICHLET),
    ("partition", "alpha", math.inf, DIRICHLET),
])
def test_non_finite_float_exits_2_at_parse_time(section, key, value, context, tmp_path):
    # json writes NaN and Infinity, and Python's json reads them back.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_doc(context, **{section: {key: value}})), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"])
    assert code == 2
    assert err.getvalue() == f"config error: {section}.{key} must be finite\n"


def test_sections_hold_exactly_the_schema_keys():
    doc = experiment_config_to_dict(parse_experiment_config(_doc()))
    expected = {}
    for section, key, *_ in FIELDS:
        expected.setdefault(section, []).append(key)
    assert {section: list(keys) for section, keys in doc.items()} == expected


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_example_config_passes_dry_run(path, monkeypatch, tmp_path):
    monkeypatch.delenv("FLTB_DATA_DIR", raising=False)
    command = "sweep" if "algorithms" in json.loads(path.read_text(encoding="utf-8")) else "train"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--dry-run"])
    assert code == 0, err.getvalue()


def test_example_configs_are_found():
    # The examples that README points to: two train configs and two grids.
    assert {"synthetic_quick.json", "cifar10_dirichlet.json", "table2_grid.json",
            "table3_grid.json"} <= {p.name for p in EXAMPLES}


def test_config_module_does_not_import_the_orchestrator():
    """The config objects and their parser sit below the round loop: a fresh
    interpreter that imports fltbench.config never loads the orchestrator."""
    src = str(Path(fltbench.__file__).resolve().parent.parent)
    code = "import json, sys, fltbench.config; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=src, timeout=60, check=True)
    loaded = json.loads(done.stdout)
    assert "fltbench.config" in loaded
    assert "fltbench.orchestrator" not in loaded and "fltbench.cli" not in loaded
