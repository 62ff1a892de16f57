"""CLI contract: exit codes, emitted files, determinism, config round-trip."""
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import fltbench.cli
from fltbench.cli import main
from fltbench.config import (
    SYNTHETIC_DEFAULTS,
    experiment_config_to_dict,
    parse_experiment_config,
    parse_grid_config,
)
from fltbench.datasets import head_tail_groups
from fltbench.errors import ConfigError

QUICK_CONFIG = {
    "data": {
        "source": "synthetic",
        "num_classes": 10,
        "per_class": 60,
        "test_per_class": 20,
        "dim": 8,
        "cluster_spread": 1.0,
    },
    "partition": {"kind": "iid", "num_clients": 5, "min_shard_size": 10},
    "model": {"arch": "linear_softmax"},
    "train": {"learning_rate": 0.2, "batch_size": 32, "local_epochs": 1},
    "algo": {"algorithm": "fedavg", "rounds": 4},
    "run": {"eval_every": 2, "master_seed": 0},
}

ROTATED_CONFIG = {
    "data": {
        "source": "synthetic",
        "num_classes": 10,
        "per_class": 5000,
        "test_per_class": 20,
        "dim": 4,
        "cluster_spread": 1.0,
    },
    "partition": {"kind": "rotated_lt", "num_clients": 40, "local_if": 100.0},
    "model": {"arch": "linear_softmax"},
    "train": {"learning_rate": 0.2, "batch_size": 64, "local_epochs": 1},
    "algo": {"algorithm": "fedavg", "rounds": 1},
    "run": {"master_seed": 3},
}


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cifar_data(**keys):
    """A data override that makes a synthetic base a CIFAR-10 run: a null
    clears the key, and a cifar10 section sets no synthetic-only key."""
    return {"source": "cifar10", **dict.fromkeys(SYNTHETIC_DEFAULTS), **keys}


def _tiny_cifar_dir(tmp_path):
    """CIFAR-10 binary batches with 10 train samples per class."""
    root = tmp_path / "cifar"
    root.mkdir()
    rng = np.random.default_rng(0)
    for name, per_class in [(f"data_batch_{i}.bin", 2) for i in range(1, 6)] + [
        ("test_batch.bin", 1)
    ]:
        records = rng.integers(0, 256, size=(10 * per_class, 3073), dtype=np.uint8)
        records[:, 0] = np.repeat(np.arange(10), per_class)
        (root / name).write_bytes(records.tobytes())
    return str(root)


def _grid_doc(rounds=2, seeds=None):
    doc = {
        "name": "smoke_table",
        "base": json.loads(json.dumps(QUICK_CONFIG)),
        "algorithms": ["fedavg", "fedprox"],
        "settings": [
            {"label": "iid", "overrides": {}},
            {"label": "dir05", "overrides": {"partition": {"kind": "dirichlet", "alpha": 0.5}}},
        ],
    }
    doc["base"]["algo"]["rounds"] = rounds
    if seeds is not None:
        doc["seeds"] = seeds
    return doc


class TestConfigSchema:
    def test_round_trip_is_identity(self):
        config = parse_experiment_config(QUICK_CONFIG)
        doc = experiment_config_to_dict(config)
        assert parse_experiment_config(doc) == config

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["train"]["learning_rte"] = 0.1
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_experiment_config(doc)

    def test_unknown_section_rejected(self):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["extra"] = {}
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)

    def test_missing_section_rejected(self):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        del doc["algo"]
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)

    def test_alpha_required_for_dirichlet(self):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["partition"] = {"kind": "dirichlet", "num_clients": 5}
        with pytest.raises(ConfigError):
            parse_experiment_config(doc)

    def test_env_data_dir_fills_default(self):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10"}
        config = parse_experiment_config(doc, env_data_dir="/data/cifar")
        assert config.data.data_dir == "/data/cifar"

    def test_grid_expansion(self):
        name, cells, rows, cols = parse_grid_config(_grid_doc(seeds=[0, 1]))
        assert name == "smoke_table"
        assert rows == ["fedavg", "fedprox"]
        assert cols == ["iid", "dir05"]
        assert len(cells) == 2 * 2 * 2
        seeds = {c.config.master_seed for c in cells}
        assert seeds == {0, 1}

    def test_grid_without_seeds_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--config", _write_config(tmp_path, _grid_doc(seeds=[])),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "grid.seeds must be a non-empty list" in capsys.readouterr().err

    def test_algorithm_listed_twice_rejected(self, tmp_path, capsys):
        doc = _grid_doc()
        doc["algorithms"] = ["fedavg", "fedprox", "fedavg"]
        code = main(["sweep", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "duplicate algorithm 'fedavg'" in capsys.readouterr().err

    def test_grid_override_touches_only_named_keys(self):
        _, cells, _, _ = parse_grid_config(_grid_doc())
        dir_cells = [c for c in cells if c.col == "dir05"]
        assert all(c.config.partition.alpha == 0.5 for c in dir_cells)
        assert all(c.config.data.per_class == 60 for c in dir_cells)

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "", ".", ".."])
    def test_grid_name_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, name):
        doc = _grid_doc(rounds=1)
        doc["name"] = name
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert f"grid.name {name!r} must be a file name" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "escaped.csv").exists()

    def test_labels_with_one_slug_exit_2(self, tmp_path, capsys):
        # Both would write their reports to cells/fedavg__a-b__seed0.report.json.
        doc = _grid_doc(rounds=1)
        doc["settings"] = [{"label": "a/b"}, {"label": "a-b"}]
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert ("setting labels 'a/b' and 'a-b' give their cells the same report file name"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("label", ["a,b", 'say "b"', "a\nb"])
    def test_label_that_breaks_the_table_csv_exits_2(self, tmp_path, capsys, label):
        doc = _grid_doc(rounds=1)
        doc["settings"][1]["label"] = label
        code = main(["sweep", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"setting label {label!r} is a column" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exits_2(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, _grid_doc(rounds=1)),
                     "--out", str(out), "--workers", workers])
        assert code == 2
        assert f"must be at least 1, not {workers}" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["partition"] = {"kind": "dirichlet", "num_clients": 5, "alpha": -1.0}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_bad_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize("name, text", [
        ("utf16.json", b"\xff\xfe{}"),
        ("deep.json", b"[" * 100_000),
    ])
    def test_undecodable_config_file_exits_2_in_one_line(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_bytes(text)
        code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path} ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("levels", [500, 900])
    def test_deeply_nested_grid_exits_2_in_one_line(self, tmp_path, capsys, levels):
        # json.loads parses these lists; copying the grid's base used to
        # recurse past Python's limit.
        doc = _grid_doc()
        doc["base"]["data"]["deep"] = "DEEP"
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc).replace('"DEEP"', "[" * levels + "]" * levels))
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path} nests more than 32 levels deep\n"

    # numpy raises ValueError, not MemoryError, for arrays of 2**63 bytes or
    # more, so sizes that ask for one are config errors at parse time.
    @pytest.mark.parametrize("value", [10**29, 2**62])
    @pytest.mark.parametrize("section, key", [
        ("data", "per_class"), ("model", "hidden_units"), ("algo", "ff_per_class"),
    ])
    def test_size_beyond_numpy_exits_2_in_one_line(self, tmp_path, capsys, section, key, value):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["model"] = {"arch": "mlp1h", "hidden_units": 4}
        doc["algo"].update(algorithm="creff", rounds=1, ff_per_class=2)
        doc[section][key] = value
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "more than numpy can hold" in err

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
    def test_master_seed_up_to_64_bits_is_valid(self, tmp_path, seed):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["run"]["master_seed"] = seed
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 0

    # Seed derivation keeps 64 bits: 2**64 would rerun seed 0's bytes and -1
    # those of 2**64 - 1.
    @pytest.mark.parametrize("seed", [2**64, -1, -(2**63)])
    def test_master_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["run"]["master_seed"] = seed
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: master_seed {seed} is outside [0, 2**64)\n")

    def test_grid_seed_that_aliases_another_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--config", _write_config(tmp_path, _grid_doc(seeds=[0, 2**64])),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: master_seed 18446744073709551616 is outside [0, 2**64)\n")

    def test_missing_dataset_file_exits_2_with_path(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", "data_dir": str(tmp_path / "nowhere")}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nowhere" in capsys.readouterr().err

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        code = main(["train", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(blocker)])
        assert code == 2

    def test_diverging_run_exits_1_naming_the_round(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["model"] = {"arch": "mlp1h", "hidden_units": 16}
        doc["train"]["learning_rate"] = 1e12
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "round " in err and "non-finite" in err and "client " in err
        assert not (out / "report.json").exists()

    def test_infeasible_synthetic_long_tail_exits_2(self, tmp_path, capsys):
        # 50 samples per class cannot be shaped to a head/tail ratio of 100.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"].update(per_class=50, lt_target_if=100.0)
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert "lt_target_if" in capsys.readouterr().err

    def test_infeasible_cifar_long_tail_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", "data_dir": _tiny_cifar_dir(tmp_path),
                       "lt_target_if": 50.0}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "smallest class has 10 samples" in err and "Traceback" not in err

    def test_unrealizable_synthetic_long_tail_exits_2(self, tmp_path, capsys):
        # 150 per class: integer rounding realizes a head/tail ratio of 75.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"].update(per_class=150, lt_target_if=100.0)
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: data: lt_target_if 100 cannot be realized" in err
        assert "IF 75.000" in err

    def test_unrealizable_cifar_long_tail_exits_2(self, tmp_path, capsys):
        # 10 samples per class: integer rounding realizes a ratio of 10/3.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", "data_dir": _tiny_cifar_dir(tmp_path),
                       "lt_target_if": 3.0}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "lt_target_if 3 cannot be realized from 10 samples" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fault, message", [
        ("supply", "config error: 100 samples cannot give 20 clients at least 10 each"),
        ("short_file", "test_batch.bin: size 100 is not a positive multiple of 3073"),
        ("label_byte", "data_batch_1.bin: record 0 has label byte 200 >= 10"),
        ("directory", "test_batch.bin: cannot read: Is a directory"),
        ("missing", "test_batch.bin: cannot read: No such file or directory"),
    ])
    def test_cifar_input_fault_exits_2(self, tmp_path, capsys, fault, message):
        root = Path(_tiny_cifar_dir(tmp_path))
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", "data_dir": str(root)}
        if fault == "supply":  # 100 train samples
            doc["partition"] = {"kind": "iid", "num_clients": 20, "min_shard_size": 10}
        elif fault == "short_file":
            (root / "test_batch.bin").write_bytes(bytes(100))
        elif fault in ("directory", "missing"):
            (root / "test_batch.bin").unlink()
            if fault == "directory":
                (root / "test_batch.bin").mkdir()
        else:
            blob = bytearray((root / "data_batch_1.bin").read_bytes())
            blob[0] = 200
            (root / "data_batch_1.bin").write_bytes(bytes(blob))
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("test_per_class", 0), ("dim", 0), ("num_classes", 1), ("cluster_spread", -1.0),
        ("cluster_spread", 0.0), ("per_class", 0),
        # The class means alone overflow: 4 * 1e308 * ring.
        ("cluster_spread", 1e308),
    ])
    def test_bad_data_value_exits_2_when_parsed(self, tmp_path, capsys, key, value):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"][key] = value
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data: ") and key in err

    def test_cifar_class_count_other_than_10_exits_2_when_parsed(self, tmp_path, capsys):
        # A CIFAR-10 run always has 10 classes, whatever the config says.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", "num_classes": 3}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert capsys.readouterr().err == "config error: data: num_classes must be 10 for cifar10\n"

    @pytest.mark.parametrize("key, value", [
        ("per_class", 7), ("test_per_class", 7), ("dim", 3), ("cluster_spread", 2.0),
    ])
    def test_synthetic_key_in_a_cifar_section_exits_2_when_parsed(self, tmp_path, capsys,
                                                                  key, value):
        # A CIFAR-10 run never reads it, so setting it is a fault of the config.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "cifar10", key: value}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: data: {key} is read by synthetic data only, not by cifar10\n")

    def test_cifar_example_dry_run_echoes_null_for_the_synthetic_keys(self, tmp_path, capsys):
        example = Path(__file__).resolve().parent.parent / "docs/examples/cifar10_dirichlet.json"
        code = main(["train", "--config", str(example), "--out", str(tmp_path / "out"),
                     "--dry-run"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert {key: data[key] for key in SYNTHETIC_DEFAULTS} == dict.fromkeys(SYNTHETIC_DEFAULTS)

    def test_synthetic_dry_run_echoes_the_defaults_it_fills(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"] = {"source": "synthetic"}
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert {key: data[key] for key in SYNTHETIC_DEFAULTS} == {
            "per_class": 500, "test_per_class": 100, "dim": 32, "cluster_spread": 1.0,
        }

    @pytest.mark.parametrize("fraction", [1.0, -0.1])
    def test_client_holdout_fraction_outside_0_1_exits_2_when_parsed(self, tmp_path, capsys,
                                                                     fraction):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["run"]["client_holdout_fraction"] = fraction
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: client_holdout_fraction must lie in [0, 1)\n")

    def test_overflowing_cluster_spread_exits_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"]["cluster_spread"] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["train", "--config", _write_config(tmp_path, doc),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "cluster_spread 1e+308" in capsys.readouterr().err

    def test_allocation_beyond_the_address_space_exits_1(self, tmp_path, capsys):
        # 10**13 rows of 8 float64s are 582 TiB, more than the 128 TiB of a
        # user address space, so the allocation fails at once.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"]["per_class"] = 10**12
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and "TiB" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("module, name, overlapping, message", [
        ("orchestrator", "stratified_split_indices",
         lambda labels, num_classes, fraction, rng: (np.arange(len(labels)), np.array([0])),
         "client 0 holdout indices leaked into training"),
        ("partition", "_draw_iid",
         lambda n, num_clients, seed: [np.arange(n)] * num_clients, "overlapping shards"),
    ])
    def test_internal_check_exits_1_in_one_line(self, tmp_path, monkeypatch, capsys,
                                                module, name, overlapping, message):
        # A split or partition that overlaps is a fault of the program, not
        # of the config, and ends the run without a traceback.
        monkeypatch.setattr(getattr(fltbench, module), name, overlapping)
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["run"]["client_holdout_fraction"] = 0.25
        code = main(["train", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: internal error: {message}\n"

    def test_dry_run_validates_and_exits_0(self, tmp_path, capsys):
        code = main(["train", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(tmp_path / "out"), "--dry-run"])
        assert code == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["algo"]["algorithm"] == "fedavg"
        assert not (tmp_path / "out").exists()


class TestPartitionCommand:
    def test_rotated_report_global_if(self, tmp_path):
        out = tmp_path / "out"
        code = main(["partition", "--config", _write_config(tmp_path, ROTATED_CONFIG),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "partition.csv").read_text().strip().split("\n")
        global_row = lines[-1].split(",")
        assert global_row[0] == "GLOBAL"
        assert float(global_row[-1]) <= 1.1
        manifest = json.loads((out / "shards.json").read_text())
        assert len(manifest["clients"]) == 40

    def test_same_config_twice_identical_files(self, tmp_path):
        config = _write_config(tmp_path, QUICK_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["partition", "--config", config, "--out", str(out_a)]) == 0
        assert main(["partition", "--config", config, "--out", str(out_b)]) == 0
        for name in ("partition.csv", "partition.json", "shards.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestTrainCommand:
    def test_smoke_run_writes_report_and_checkpoint(self, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # Regression value frozen from the first green run of this config.
        assert report["final_accuracy"] == pytest.approx(0.805, abs=1e-9)
        assert report["best_accuracy"] >= report["final_accuracy"] - 1e-12
        metrics = (out / "metrics.csv").read_text()
        assert metrics.startswith("round,split,metric,class,value\n")
        from fltbench.nn import load_checkpoint

        cfg, params, ff = load_checkpoint(out / "model.ckpt")
        assert cfg.input_dim == 8 and cfg.num_classes == 10
        assert ff is None

    def test_rerun_identical_outputs(self, tmp_path):
        config = _write_config(tmp_path, QUICK_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", config, "--out", str(out_a)]) == 0
        assert main(["train", "--config", config, "--out", str(out_b)]) == 0
        for name in ("metrics.csv", "model.ckpt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report_a = json.loads((out_a / "report.json").read_text())
        report_b = json.loads((out_b / "report.json").read_text())
        report_a.pop("wall_clock_sec")
        report_b.pop("wall_clock_sec")
        assert report_a == report_b

    def test_group_accuracy_is_head_medium_tail_and_recomposes_accuracy(self, tmp_path):
        # Pins the group order where the golden test skips (another numpy,
        # BLAS or machine). At IF 100 the class counts run 100 down to 1, so
        # the head (> 20), medium and tail (< 4) groups are all non-empty.
        doc = json.loads(json.dumps(QUICK_CONFIG))
        doc["data"].update(per_class=100, lt_target_if=100.0)
        out = tmp_path / "out"
        assert main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        groups = head_tail_groups(np.array(report["partition"]["global_counts"]))
        assert list(groups) == ["head", "medium", "tail"]
        rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
        for point in report["eval_points"]:
            metrics = point["global"]
            assert list(metrics["group_accuracy"]) == ["head", "medium", "tail"]
            assert [r[3] for r in rows if r[:3] == [str(point["round"]), "global_test",
                                                    "group_accuracy"]] == list(groups)
            counts = np.array(metrics["per_class_counts"])
            recomposed = sum(metrics["group_accuracy"][g] * counts[c].sum()
                             for g, c in groups.items())
            assert recomposed / counts.sum() == pytest.approx(metrics["accuracy"])

    def test_train_never_loads_the_process_pool_module(self, tmp_path):
        # Only a pooled sweep needs concurrent.futures; a train process in a
        # fresh interpreter must not pay for loading it.
        code = (
            "import json, sys\n"
            "from fltbench.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, 'concurrent.futures' in sys.modules]))\n"
        )
        src = str(Path(fltbench.cli.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code, "train", "--config",
             _write_config(tmp_path, QUICK_CONFIG), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, cwd=src, timeout=60, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == [0, False]


class TestWriteFaults:
    """A write that fails after the run, such as into an output directory
    removed meanwhile, exits 1 with one line that names the file."""

    def _remove_out_after(self, monkeypatch, name, out):
        original = getattr(fltbench.cli, name)

        def run_then_remove(*args, **kwargs):
            result = original(*args, **kwargs)
            shutil.rmtree(out)
            return result

        monkeypatch.setattr(fltbench.cli, name, run_then_remove)

    def _assert_fails_naming(self, capsys, code, path):
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_train_output_directory_removed(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        self._remove_out_after(monkeypatch, "run_experiment", out)
        code = main(["train", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(out)])
        self._assert_fails_naming(capsys, code, out / "report.json")

    def test_checkpoint_write_fails(self, tmp_path, monkeypatch, capsys):
        # An output the file system refuses is found before the run.
        calls = []
        monkeypatch.setattr(fltbench.cli, "run_experiment", calls.append)
        out = tmp_path / "out"
        (out / "model.ckpt").mkdir(parents=True)
        code = main(["train", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(out)])
        assert code == 2
        assert calls == []
        path = out / "model.ckpt"
        assert capsys.readouterr().err == (
            f"config error: cannot create train output {str(path)!r}: "
            f"[Errno 21] Is a directory: {str(path)!r}\n"
        )
        assert sorted(p.name for p in out.iterdir()) == ["model.ckpt"]

    def test_partition_output_refused_before_the_partition(self, tmp_path, monkeypatch,
                                                           capsys):
        calls = []
        monkeypatch.setattr(fltbench.cli, "prepare_partition", calls.append)
        out = tmp_path / "out"
        (out / "shards.json").mkdir(parents=True)
        code = main(["partition", "--config", _write_config(tmp_path, QUICK_CONFIG),
                     "--out", str(out)])
        assert code == 2
        assert calls == []
        path = out / "shards.json"
        assert capsys.readouterr().err.startswith(
            f"config error: cannot create partition output {str(path)!r}: "
        )
        assert sorted(p.name for p in out.iterdir()) == ["shards.json"]

    def test_sweep_output_directory_removed(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        self._remove_out_after(monkeypatch, "run_sweep", out)
        doc = _grid_doc(rounds=1)
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        self._assert_fails_naming(capsys, code, out / "smoke_table.csv")


class TestSweepCommand:
    def test_two_by_two_grid(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, _grid_doc()),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "smoke_table.csv").read_text().strip().split("\n")
        assert lines[0] == "algorithm,iid,dir05"
        assert len(lines) == 3
        cells = list((out / "cells").glob("*.report.json"))
        assert len(cells) == 4
        assert (out / "errors.txt").read_text() == ""

    def test_cell_holds_personalized_accuracy_where_the_report_has_it(self, tmp_path):
        doc = _grid_doc(rounds=2)
        doc["algorithms"] = ["fedavg", "fedper"]
        doc["base"]["run"]["client_holdout_fraction"] = 0.2
        out = tmp_path / "out"
        assert main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)]) == 0
        table = [line.split(",") for line in (out / "smoke_table.csv").read_text().split()]
        assert table[0] == ["algorithm", "iid", "dir05"]
        for row in table[1:]:
            for col, value in zip(table[0][1:], row[1:]):
                report = json.loads(
                    (out / "cells" / f"{row[0]}__{col}__seed0.report.json").read_text())
                best, personalized = report["best_accuracy"], report["best_personalized_mean"]
                if row[0] == "fedavg":
                    assert personalized is None and value == f"{best:.4f}"
                else:  # FedPer never trains the global head it would score
                    assert value == f"{personalized:.4f}" != f"{best:.4f}"

    def test_interrupted_sweep_keeps_the_reports_of_finished_cells(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path, _grid_doc(rounds=1))
        whole = tmp_path / "whole"
        assert main(["sweep", "--config", config, "--out", str(whole), "--workers", "1"]) == 0
        original = fltbench.orchestrator.run_experiment
        calls = []

        def interrupted_in_last_cell(cell_config):
            calls.append(cell_config)
            if len(calls) == 4:
                raise KeyboardInterrupt
            return original(cell_config)

        monkeypatch.setattr("fltbench.orchestrator.run_experiment", interrupted_in_last_cell)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", config, "--out", str(out), "--workers", "1"])

        def reports(root):
            return {p.name: re.sub(rb'"wall_clock_sec": [^,\n]*', b"", p.read_bytes())
                    for p in (root / "cells").glob("*.report.json")}

        finished = reports(out)
        # Cells run setting by setting, so the last one is (fedprox, dir05).
        assert sorted(finished) == sorted(set(reports(whole)) - {
            "fedprox__dir05__seed0.report.json"})
        assert finished == {name: reports(whole)[name] for name in finished}
        assert sorted(p.name for p in out.iterdir()) == ["cells"]

        # At --workers 2 the third of 16 cells interrupts the sweep from its
        # worker once the first two reports are on disk. Every other cell
        # first sleeps 0.4 s, so when the sweep takes the interrupt the pool
        # has handed out at most 8 cells: the three that ended, two more on
        # the workers and three in the pool's call queue. No other may start.
        doc = _grid_doc(rounds=1, seeds=[0, 1, 2, 3])
        config = _write_config(tmp_path, doc, "seeds.json")
        whole = tmp_path / "whole_seeds"
        assert main(["sweep", "--config", config, "--out", str(whole), "--workers", "1"]) == 0
        _, cells, _, _ = parse_grid_config(
            doc, env_data_dir=os.environ.get(fltbench.cli.DATA_DIR_ENV))
        out = tmp_path / "out_workers2"
        first_two = [out / fltbench.cli._cell_report_name(cell) for cell in cells[:2]]
        started = tmp_path / "started"

        def interrupted_by_the_third_cell(cell_config):
            i = [cell.config for cell in cells].index(cell_config)
            with open(started, "a") as fh:
                fh.write(f"{i}\n")
            if i == 2:
                deadline = time.monotonic() + 60
                while not all(p.exists() for p in first_two) and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise KeyboardInterrupt
            time.sleep(0.4)
            return original(cell_config)

        monkeypatch.setattr("fltbench.orchestrator.run_experiment", interrupted_by_the_third_cell)
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", config, "--out", str(out), "--workers", "2"])
        finished = reports(out)
        assert sorted(finished) == sorted(p.name for p in first_two)
        assert finished == {name: reports(whole)[name] for name in finished}
        assert sorted(p.name for p in out.iterdir()) == ["cells"]
        starts = sorted(int(line) for line in started.read_text().split())
        assert starts == list(range(len(starts)))
        assert len(starts) <= 8 < len(cells)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_errors_file_names_the_one_failing_cell(self, tmp_path, capsys, workers):
        doc = _grid_doc(rounds=1)
        doc["algorithms"] = ["fedavg"]
        doc["settings"][1] = {"label": "broken", "overrides": {
            "data": _cifar_data(data_dir="/missing"),
        }}
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--workers", workers])
        assert code == 0
        assert (out / "errors.txt").read_text() == (
            "cell (fedavg, broken) seed 0 failed: ConfigError: "
            "/missing/data_batch_1.bin: cannot read: No such file or directory\n"
        )
        assert capsys.readouterr().err == "warning: " + (out / "errors.txt").read_text()
        rows = [line.split(",") for line in (out / "smoke_table.csv").read_text().split()]
        assert rows[1][1] != "ERROR" and rows[1][2] == "ERROR"

    @staticmethod
    def _die_in(monkeypatch, algorithm, kind):
        """Make the worker that runs the (algorithm, partition kind) cell die."""
        original = fltbench.orchestrator.run_experiment

        def dying(config):
            if (config.algo.algorithm, config.partition.kind) == (algorithm, kind):
                os._exit(3)  # the worker dies mid-cell, with no exception to catch
            return original(config)

        # Pool workers are forked, so they inherit the patched binding.
        monkeypatch.setattr("fltbench.orchestrator.run_experiment", dying)

    def test_dead_worker_marks_its_cell_error(self, tmp_path, monkeypatch):
        self._die_in(monkeypatch, "fedavg", "dirichlet")
        doc = _grid_doc(rounds=1)
        doc["algorithms"] = ["fedavg"]
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--workers", "2"])
        assert code == 0
        errors = (out / "errors.txt").read_text().splitlines()
        assert len(errors) == 1, errors
        assert errors[0].startswith("cell (fedavg, dir05) seed 0 failed: BrokenProcessPool: ")
        rows = [line.split(",") for line in (out / "smoke_table.csv").read_text().split()]
        assert rows[0] == ["algorithm", "iid", "dir05"] and rows[1][2] == "ERROR"
        # The other cell, re-run after the pool broke, reads as it does alone.
        doc["settings"] = doc["settings"][:1]
        alone = tmp_path / "alone"
        assert main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(alone)]) == 0
        table = (alone / "smoke_table.csv").read_text().split()
        assert rows[1][1] == table[1].split(",")[1] != "ERROR"

    def test_dead_worker_fails_only_its_own_cell_of_four(self, tmp_path, monkeypatch):
        # The first cell dies at once, while the pool still holds the others.
        self._die_in(monkeypatch, "fedavg", "iid")
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, _grid_doc(rounds=1)),
                     "--out", str(out), "--workers", "2"])
        assert code == 0
        errors = (out / "errors.txt").read_text().splitlines()
        assert len(errors) == 1, errors
        assert errors[0].startswith("cell (fedavg, iid) seed 0 failed: BrokenProcessPool: ")
        table = (out / "smoke_table.csv").read_text()
        assert table.count("ERROR") == 1 and table.split()[1].startswith("fedavg,ERROR,")
        assert len(list((out / "cells").glob("*.report.json"))) == 3

    @pytest.mark.parametrize("where,bad", [
        ("name", "smoke\0table"),
        ("name", "t" * 300),
        ("label", "l" * 300),
    ])
    def test_uncreatable_output_name_exits_2_before_any_cell(
        self, tmp_path, monkeypatch, capsys, where, bad
    ):
        calls = []
        monkeypatch.setattr("fltbench.orchestrator.run_experiment", calls.append)
        doc = _grid_doc(rounds=1)
        if where == "name":
            doc["name"] = bad
        else:
            doc["settings"][1]["label"] = bad
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert calls == []
        assert "cannot create sweep output" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["cells"]
        assert list((out / "cells").iterdir()) == []

    def test_rerun_identical_csv(self, tmp_path):
        config = _write_config(tmp_path, _grid_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", config, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "smoke_table.csv").read_bytes() == (out_b / "smoke_table.csv").read_bytes()

    def test_partial_failure_marks_error_and_exits_0(self, tmp_path, capsys):
        doc = _grid_doc()
        doc["settings"].append(
            {"label": "broken", "overrides": {"data": _cifar_data(data_dir="/missing")}}
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        table = (out / "smoke_table.csv").read_text()
        assert "ERROR" in table
        assert "warning" in capsys.readouterr().err

    def test_infeasible_long_tail_cell_is_error(self, tmp_path, capsys):
        doc = _grid_doc()
        doc["settings"] = [
            {"label": "iid", "overrides": {}},
            {"label": "cifar_if50", "overrides": {"data": _cifar_data(
                data_dir=_tiny_cifar_dir(tmp_path), lt_target_if=50.0,
            )}},
        ]
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        lines = (out / "smoke_table.csv").read_text().strip().split("\n")
        assert [line.split(",")[2] for line in lines[1:]] == ["ERROR", "ERROR"]
        assert "lt_target_if" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_cell_is_the_only_error(self, tmp_path, capsys, workers):
        doc = _grid_doc(rounds=1)
        # A step this large overflows the weights, which only the run can
        # find; an overflowing cluster_spread is a config error of the grid.
        doc["settings"][1] = {"label": "huge", "overrides": {"train": {"learning_rate": 1e308}}}
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out),
                     "--workers", workers])
        assert code == 0
        rows = [line.split(",") for line in (out / "smoke_table.csv").read_text().split()]
        assert [row[2] for row in rows[1:]] == ["ERROR", "ERROR"]
        assert "ERROR" not in [row[1] for row in rows[1:]]
        assert "non-finite" in capsys.readouterr().err


def _children(pid):
    """Ids of the live processes that pid's main thread forked; none once pid
    is gone."""
    try:
        kids = Path(f"/proc/{pid}/task/{pid}/children").read_text().split()
    except OSError:
        return []
    return [int(kid) for kid in kids]


def _alive(pid):
    """Whether pid runs: it exists and is not a zombie waiting to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
class TestSweepKilled:
    def test_sigterm_ends_the_pool_workers(self, tmp_path):
        # Cells far too long to finish: the workers are busy when the sweep
        # process is killed, and must not outlive it.
        doc = _grid_doc(rounds=1_000_000)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(fltbench.cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")])}
        sweep = subprocess.Popen(
            [sys.executable, "-m", "fltbench.cli", "sweep", "--config",
             _write_config(tmp_path, doc), "--out", str(tmp_path / "out"), "--workers", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 30.0
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(sweep.pid)
            assert len(workers) == 2
            time.sleep(0.5)  # let both workers start on a cell
            sweep.send_signal(signal.SIGTERM)
            assert sweep.wait(timeout=10) == -signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if sweep.poll() is None:
                sweep.kill()
                sweep.wait()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
