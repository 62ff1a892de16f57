"""CLI contract: exit codes, emitted files, determinism, config round-trip."""
import json

import numpy as np
import pytest

from fltbench.cli import main
from fltbench.config import (
    experiment_config_to_dict,
    parse_experiment_config,
    parse_grid_config,
)
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

    def test_grid_override_touches_only_named_keys(self):
        _, cells, _, _ = parse_grid_config(_grid_doc())
        dir_cells = [c for c in cells if c.col == "dir05"]
        assert all(c.config.partition.alpha == 0.5 for c in dir_cells)
        assert all(c.config.data.per_class == 60 for c in dir_cells)


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
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "round " in err and "non-finite" in err and "client " in err
        assert not (out / "report.json").exists()

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

    def test_rerun_identical_csv(self, tmp_path):
        config = _write_config(tmp_path, _grid_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", config, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", config, "--out", str(out_b)]) == 0
        assert (out_a / "smoke_table.csv").read_bytes() == (out_b / "smoke_table.csv").read_bytes()

    def test_partial_failure_marks_error_and_exits_0(self, tmp_path, capsys):
        doc = _grid_doc()
        doc["settings"].append(
            {"label": "broken", "overrides": {"data": {"source": "cifar10", "data_dir": "/missing"}}}
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", _write_config(tmp_path, doc), "--out", str(out)])
        assert code == 0
        table = (out / "smoke_table.csv").read_text()
        assert "ERROR" in table
        assert "warning" in capsys.readouterr().err
