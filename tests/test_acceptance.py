"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance; the conftest summary printer emits
one CRITERION nn PASS/FAIL line per test at the end of the run. Frozen
thresholds (trend drop, entropy ratio, IF bands) come from seeded
calibration pre-runs recorded in the test comments.
"""
import json

import numpy as np
import pytest

from fltbench.algorithms import AlgoConfig
from fltbench.cli import main as cli_main
from fltbench.datasets import ClientShard, generate_synthetic
from fltbench.lt_shaping import exponential_profile, shape_long_tailed
from fltbench.nn import (
    ModelConfig,
    TrainConfig,
    init_model,
    loss_and_grad,
)
from fltbench.orchestrator import (
    DataConfig,
    ExperimentConfig,
    ModelSpec,
    run_experiment,
)
from fltbench.partition import (
    PartitionSpec,
    build_partition,
    partition_dirichlet,
    partition_rotated_longtail,
)
from fltbench.stats import global_distribution, local_distribution
from conftest import as_vector, split_vector
from test_nn import fd_safe_batch


def test_criterion_01_distribution_identities():
    """Global counts are exact shard-count sums and the global frequency
    vector is the sample-count-weighted mean of the local ones, over 100
    randomized partitions."""
    datasets = {
        m: generate_synthetic(m, 200, 3, 0.5, seed=m) for m in (4, 6, 10)
    }
    for i in range(100):
        kind = ("iid", "dirichlet", "rotated_lt")[i % 3]
        # Rotated splits use a client count that is a multiple of M so every
        # head rotation is equally loaded; the identities are kind-agnostic.
        m = [4, 6, 10][(i // 3) % 3] if kind != "rotated_lt" else [4, 6][(i // 3) % 2]
        ds = datasets[m]
        spec = PartitionSpec(
            kind=kind,
            num_clients=m * (1 + i % 3) if kind == "rotated_lt" else 2 + (i % 4),
            seed=i,
            alpha=0.3 if kind == "dirichlet" else None,
            local_if=3.0 if kind == "rotated_lt" else None,
            min_shard_size=1,
        )
        part = build_partition(ds, spec)
        summed = sum(
            np.bincount(ds.labels[s.indices], minlength=m) for s in part.shards
        )
        np.testing.assert_array_equal(part.global_stats.counts, summed)
        locals_ = [local_distribution(s, ds) for s in part.shards]
        weighted = sum(s.total * s.probs for s in locals_) / sum(
            s.total for s in locals_
        )
        assert np.max(np.abs(part.global_stats.probs - weighted)) <= 1e-12


def test_criterion_02_imbalance_factor_exactness(cifar_scale_ds):
    """Shaping to target IF in {10, 50, 100} realizes the measured global
    imbalance factor within 2%."""
    for target in (10.0, 50.0, 100.0):
        profile = exponential_profile(5000, 10, target)
        shaped = shape_long_tailed(cifar_scale_ds, profile, seed=0)
        shard = ClientShard(0, np.arange(len(shaped)))
        measured = global_distribution([shard], shaped).imbalance_factor
        assert abs(measured - target) <= 0.02 * target


def test_criterion_03_gradient_oracle():
    """Analytic gradients match central finite differences (eps 1e-5) within
    1e-4 relative error across 50 randomized small models."""
    rng = np.random.default_rng(123)
    eps = 1e-5
    for trial in range(50):
        arch = "mlp1h" if trial % 2 else "linear_softmax"
        input_dim = int(rng.integers(2, 9))
        m = int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 7)) if arch == "mlp1h" else None
        cfg = ModelConfig(
            arch=arch, input_dim=input_dim, num_classes=m,
            init_seed=int(rng.integers(1 << 30)), hidden_units=hidden,
        )
        params = init_model(cfg)
        x, y = fd_safe_batch(params, cfg, rng, int(rng.integers(2, 8)))
        weight_decay = float(rng.choice([0.0, 0.01]))
        _, grad = loss_and_grad(params, cfg, x, y, weight_decay)
        analytic = np.concatenate([grad.rep_block, grad.head_block])
        vec = as_vector(params)
        oracle = np.zeros_like(vec)
        for i in range(vec.size):
            plus, minus = vec.copy(), vec.copy()
            plus[i] += eps
            minus[i] -= eps
            lp, _ = loss_and_grad(split_vector(cfg, plus), cfg, x, y, weight_decay)
            lm, _ = loss_and_grad(split_vector(cfg, minus), cfg, x, y, weight_decay)
            oracle[i] = (lp - lm) / (2 * eps)
        rel = np.abs(analytic - oracle) / np.maximum(np.abs(oracle), 1e-3)
        assert rel.max() <= 1e-4, f"trial {trial}: max rel err {rel.max():.2e}"


def test_criterion_04_fedavg_centralized_equivalence():
    """K=4 equal shards, one full-batch local epoch, full participation: the
    aggregated round equals one centralized full-batch step within 1e-6."""
    from fltbench.algorithms import aggregate_weighted, local_update_fedavg

    rng = np.random.default_rng(7)
    cfg = ModelConfig(arch="mlp1h", input_dim=6, num_classes=3, init_seed=1, hidden_units=8)
    params = init_model(cfg)
    x = rng.standard_normal((48, 6))
    y = rng.integers(0, 3, 48)
    lr = 0.1
    updates = []
    for k in range(4):
        sx, sy = x[k * 12 : (k + 1) * 12], y[k * 12 : (k + 1) * 12]
        tc = TrainConfig(learning_rate=lr, batch_size=12, local_epochs=1, shuffle_seed=k)
        updates.append(local_update_fedavg(params, cfg, sx, sy, tc, client_id=k))
    agg = aggregate_weighted(updates)
    _, grad = loss_and_grad(params, cfg, x, y)
    expected = np.concatenate(
        [params.rep_block - lr * grad.rep_block, params.head_block - lr * grad.head_block]
    )
    got = as_vector(agg)
    rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-12)
    assert rel.max() <= 1e-6


def _prox_config(algorithm, mu):
    return ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=10, per_class=80,
                        test_per_class=20, dim=8, cluster_spread=1.0),
        partition=PartitionSpec(kind="iid", num_clients=5, min_shard_size=10),
        model=ModelSpec(arch="mlp1h", hidden_units=16),
        train=TrainConfig(learning_rate=0.1, batch_size=32, local_epochs=2),
        algo=AlgoConfig(algorithm=algorithm, rounds=10, mu=mu),
        eval_every=5,
        master_seed=21,
    )


def test_criterion_05_fedprox_degeneracy():
    """mu=0 makes the FedProx trajectory bitwise equal to FedAvg over 10
    rounds with identical seeds."""
    fedavg = run_experiment(_prox_config("fedavg", mu=0.0))
    fedprox = run_experiment(_prox_config("fedprox", mu=0.0))
    assert (
        fedavg.final_params.rep_block.tobytes()
        == fedprox.final_params.rep_block.tobytes()
    )
    assert (
        fedavg.final_params.head_block.tobytes()
        == fedprox.final_params.head_block.tobytes()
    )
    for pa, pp in zip(fedavg.eval_points, fedprox.eval_points):
        assert pa.global_metrics.accuracy == pp.global_metrics.accuracy
        np.testing.assert_array_equal(
            pa.global_metrics.per_class_accuracy, pp.global_metrics.per_class_accuracy
        )


def test_criterion_06_rotated_longtail_construction(cifar_scale_ds):
    """N=40 clients, 10 classes, target local IF in {10, 50, 100}: every
    client lands within 10% of target and the global stays near-balanced."""
    for target in (10.0, 50.0, 100.0):
        spec = PartitionSpec(kind="rotated_lt", num_clients=40, seed=0, local_if=target)
        part = partition_rotated_longtail(cifar_scale_ds, spec)
        for stats in part.client_stats:
            assert abs(stats.imbalance_factor - target) <= 0.10 * target
        assert part.global_stats.imbalance_factor <= 1.1


def _trend_config(lt_if, seed=0):
    return ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=10, per_class=1000,
                        test_per_class=200, dim=5, cluster_spread=1.0,
                        lt_target_if=None if lt_if == 1 else float(lt_if)),
        partition=PartitionSpec(kind="iid", num_clients=10, min_shard_size=10),
        model=ModelSpec(arch="mlp1h", hidden_units=200),
        train=TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=1,
                          weight_decay=1e-4),
        algo=AlgoConfig(algorithm="fedavg", rounds=200),
        eval_every=20,
        master_seed=seed,
    )


def test_criterion_07_accuracy_degrades_with_global_imbalance():
    """FedAvg best accuracy strictly decreases across global IF 1 -> 10 ->
    100 with a total drop of at least 5 accuracy points. Calibration run at
    seed 0 observed 0.979 / 0.958 / 0.656."""
    best = [run_experiment(_trend_config(lt)).best_accuracy for lt in (1, 10, 100)]
    assert best[0] > best[1] > best[2], f"not monotone: {best}"
    assert best[0] - best[2] >= 0.05, f"drop too small: {best}"


def _type2_config(algorithm, seed):
    return ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=10, per_class=1000,
                        test_per_class=200, dim=5, cluster_spread=1.0,
                        lt_target_if=100.0),
        partition=PartitionSpec(kind="dirichlet", num_clients=10, alpha=0.5,
                                min_shard_size=10),
        model=ModelSpec(arch="mlp1h", hidden_units=200),
        train=TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=1,
                          weight_decay=1e-4),
        algo=AlgoConfig(algorithm=algorithm, rounds=80, ff_per_class=20, ff_steps=30,
                        retrain_steps=300, ff_lr=5.0, retrain_lr=0.1),
        eval_every=20,
        master_seed=seed,
    )


def _type3_config(algorithm, seed):
    return ExperimentConfig(
        data=DataConfig(source="synthetic", num_classes=10, per_class=1000,
                        test_per_class=200, dim=5, cluster_spread=1.0),
        partition=PartitionSpec(kind="rotated_lt", num_clients=10, local_if=100.0,
                                min_shard_size=10),
        model=ModelSpec(arch="mlp1h", hidden_units=200),
        train=TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=1,
                          weight_decay=1e-4),
        algo=AlgoConfig(algorithm=algorithm, rounds=80),
        eval_every=20,
        client_holdout_fraction=0.2,
        master_seed=seed,
    )


def _tail_at_best(report):
    best = max(report.eval_points, key=lambda p: p.global_metrics.accuracy)
    return best.global_metrics.group_accuracy.get("tail", 0.0)


def test_criterion_08_method_ordering():
    """At strong imbalance, classifier re-training beats plain averaging on
    tail classes, and personalized heads beat the global model on each
    client's own test shard, averaged over 3 seeds."""
    seeds = (0, 1, 2)

    creff_tail, fedavg_tail = [], []
    for seed in seeds:
        fedavg_tail.append(_tail_at_best(run_experiment(_type2_config("fedavg", seed))))
        creff_tail.append(_tail_at_best(run_experiment(_type2_config("creff", seed))))
    assert np.mean(creff_tail) >= np.mean(fedavg_tail), (
        f"creff tail {creff_tail} vs fedavg tail {fedavg_tail}"
    )

    personalized, global_on_shards = [], []
    for seed in seeds:
        fedper = run_experiment(_type3_config("fedper", seed))
        fedavg = run_experiment(_type3_config("fedavg", seed))
        personalized.append(
            max(p.personalized_mean for p in fedper.eval_points
                if p.personalized_mean is not None)
        )
        global_on_shards.append(
            max(p.global_on_clients_mean for p in fedavg.eval_points
                if p.global_on_clients_mean is not None)
        )
    assert np.mean(personalized) >= np.mean(global_on_shards), (
        f"personalized {personalized} vs global {global_on_shards}"
    )


def test_criterion_09_dirichlet_concentration(balanced_ds):
    """Huge alpha keeps every client within 0.02 of the global frequencies;
    alpha = 0.1 collapses the mean client label entropy below the threshold
    frozen from a 10-seed pre-run (observed max ratio 0.541, frozen 0.60)."""
    global_probs = np.full(10, 0.1)
    for seed in range(10):
        spec = PartitionSpec(kind="dirichlet", num_clients=10, seed=seed, alpha=1e6)
        part = partition_dirichlet(balanced_ds, spec)
        for stats in part.client_stats:
            assert np.max(np.abs(stats.probs - global_probs)) <= 0.02

    global_entropy = np.log(10)
    for seed in range(10):
        spec = PartitionSpec(kind="dirichlet", num_clients=10, seed=seed, alpha=0.1)
        part = partition_dirichlet(balanced_ds, spec)
        mean_entropy = np.mean([s.entropy for s in part.client_stats])
        assert mean_entropy <= 0.60 * global_entropy


SMOKE_GRID = {
    "name": "smoke",
    "base": {
        "data": {
            "source": "synthetic", "num_classes": 10, "per_class": 60,
            "test_per_class": 20, "dim": 8, "cluster_spread": 1.0,
        },
        "partition": {"kind": "iid", "num_clients": 5, "min_shard_size": 10},
        "model": {"arch": "linear_softmax"},
        "train": {"learning_rate": 0.2, "batch_size": 32, "local_epochs": 1},
        "algo": {"algorithm": "fedavg", "rounds": 3},
        "run": {"eval_every": 2, "master_seed": 5},
    },
    "algorithms": ["fedavg", "fedprox"],
    "settings": [
        {"label": "iid", "overrides": {}},
        {"label": "dir05", "overrides": {"partition": {"kind": "dirichlet", "alpha": 0.5}}},
    ],
}


def test_criterion_10_parallel_determinism(tmp_path):
    """Sweep outputs are identical for --workers 1 and --workers 8: the
    table byte-for-byte, per-cell reports up to the wall-clock field."""
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(SMOKE_GRID), encoding="utf-8")
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out1),
                     "--workers", "1"]) == 0
    assert cli_main(["sweep", "--config", str(config_path), "--out", str(out8),
                     "--workers", "8"]) == 0
    assert (out1 / "smoke.csv").read_bytes() == (out8 / "smoke.csv").read_bytes()
    cells1 = sorted(p.name for p in (out1 / "cells").glob("*.report.json"))
    cells8 = sorted(p.name for p in (out8 / "cells").glob("*.report.json"))
    assert cells1 == cells8 and len(cells1) == 4
    for name in cells1:
        a = json.loads((out1 / "cells" / name).read_text())
        b = json.loads((out8 / "cells" / name).read_text())
        a.pop("wall_clock_sec")
        b.pop("wall_clock_sec")
        assert a == b
