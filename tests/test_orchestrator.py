"""Round loop, evaluation schedule, grouping, determinism, and sweeps."""
import concurrent.futures
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

import fltbench.nn
import fltbench.orchestrator
from fltbench.algorithms import AlgoConfig
from fltbench.config import DataConfig, ExperimentConfig, ModelSpec, SweepCell
from fltbench.datasets import Dataset, class_counts, head_tail_groups, subset
from fltbench.errors import ConfigError, FltbenchError
from fltbench.nn import (
    EVAL_BLOCK_ROWS,
    ModelParams,
    TrainConfig,
    evaluate,
    save_checkpoint,
    sgd_epochs,
)
from fltbench.orchestrator import (
    _client_holdouts,
    build_data,
    prepare_partition,
    run_experiment,
    run_sweep,
    sample_clients,
    sweep_table,
)
from fltbench.partition import Partition, PartitionSpec
from fltbench.seeding import derive_rng, derive_seed
from conftest import run_configs

# Critical value of the chi-square distribution, df=9, alpha=0.001.
CHI2_9_CRIT_999 = 27.877


def _quick_config(algorithm="fedavg", rounds=5, seed=0, **overrides):
    base = dict(
        data=DataConfig(
            source="synthetic", num_classes=10, per_class=60, test_per_class=20,
            dim=8, cluster_spread=1.0,
        ),
        partition=PartitionSpec(kind="iid", num_clients=5, min_shard_size=10),
        model=ModelSpec(arch="linear_softmax", hidden_units=None),
        train=TrainConfig(learning_rate=0.2, batch_size=32, local_epochs=1),
        algo=AlgoConfig(algorithm=algorithm, rounds=rounds, ff_per_class=4,
                        ff_steps=5, retrain_steps=20, ff_lr=1.0, retrain_lr=0.1),
        eval_every=2,
        master_seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_zero_rounds_reports_only_init_evaluation(self):
        report = run_experiment(_quick_config(rounds=0))
        assert len(report.eval_points) == 1
        assert report.eval_points[0].round == 0
        assert report.best_accuracy == report.final_accuracy

    def test_single_client_full_participation_is_centralized(self):
        config = _quick_config(
            rounds=3,
            partition=PartitionSpec(kind="iid", num_clients=1, min_shard_size=10),
        )
        report = run_experiment(config)
        train, _, _ = build_data(config)
        _, _, _, partition = prepare_partition(config)
        x, y = train.features[partition.shards[0]], train.labels[partition.shards[0]]
        from fltbench.nn import ModelConfig, init_model

        model_cfg = ModelConfig(
            arch="linear_softmax", input_dim=train.dim, num_classes=10,
            init_seed=derive_seed(config.master_seed, "model-init"),
        )
        params = init_model(model_cfg)
        for round_idx in range(1, 4):
            tc = TrainConfig(learning_rate=0.2, batch_size=32, local_epochs=1)
            rng = derive_rng(config.master_seed, "local-train", round_idx, 0)
            params = sgd_epochs(params, model_cfg, tc, x, y, rng)
        assert report.final_params.head_block.tobytes() == params.head_block.tobytes()

    def test_easy_fedavg_run_reaches_high_accuracy(self):
        config = ExperimentConfig(
            data=DataConfig(source="synthetic", num_classes=10, per_class=200,
                            test_per_class=50, dim=32, cluster_spread=0.5),
            partition=PartitionSpec(kind="iid", num_clients=10, min_shard_size=10),
            model=ModelSpec(arch="linear_softmax", hidden_units=None),
            train=TrainConfig(learning_rate=0.2, batch_size=32, local_epochs=1),
            algo=AlgoConfig(algorithm="fedavg", rounds=50),
            eval_every=10,
            master_seed=0,
        )
        report = run_experiment(config)
        assert report.final_accuracy >= 0.9

    def test_reports_are_bitwise_reproducible(self):
        a = run_experiment(_quick_config(rounds=4, algorithm="fedprox"))
        b = run_experiment(_quick_config(rounds=4, algorithm="fedprox"))
        assert a.final_params.head_block.tobytes() == b.final_params.head_block.tobytes()
        for pa, pb in zip(a.eval_points, b.eval_points):
            assert pa.global_metrics.accuracy == pb.global_metrics.accuracy
            np.testing.assert_array_equal(
                pa.global_metrics.per_class_accuracy, pb.global_metrics.per_class_accuracy
            )

    def test_fedper_tracks_personalized_metrics(self):
        config = _quick_config(algorithm="fedper", rounds=4, client_holdout_fraction=0.25)
        report = run_experiment(config)
        last = report.eval_points[-1]
        assert last.personalized_mean is not None
        assert last.global_on_clients_mean is not None
        assert report.best_personalized_mean is not None

    def test_fedavg_has_no_personalized_metrics(self):
        config = _quick_config(rounds=2, client_holdout_fraction=0.25)
        report = run_experiment(config)
        assert report.eval_points[-1].personalized_mean is None
        assert report.eval_points[-1].global_on_clients_mean is not None

    def test_creff_round_runs_and_stores_features(self):
        report = run_experiment(_quick_config(algorithm="creff", rounds=2))
        assert report.federated_features is not None
        assert report.federated_features.shape == (10, 4, 8)

    def test_creff_report_memory_does_not_grow_with_the_rounds_clients(self):
        # A CReFF client's report is an (M, head_size) array, ten times its
        # linear_softmax params at M = 10. Held until the round ends, the
        # reports of 28 more clients would raise the traced peak by 28 of
        # them; folded into per-class sums as they arrive, they leave only
        # the clients' params (about 0.13 of that here).
        def config(num_clients):
            return _quick_config(
                algorithm="creff", rounds=1,
                data=DataConfig(source="synthetic", num_classes=10, per_class=60,
                                test_per_class=20, dim=32, cluster_spread=1.0),
                partition=PartitionSpec(kind="iid", num_clients=num_clients,
                                        min_shard_size=10),
            )

        def traced_peak(num_clients):
            tracemalloc.start()
            try:
                run_experiment(config(num_clients))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_experiment(config(4))  # first-call allocations stay out of the peaks
        few, many = traced_peak(4), traced_peak(32)
        report_bytes = 10 * (10 * 32 + 10) * 8
        assert many - few < 0.25 * (32 - 4) * report_bytes

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedper"])
    def test_round_memory_does_not_grow_with_the_rounds_clients(self, algorithm):
        # Each client's trained params are folded into the round's weighted
        # sums as it finishes. Held until the round ends, the params of 28
        # more clients would raise the traced peak by 28 copies; FedPer's
        # per-client heads, kept by design, grow by 28 heads, about 0.04
        # copies each here.
        def config(num_clients):
            return _quick_config(
                algorithm=algorithm, rounds=1,
                data=DataConfig(source="synthetic", num_classes=3, per_class=100,
                                test_per_class=10, dim=64, cluster_spread=1.0),
                partition=PartitionSpec(kind="iid", num_clients=num_clients,
                                        min_shard_size=5),
                model=ModelSpec(arch="mlp1h", hidden_units=128),
            )

        def traced_peak(num_clients):
            tracemalloc.start()
            try:
                run_experiment(config(num_clients))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_experiment(config(4))  # first-call allocations stay out of the peaks
        few, many = traced_peak(4), traced_peak(32)
        params_bytes = ((64 + 1) * 128 + 3 * (128 + 1)) * 8
        assert many - few < 0.25 * (32 - 4) * params_bytes

    def test_divergence_names_the_first_non_finite_client(self, monkeypatch):
        # Clients 2 and 4 of 5 return NaN params in round 1; the error names
        # client 2, the lowest id among them, though client 0 trains first.
        original = fltbench.orchestrator.local_update_fedavg
        calls = []

        def diverging(*args):
            trained = original(*args)
            if len(calls) in (2, 4):
                trained.head_block[:] = np.nan
            calls.append(len(calls))
            return trained

        monkeypatch.setattr(fltbench.orchestrator, "local_update_fedavg", diverging)
        with np.errstate(invalid="ignore"):
            with pytest.raises(FltbenchError) as caught:
                run_experiment(_quick_config(rounds=2))
        assert str(caught.value) == (
            "round 1: global model parameters are non-finite after aggregation "
            "(first non-finite client update: client 2)"
        )
        assert len(calls) == 5

    def test_creff_modifies_only_the_head(self):
        # Within one round and under the same master seed, classifier
        # re-training must leave the aggregated representation untouched
        # (from round two on the heads differ, so trajectories diverge).
        creff = run_experiment(_quick_config(algorithm="creff", rounds=1,
                                             model=ModelSpec(arch="mlp1h", hidden_units=12)))
        fedavg = run_experiment(_quick_config(algorithm="fedavg", rounds=1,
                                              model=ModelSpec(arch="mlp1h", hidden_units=12)))
        assert (
            creff.final_params.rep_block.tobytes()
            == fedavg.final_params.rep_block.tobytes()
        )
        assert not np.array_equal(
            creff.final_params.head_block, fedavg.final_params.head_block
        )

    def test_creff_matches_fedavg_on_balanced_data(self):
        # Calibrated parity run: with both methods converged on balanced
        # data, best accuracies at seed 0 were 0.971 (fedavg) and 0.969
        # (creff); the re-trained head must stay within 2 points.
        def config(algorithm):
            return ExperimentConfig(
                data=DataConfig(source="synthetic", num_classes=10, per_class=500,
                                test_per_class=100, dim=5, cluster_spread=1.0),
                partition=PartitionSpec(kind="iid", num_clients=10, min_shard_size=10),
                model=ModelSpec(arch="mlp1h", hidden_units=64),
                train=TrainConfig(learning_rate=0.2, batch_size=64, local_epochs=1,
                                  weight_decay=1e-4),
                algo=AlgoConfig(algorithm=algorithm, rounds=150, ff_per_class=20,
                                ff_steps=30, retrain_steps=300, ff_lr=5.0,
                                retrain_lr=0.1),
                eval_every=25,
                master_seed=0,
            )

        fedavg, creff = run_configs([config("fedavg"), config("creff")])
        assert abs(creff.best_accuracy - fedavg.best_accuracy) <= 0.02

    def test_missing_cifar_dir_is_config_error(self):
        config = _quick_config(
            data=DataConfig(source="cifar10", num_classes=10, data_dir=None)
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_eval_schedule_includes_final_round(self):
        report = run_experiment(_quick_config(rounds=5))
        rounds = [p.round for p in report.eval_points]
        assert rounds == [0, 2, 4, 5]
        assert report.best_accuracy == max(
            p.global_metrics.accuracy for p in report.eval_points
        )


class TestClientSampling:
    def test_full_participation_selects_everyone(self):
        assert sample_clients(8, 1.0, seed=1) == list(range(8))

    def test_fractional_count(self):
        assert len(sample_clients(10, 0.35, seed=2)) == 4  # ceil(3.5)

    @pytest.mark.parametrize("num_clients,fraction", [(100, 0.07), (25, 0.28)])
    def test_exact_product_is_not_rounded_up(self, num_clients, fraction):
        # In floats 0.07 * 100 is 7.000000000000001 and 0.28 * 25 is
        # 7.000000000000001; the configured products are exactly 7.
        assert len(sample_clients(num_clients, fraction, seed=0)) == 7

    def test_sampling_fairness_chi_square(self):
        # 400 rounds at C=0.5 over 10 clients: each expected 200 selections.
        counts = np.zeros(10)
        for round_idx in range(400):
            for k in sample_clients(10, 0.5, seed=derive_seed(17, "sampling", round_idx)):
                counts[k] += 1
        expected = 400 * 0.5
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < CHI2_9_CRIT_999

    def test_holdout_shards_are_disjoint_from_training(self):
        config = _quick_config(rounds=1, client_holdout_fraction=0.25)
        train, _, _, partition = prepare_partition(config)
        train_shards, test_shards = _holdout_indices(
            train, partition, 0.25, config.master_seed
        )
        assert len(train_shards) == len(test_shards) == len(partition.shards)
        for tr, te, shard in zip(train_shards, test_shards, partition.shards):
            assert np.intersect1d(tr, te).size == 0
            combined = np.sort(np.concatenate([tr, te]))
            np.testing.assert_array_equal(combined, shard)

    def test_a_split_that_overlaps_is_caught(self, monkeypatch):
        config = _quick_config(rounds=1, client_holdout_fraction=0.25)
        train, _, _, partition = prepare_partition(config)

        def overlapping(labels, num_classes, fraction, rng):
            return np.arange(len(labels)), np.array([len(labels) - 1])

        monkeypatch.setattr(fltbench.orchestrator, "stratified_split_indices", overlapping)
        with pytest.raises(FltbenchError, match="internal error: client 0 holdout indices "
                           "leaked") as caught:
            _client_holdouts(train, partition, 0.25, config.master_seed, head_sets=1)
        assert not isinstance(caught.value, ConfigError)  # a fault of the program: exit 1


def _indexed(labels, num_classes):
    """A dataset of these labels whose one feature is the row index, so that
    a stacked holdout row names the sample it holds."""
    return Dataset(np.arange(len(labels), dtype=np.float64)[:, None], labels, num_classes)


def _holdout_indices(train, partition, fraction, master_seed):
    """_client_holdouts' train shards, and each client's holdout indices read
    off its stacks, position k for client k (empty for an empty holdout)."""
    indexed = _indexed(train.labels, train.num_classes)
    train_shards, stacks = _client_holdouts(indexed, partition, fraction, master_seed, 1)
    holdouts = [np.empty(0, dtype=np.int64)] * len(partition.shards)
    for ids, features, _ in stacks:
        for k, rows in zip(ids, features[:, :, 0].astype(np.int64)):
            holdouts[k] = rows
    return train_shards, holdouts


def _per_client_reference(model_config, params, client_heads, client_tests, fedper):
    """The per-client evaluate loop that the stacked holdout passes replaced,
    with None for a client whose holdout is empty (ds None)."""
    global_per = [
        None if ds is None else evaluate(params, model_config, ds, {}).accuracy
        for _, ds in client_tests
    ]
    if not fedper:
        return global_per, None
    personal = [
        None if ds is None else
        evaluate(ModelParams(params.rep_block, client_heads[c]), model_config, ds, {}).accuracy
        for c, ds in client_tests
    ]
    return global_per, personal


def _mean_of_held(per_client):
    return float(np.mean([a for a in per_client if a is not None]))


class TestClientHoldoutEvaluation:
    @pytest.mark.parametrize("arch,hidden_units", [("mlp1h", 16), ("linear_softmax", None)])
    @pytest.mark.parametrize("algorithm", ["fedper", "fedavg"])
    @pytest.mark.parametrize("alpha,min_shard_size,empty",
                             [(0.5, 5, []), (0.1, 1, [16, 23]), (10.0, 5, [])])
    def test_stacked_accuracies_equal_the_per_client_loop(
        self, monkeypatch, algorithm, alpha, min_shard_size, empty, arch, hidden_units
    ):
        # Dirichlet shards give holdouts of many sizes, so stacks of one
        # client and stacks of several both occur. At alpha 0.1 two clients
        # hold at most one sample of each class, so their holdouts are empty.
        # Each stack is scored under the global head and, for FedPer, the
        # clients' own heads in one forward pass, on either branch of forward.
        # At alpha 10, 13 holdouts have 10 rows: one stack under one head
        # set, two under FedPer's two, whose stacks hold at most 12 clients.
        config = _quick_config(
            algorithm=algorithm, rounds=3, eval_every=1, client_holdout_fraction=0.2,
            partition=PartitionSpec(kind="dirichlet", num_clients=24, alpha=alpha,
                                    min_shard_size=min_shard_size),
            model=ModelSpec(arch=arch, hidden_units=hidden_units),
        )
        train, _, _, partition = prepare_partition(config)
        _, holdouts = _holdout_indices(train, partition, 0.2, config.master_seed)
        client_tests = [
            (k, subset(train, s) if len(s) else None) for k, s in enumerate(holdouts)
        ]
        assert [c for c, ds in client_tests if ds is None] == empty
        _, stacks = _client_holdouts(train, partition, 0.2, config.master_seed, head_sets=2)
        assert any(len(ids) == 1 for ids, _, _ in stacks)
        assert any(len(ids) > 1 for ids, _, _ in stacks)
        assert len({features.shape[1] for _, features, _ in stacks}) > 2

        seen, run_stacks = [], []
        original = fltbench.orchestrator._evaluate_point

        def recording(config, model_config, round_idx, params, heads, *args):
            point = original(config, model_config, round_idx, params, heads, *args)
            heads = None if heads is None else heads.copy()
            params = ModelParams(params.rep_block.copy(), params.head_block.copy())
            seen.append((point, model_config, params, heads))
            run_stacks.append([ids.tolist() for ids, _, _ in args[-1]])
            return point

        monkeypatch.setattr(fltbench.orchestrator, "_evaluate_point", recording)
        run_experiment(config)
        assert [point.round for point, *_ in seen] == [0, 1, 2, 3]
        # The run stacks its holdouts for the head sets it scores.
        sets = 2 if algorithm == "fedper" else 1
        _, own = _client_holdouts(train, partition, 0.2, config.master_seed, head_sets=sets)
        assert run_stacks == [[ids.tolist() for ids, _, _ in own]] * 4
        if algorithm == "fedavg" and alpha == 10.0:
            per_two_sets = EVAL_BLOCK_ROWS // (2 * train.num_classes + 1)
            assert max(len(ids) for ids, _, _ in own) > per_two_sets
        for point, model_config, params, heads in seen:
            global_per, personal = _per_client_reference(
                model_config, params, heads, client_tests, algorithm == "fedper"
            )
            assert point.global_on_clients_per_client == global_per
            assert point.global_on_clients_mean == _mean_of_held(global_per)
            assert point.personalized_per_client == personal
            if personal is not None:
                assert point.personalized_mean == _mean_of_held(personal)
        # Accuracies that all agree would not show a client-order mix-up.
        assert len(set(seen[-1][0].global_on_clients_per_client)) > 1

    def test_stacks_are_bounded_and_cover_every_holdout_once(self):
        # Single-class shards: at fraction 0.5 a class of c samples holds out
        # min(max(1, c // 2), c - 1), so a shard of 2h samples holds out h
        # and a shard of one sample holds out none.
        held = [16] * 40 + [300, 0, 1, 300, 100, 1, 100, 100, 255, 257, 16] + [2] * 40
        sizes = [1 if h == 0 else 2 * h for h in held]
        offsets = np.cumsum([0] + sizes)
        train = _indexed(np.repeat(np.arange(len(sizes)) % 3, sizes), 3)
        shards = tuple(np.arange(offsets[k], offsets[k + 1]) for k in range(len(sizes)))
        partition = Partition(
            shards, np.stack([class_counts(train.labels[s], 3) for s in shards])
        )
        train_shards, stacks = _client_holdouts(train, partition, 0.5, master_seed=0,
                                                head_sets=2)
        positions = np.concatenate([ids for ids, _, _ in stacks])
        assert sorted(positions.tolist()) == [k for k, h in enumerate(held) if h]
        for ids, features, labels in stacks:
            g, n, _ = features.shape
            assert g == 1 or g * n <= EVAL_BLOCK_ROWS
            # Two head sets of g clients fit in a block's hidden features.
            assert g <= max(1, EVAL_BLOCK_ROWS // max(n, 2 * 3 + 1))
            for pos, x, y in zip(ids, features, labels):
                rows = x[:, 0].astype(np.int64)
                assert len(rows) == held[pos]
                np.testing.assert_array_equal(
                    np.sort(np.concatenate([train_shards[pos], rows])), shards[pos]
                )
                np.testing.assert_array_equal(y, train.labels[rows])
        # 41 holdouts of 16 rows fill stacks of 16 clients: 16 + 16 + 9.
        assert sorted(len(ids) for ids, x, _ in stacks if x.shape[1] == 16) == [9, 16, 16]
        # 40 holdouts of 2 rows: 256 // 7 = 36 clients a stack, not 128.
        assert sorted(len(ids) for ids, x, _ in stacks if x.shape[1] == 2) == [4, 36]


class TestBlasThreads:
    def test_checkpoint_bytes_do_not_depend_on_the_callers_thread_count(self, tmp_path):
        # retrain_head's gradient over 10 classes x 100 prototypes x 200
        # features is threaded by OpenBLAS, and at this shape threaded and
        # one-thread products differ in the last bits.
        config = _quick_config(
            algorithm="creff", rounds=1,
            data=DataConfig(source="synthetic", num_classes=10, per_class=20,
                            test_per_class=5, dim=5),
            partition=PartitionSpec(kind="iid", num_clients=2, min_shard_size=1),
            model=ModelSpec(arch="mlp1h", hidden_units=200),
            algo=AlgoConfig(algorithm="creff", rounds=1, ff_per_class=100, ff_steps=2,
                            retrain_steps=3, ff_lr=1.0),
        )
        get, set_threads = fltbench.nn._openblas_threads()
        previous = get()
        checkpoints = []
        try:
            for threads in (1, 2):
                set_threads(threads)
                report = run_experiment(config)
                path = tmp_path / f"{threads}.ckpt"
                save_checkpoint(path, report.model_config, report.final_params,
                                federated_features=report.federated_features)
                checkpoints.append(path.read_bytes())
        finally:
            set_threads(previous)
        assert checkpoints[0] == checkpoints[1]


class TestHeadTailGroups:
    def test_flat_profile_is_all_head(self):
        # The empty medium and tail groups are left out.
        assert head_tail_groups(np.array([5000] * 10)) == {"head": list(range(10))}

    def test_if100_profile_split(self):
        counts = np.array([5000, 2997, 1796, 1077, 645, 387, 232, 139, 83, 50])
        assert head_tail_groups(counts) == {
            "head": [0, 1, 2, 3], "medium": [4, 5, 6], "tail": [7, 8, 9],
        }

    def test_thresholds_scale_with_dataset_size(self):
        counts = np.array([1000, 599, 359, 215, 129, 77, 46, 27, 16, 10])
        groups = head_tail_groups(counts)  # hi=200, lo=40 after scaling
        assert groups == {"head": [0, 1, 2, 3], "medium": [4, 5, 6], "tail": [7, 8, 9]}
        assert list(groups) == ["head", "medium", "tail"]

    def test_counts_on_a_cutoff_are_medium(self):
        # Largest class 5000: the cutoffs are exactly 1000 and 200.
        groups = head_tail_groups(np.array([5000, 1001, 1000, 200, 199]))
        assert groups == {"head": [0, 1], "medium": [2, 3], "tail": [4]}

    def test_groups_keep_head_medium_tail_order_for_any_class_order(self):
        # Tail classes first and no medium class: the empty group is left out.
        groups = head_tail_groups(np.array([10, 5000, 20, 4000]))
        assert list(groups.items()) == [("head", [1, 3]), ("tail", [0, 2])]


def _errors(outcomes):
    return [(cell, error) for cell, report, error in outcomes if report is None]


class TestSweep:
    def test_one_by_one_grid_matches_run_experiment(self):
        config = _quick_config(rounds=3)
        cell = SweepCell(row="fedavg", col="base", seed_index=0, config=config)
        [(_, report, error)] = run_sweep([cell])
        direct = run_experiment(config)
        assert error is None and report.best_accuracy == direct.best_accuracy
        assert sweep_table(["fedavg"], ["base"], [(cell, report, error)]) == (
            f"algorithm,base\nfedavg,{direct.best_accuracy:.4f}\n"
        )

    def test_failed_cell_marked_error_and_sweep_continues(self):
        good = _quick_config(rounds=2)
        bad = _quick_config(
            rounds=2,
            data=DataConfig(source="cifar10", num_classes=10, data_dir="/nonexistent"),
        )
        cells = [
            SweepCell(row="fedavg", col="good", seed_index=0, config=good),
            SweepCell(row="fedavg", col="bad", seed_index=0, config=bad),
        ]
        outcomes = run_sweep(cells)
        assert outcomes[0][1] is not None and outcomes[0][2] is None
        assert [cell.col for cell, _ in _errors(outcomes)] == ["bad"]
        csv = sweep_table(["fedavg"], ["good", "bad"], outcomes)
        assert csv.split("\n")[1] == f"fedavg,{outcomes[0][1].best_accuracy:.4f},ERROR"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crashing_cell_is_error_and_sweep_continues(self, monkeypatch, workers):
        original = fltbench.orchestrator.run_experiment

        def crashing(config):
            if config.algo.algorithm == "fedprox":
                raise ValueError("injected crash")
            return original(config)

        # Pool workers are forked, so they inherit the patched binding.
        monkeypatch.setattr(fltbench.orchestrator, "run_experiment", crashing)
        cells = [
            SweepCell(row=a, col="s", seed_index=0, config=_quick_config(algorithm=a, rounds=1))
            for a in ("fedavg", "fedprox")
        ]
        outcomes = run_sweep(cells, workers=workers)
        assert [(c.row, msg) for c, msg in _errors(outcomes)] == [
            ("fedprox", "ValueError: injected crash")
        ]
        lines = sweep_table(["fedavg", "fedprox"], ["s"], outcomes).strip().split("\n")
        assert lines[1] != "fedavg,ERROR" and lines[2] == "fedprox,ERROR"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_come_back_without_model_arrays(self, workers):
        cells = [
            SweepCell(row=a, col="s", seed_index=0, config=_quick_config(algorithm=a, rounds=1))
            for a in ("fedavg", "creff")
        ]
        outcomes = run_sweep(cells, workers=workers)
        assert [(cell.row, error) for cell, _, error in outcomes] == [
            ("fedavg", None), ("creff", None)
        ]
        for cell, report, _ in outcomes:
            assert report.final_params is None and report.federated_features is None
            direct = run_experiment(cell.config)
            assert report.to_json_dict() | {"wall_clock_sec": 0} == (
                direct.to_json_dict() | {"wall_clock_sec": 0}
            )

    @pytest.mark.parametrize("workers, num_cells, pool_size", [
        (500, 8, 8), (2, 8, 2), (3, 2, 2),
    ])
    def test_pool_has_at_most_one_worker_per_cell(
        self, monkeypatch, workers, num_cells, pool_size
    ):
        sizes = []

        class SerialPool:
            """Records its size and runs each call in this process: no worker
            starts."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, item):
                future = concurrent.futures.Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", SerialPool
        )
        monkeypatch.setattr(
            fltbench.orchestrator, "_run_cell", lambda cell: (cell, None, "not run")
        )
        cells = [SweepCell(row="fedavg", col=f"s{i}", seed_index=0, config=_quick_config())
                 for i in range(num_cells)]
        outcomes = run_sweep(cells, workers=workers)
        assert sizes == [pool_size]
        assert _errors(outcomes) == [(cell, "not run") for cell in cells]

    def test_pool_broken_while_submitting_fails_every_cell(self, monkeypatch):
        sizes = []

        class BreakingPool:
            """The first cell's worker dies at once; the broken pool then
            refuses every later submit, as ProcessPoolExecutor does."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                sizes.append(max_workers)
                self.broken = False

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, item):
                if self.broken:
                    raise BrokenProcessPool("pool is broken")
                self.broken = True
                future = concurrent.futures.Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", BreakingPool
        )
        cells = [SweepCell(row="fedavg", col=f"s{i}", seed_index=0, config=_quick_config())
                 for i in range(3)]
        outcomes = run_sweep(cells, workers=2)
        # Every cell the shared pool failed runs again in a one-worker pool
        # of its own, where its worker dies too.
        assert sizes == [2, 1, 1, 1]
        assert _errors(outcomes) == [(cell, "BrokenProcessPool: worker died") for cell in cells]

    def test_table_csv_layout(self):
        config = _quick_config(rounds=1)
        cells = [
            SweepCell(row=a, col=c, seed_index=0, config=config)
            for a in ("fedavg", "fedprox")
            for c in ("s1", "s2")
        ]
        outcomes = run_sweep(cells)
        lines = sweep_table(["fedavg", "fedprox"], ["s1", "s2"], outcomes).strip().split("\n")
        assert lines[0] == "algorithm,s1,s2"
        assert len(lines) == 3
        assert lines[1].startswith("fedavg,")

    def test_multi_seed_cells_average(self):
        cells = [
            SweepCell(row="fedavg", col="s", seed_index=i, config=_quick_config(rounds=2, seed=i))
            for i in range(2)
        ]
        outcomes = run_sweep(cells)
        individual = [run_experiment(_quick_config(rounds=2, seed=i)).best_accuracy for i in range(2)]
        assert [report.best_accuracy for _, report, _ in outcomes] == individual
        assert sweep_table(["fedavg"], ["s"], outcomes) == (
            f"algorithm,s\nfedavg,{np.mean(individual):.4f}\n"
        )

    def test_cell_with_one_failed_seed_of_two_reads_error(self):
        # No run: the outcomes are built by hand.
        cells = [SweepCell(row="fedavg", col=c, seed_index=i, config=None)
                 for c in ("a", "b") for i in range(2)]
        reports = [SimpleNamespace(best_accuracy=acc, best_personalized_mean=None)
                   for acc in (0.5, 0.25, 0.75)]
        outcomes = [
            (cells[0], reports[0], None),
            (cells[1], None, "ValueError: seed 1 failed"),
            (cells[2], reports[1], None),
            (cells[3], reports[2], None),
        ]
        assert sweep_table(["fedavg", "fedprox"], ["a", "b"], outcomes) == (
            "algorithm,a,b\nfedavg,ERROR,0.5000\nfedprox,ERROR,ERROR\n"
        )
