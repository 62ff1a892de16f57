"""Dataset construction, CIFAR binary IO, synthetic generation, holdouts."""
import os
from pathlib import Path

import numpy as np
import pytest

from fltbench.datasets import (
    CIFAR_RECORD_BYTES,
    ClientShard,
    Dataset,
    class_counts,
    generate_synthetic,
    load_cifar10,
    read_record_file,
    stratified_holdout,
    subset,
    write_cifar_batch,
    write_record_file,
)
from fltbench.errors import (
    CorruptRecordError,
    DegenerateClassError,
    MalformedFileError,
)
from fltbench.nn import ModelConfig, TrainConfig, evaluate, init_model, sgd_epochs


def _make_cifar_file(path: Path, labels, seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    records = np.empty((len(labels), CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = rng.integers(0, 256, size=(len(labels), 3072), dtype=np.uint8)
    blob = records.tobytes()
    path.write_bytes(blob)
    return blob


class TestCifarLoader:
    def test_balanced_batches_give_balanced_counts(self, tmp_path):
        paths = []
        for i in range(5):
            p = tmp_path / f"data_batch_{i + 1}.bin"
            _make_cifar_file(p, list(range(10)) * 4, seed=i)
            paths.append(p)
        test_p = tmp_path / "test_batch.bin"
        _make_cifar_file(test_p, list(range(10)) * 2, seed=99)
        train, test = load_cifar10(paths, test_p)
        assert len(train) == 200 and len(test) == 20
        assert class_counts(train).tolist() == [20] * 10
        assert train.num_classes == 10

    def test_single_record_label_three(self, tmp_path):
        p = tmp_path / "one.bin"
        _make_cifar_file(p, [3])
        train, _ = load_cifar10([p], p)
        assert len(train) == 1
        assert class_counts(train).tolist()[3] == 1

    def test_empty_file_list_rejected(self, tmp_path):
        p = tmp_path / "t.bin"
        _make_cifar_file(p, [0])
        with pytest.raises(ValueError):
            load_cifar10([], p)

    def test_truncated_file_is_malformed(self, tmp_path):
        p = tmp_path / "bad.bin"
        blob = _make_cifar_file(p, [1, 2])
        p.write_bytes(blob[:-1])
        with pytest.raises(MalformedFileError):
            load_cifar10([p], p)

    def test_label_byte_out_of_range_is_corrupt(self, tmp_path):
        p = tmp_path / "bad.bin"
        blob = bytearray(_make_cifar_file(p, [1]))
        blob[0] = 10
        p.write_bytes(bytes(blob))
        with pytest.raises(CorruptRecordError):
            load_cifar10([p], p)

    def test_train_statistics_standardize_train_set(self, tmp_path):
        p = tmp_path / "t.bin"
        _make_cifar_file(p, list(range(10)) * 20, seed=3)
        train, _ = load_cifar10([p], p)
        planes = train.features.reshape(-1, 3, 1024)
        np.testing.assert_allclose(planes.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(planes.std(axis=(0, 2)), 1.0, atol=1e-9)

    def test_round_trip_preserves_bytes(self, tmp_path):
        p = tmp_path / "orig.bin"
        blob = _make_cifar_file(p, [4, 0, 9, 9], seed=7)
        train, _ = load_cifar10([p], p)
        out = tmp_path / "back.bin"
        write_cifar_batch(out, train)
        assert out.read_bytes() == blob

    def test_round_trip_of_subset(self, tmp_path):
        p = tmp_path / "orig.bin"
        _make_cifar_file(p, [4, 0, 9, 9], seed=7)
        train, _ = load_cifar10([p], p)
        sub = subset(train, [1, 2])
        out = tmp_path / "sub.bin"
        write_cifar_batch(out, sub)
        reloaded, _ = load_cifar10([out], out)
        assert reloaded.labels.tolist() == [0, 9]
        np.testing.assert_array_equal(reloaded.raw_pixels, train.raw_pixels[[1, 2]])

    @pytest.mark.skipif(
        not os.environ.get("FLTB_DATA_DIR"), reason="real CIFAR-10 data not configured"
    )
    def test_real_cifar10_is_balanced(self):
        root = Path(os.environ["FLTB_DATA_DIR"])
        paths = [root / f"data_batch_{i}.bin" for i in range(1, 6)]
        train, test = load_cifar10(paths, root / "test_batch.bin")
        assert len(train) == 50000 and len(test) == 10000
        assert class_counts(train).tolist() == [5000] * 10


class TestSynthetic:
    def test_counts_bookkeeping(self):
        ds = generate_synthetic(2, 3, 2, 0.1, seed=7)
        assert len(ds) == 6
        assert class_counts(ds).tolist() == [3, 3]

    def test_bit_reproducible(self):
        a = generate_synthetic(2, 3, 2, 0.1, seed=7)
        b = generate_synthetic(2, 3, 2, 0.1, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seed_differs(self):
        a = generate_synthetic(2, 3, 2, 0.1, seed=7)
        b = generate_synthetic(2, 3, 2, 0.1, seed=8)
        assert a.features.tobytes() != b.features.tobytes()

    def test_centrally_trained_linear_model_separates(self):
        # Oracle: classes are separable by construction, so a linear model
        # trained centrally must clear 95% on held-out data.
        train = generate_synthetic(10, 500, 32, 0.5, seed=1)
        test = generate_synthetic(10, 100, 32, 0.5, seed=2)
        cfg = ModelConfig(arch="linear_softmax", input_dim=32, num_classes=10, init_seed=0)
        tc = TrainConfig(learning_rate=0.5, batch_size=64, local_epochs=30, shuffle_seed=7)
        params = sgd_epochs(init_model(cfg), cfg, tc, train.features, train.labels)
        assert evaluate(params, cfg, test).accuracy >= 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_classes": 1},
            {"per_class": 0},
            {"dim": 0},
            {"cluster_spread": 0.0},
        ],
    )
    def test_precondition_violations(self, kwargs):
        args = {"num_classes": 3, "per_class": 2, "dim": 2, "cluster_spread": 0.5, "seed": 0}
        args.update(kwargs)
        with pytest.raises(ValueError):
            generate_synthetic(**args)


class TestClassCounts:
    def test_shard_counts(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), num_classes=3)
        shard = ClientShard(0, np.array([0, 1, 2]))
        assert class_counts(shard, ds).tolist() == [2, 1, 0]

    def test_empty_shard(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), num_classes=3)
        shard = ClientShard(0, np.array([], dtype=np.int64))
        assert class_counts(shard, ds).tolist() == [0, 0, 0]

    def test_counts_sum_to_size(self):
        ds = generate_synthetic(4, 11, 2, 0.3, seed=5)
        assert class_counts(ds).sum() == len(ds)

    def test_shard_without_dataset_rejected(self):
        with pytest.raises(ValueError):
            class_counts(ClientShard(0, np.array([0])))


class TestDatasetInvariants:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([0, 5]), num_classes=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats = np.zeros((3, 2))
        feats[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            Dataset(feats, np.array([0, 1, 0]), num_classes=2)

    def test_duplicate_shard_indices(self):
        with pytest.raises(ValueError):
            ClientShard(0, np.array([1, 1, 2]))

    def test_features_are_immutable(self):
        ds = generate_synthetic(2, 2, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestStratifiedHoldout:
    def test_fraction_point_two(self):
        ds = generate_synthetic(2, 10, 2, 0.5, seed=0)
        train, hold = stratified_holdout(ds, 0.2, seed=1)
        assert class_counts(hold).tolist() == [2, 2]
        assert class_counts(train).tolist() == [8, 8]

    def test_floor_rule_keeps_one_in_train(self):
        ds = generate_synthetic(2, 10, 2, 0.5, seed=0)
        train, hold = stratified_holdout(ds, 0.999, seed=1)
        assert class_counts(train).min() >= 1
        assert class_counts(hold).tolist() == [9, 9]

    def test_deterministic(self):
        ds = generate_synthetic(3, 12, 2, 0.5, seed=0)
        a_train, a_hold = stratified_holdout(ds, 0.25, seed=9)
        b_train, b_hold = stratified_holdout(ds, 0.25, seed=9)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)
        np.testing.assert_array_equal(a_hold.features, b_hold.features)

    def test_single_sample_class_is_degenerate(self):
        ds = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), num_classes=2)
        with pytest.raises(DegenerateClassError):
            stratified_holdout(ds, 0.5, seed=0)

    def test_fraction_bounds(self):
        ds = generate_synthetic(2, 4, 2, 0.5, seed=0)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                stratified_holdout(ds, bad, seed=0)


class TestRecordFile:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(3, 4, 5, 0.5, seed=2)
        path = tmp_path / "ds.fltds"
        write_record_file(path, ds)
        back = read_record_file(path)
        assert back.num_classes == 3
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(
            back.features, ds.features.astype(np.float32).astype(np.float64)
        )

    def test_rewrite_is_stable(self, tmp_path):
        ds = generate_synthetic(3, 4, 5, 0.5, seed=2)
        first = tmp_path / "a.fltds"
        second = tmp_path / "b.fltds"
        write_record_file(first, ds)
        write_record_file(second, read_record_file(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fltds"
        path.write_bytes(b"NOTADS" + b"\x00" * 32)
        with pytest.raises(MalformedFileError):
            read_record_file(path)

    def test_truncated_body(self, tmp_path):
        ds = generate_synthetic(2, 3, 4, 0.5, seed=1)
        path = tmp_path / "t.fltds"
        write_record_file(path, ds)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(MalformedFileError):
            read_record_file(path)
