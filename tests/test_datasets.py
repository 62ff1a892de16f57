"""Dataset construction, CIFAR binary parsing, synthetic generation, holdouts."""
import os
from pathlib import Path

import numpy as np
import pytest

from fltbench.datasets import (
    CIFAR_RECORD_BYTES,
    Dataset,
    _standardize,
    class_counts,
    generate_synthetic,
    load_cifar10,
    stratified_split_indices,
)
from fltbench.errors import ConfigError
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

    def test_train_features_are_bit_equal_to_standardizing_a_fresh_copy(self, tmp_path):
        # The train set is standardized in place in the float64 copy its
        # statistics come from; a separate pass over a fresh copy, as the
        # test set gets, must give the same bytes.
        paths = [tmp_path / f"data_batch_{i + 1}.bin" for i in range(2)]
        for i, p in enumerate(paths):
            _make_cifar_file(p, list(range(10)) * 3, seed=i)
        train, _ = load_cifar10(paths, paths[0])
        pixels = np.concatenate([np.frombuffer(p.read_bytes(), dtype=np.uint8)
                                 .reshape(-1, CIFAR_RECORD_BYTES)[:, 1:] for p in paths])
        planes = pixels.astype(np.float64).reshape(-1, 3, 1024) / 255.0
        mean, std = planes.mean(axis=(0, 2)), np.maximum(planes.std(axis=(0, 2)), 1e-8)
        expected = _standardize(pixels, mean, std)
        assert train.features.tobytes() == expected.tobytes()

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
        with pytest.raises(ConfigError, match="size 6145 is not a positive multiple of 3073$"):
            load_cifar10([p], p)

    def test_label_byte_out_of_range_is_corrupt(self, tmp_path):
        p = tmp_path / "bad.bin"
        blob = bytearray(_make_cifar_file(p, [1]))
        blob[0] = 10
        p.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="record 0 has label byte 10 >= 10$"):
            load_cifar10([p], p)

    def test_train_statistics_standardize_train_set(self, tmp_path):
        p = tmp_path / "t.bin"
        _make_cifar_file(p, list(range(10)) * 20, seed=3)
        train, _ = load_cifar10([p], p)
        planes = train.features.reshape(-1, 3, 1024)
        np.testing.assert_allclose(planes.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(planes.std(axis=(0, 2)), 1.0, atol=1e-9)

    def test_records_parse_in_file_order(self, tmp_path):
        # Oracle: each record's label byte, and its pixel bytes scaled to
        # [0, 1] and standardized per channel plane with the file's own
        # statistics, row for row.
        p = tmp_path / "orig.bin"
        blob = _make_cifar_file(p, [4, 0, 9, 9, 2], seed=7)
        train, test = load_cifar10([p], p)
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        planes = records[:, 1:].reshape(-1, 3, 1024) / 255.0
        mean = planes.mean(axis=(0, 2))[None, :, None]
        std = planes.std(axis=(0, 2))[None, :, None]
        expected = ((planes - mean) / std).reshape(-1, 3072)
        for ds in (train, test):
            assert ds.labels.tolist() == records[:, 0].tolist()
            np.testing.assert_allclose(ds.features, expected, rtol=0, atol=1e-12)

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
    def test_counts_sum_to_size(self):
        ds = generate_synthetic(4, 11, 2, 0.3, seed=5)
        assert class_counts(ds).sum() == len(ds)


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

    def test_features_are_immutable(self):
        ds = generate_synthetic(2, 2, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


def _split(labels, fraction, seed):
    """(train, holdout) positions of a stratified split of the labels."""
    labels = np.asarray(labels)
    return stratified_split_indices(
        labels, int(labels.max()) + 1, fraction, np.random.default_rng(seed)
    )


class TestStratifiedHoldout:
    def test_fraction_point_two(self):
        labels = np.repeat([0, 1], 10)
        train, hold = _split(labels, 0.2, seed=1)
        assert np.bincount(labels[hold]).tolist() == [2, 2]
        assert np.bincount(labels[train]).tolist() == [8, 8]

    def test_floor_rule_keeps_one_in_train(self):
        labels = np.repeat([0, 1], 10)
        train, hold = _split(labels, 0.999, seed=1)
        assert np.bincount(labels[train]).min() >= 1
        assert np.bincount(labels[hold]).tolist() == [9, 9]

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 12)
        a_train, a_hold = _split(labels, 0.25, seed=9)
        b_train, b_hold = _split(labels, 0.25, seed=9)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_hold, b_hold)

    def test_single_sample_class_stays_in_train(self):
        labels = np.array([0, 0, 1])
        train, hold = _split(labels, 0.5, seed=0)
        assert 2 in train.tolist() and 2 not in hold.tolist()
        assert np.bincount(labels[train], minlength=2).tolist() == [1, 1]
        assert np.bincount(labels[hold], minlength=2).tolist() == [1, 0]

    def test_fraction_bounds(self):
        labels = np.repeat([0, 1], 4)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                _split(labels, bad, seed=0)
