"""Dataset construction, CIFAR binary parsing, synthetic generation, holdouts."""
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fltbench.config import DataConfig
from fltbench.datasets import (
    CIFAR_RECORD_BYTES,
    CIFAR_TEST_FILE,
    CIFAR_TRAIN_FILES,
    Dataset,
    class_counts,
    generate_synthetic,
    load_cifar10,
    stratified_split_indices,
    subset,
    synthetic_class_means,
)
from fltbench.errors import ConfigError
from fltbench.nn import ModelConfig, TrainConfig, evaluate, init_model, sgd_epochs
from fltbench.seeding import rng_from


def _make_cifar_file(path: Path, labels, seed=0) -> bytes:
    rng = np.random.default_rng(seed)
    records = np.empty((len(labels), CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = rng.integers(0, 256, size=(len(labels), 3072), dtype=np.uint8)
    blob = records.tobytes()
    path.write_bytes(blob)
    return blob


def _make_cifar_dir(root: Path, labels_per_file, seed=0) -> list[np.ndarray]:
    """Write the five train batches and the test batch into root, file i
    holding labels_per_file[i]; returns each file's (n, 3073) records."""
    names = [*CIFAR_TRAIN_FILES, CIFAR_TEST_FILE]
    return [
        np.frombuffer(_make_cifar_file(root / name, labels, seed=seed + i), dtype=np.uint8)
        .reshape(-1, CIFAR_RECORD_BYTES)
        for i, (name, labels) in enumerate(zip(names, labels_per_file, strict=True))
    ]


def _standardized_reference(train_pixels, pixels):
    """pixels (n, 3072) uint8 standardized step by step: one float64 copy,
    scaled to [0, 1], then standardized per channel plane in place with
    train_pixels' statistics, taken from a float64 copy scaled the same."""
    def scaled(p):
        planes = p.astype(np.float64).reshape(-1, 3, 1024)
        planes /= 255.0
        return planes
    train_planes, planes = scaled(train_pixels), scaled(pixels)
    planes -= train_planes.mean(axis=(0, 2))[None, :, None]
    planes /= np.maximum(train_planes.std(axis=(0, 2)), 1e-8)[None, :, None]
    return planes.reshape(-1, 3072)


class TestCifarLoader:
    def test_balanced_batches_give_balanced_counts(self, tmp_path):
        _make_cifar_dir(tmp_path, [list(range(10)) * 4] * 5 + [list(range(10)) * 2])
        train, test = load_cifar10(tmp_path)
        assert len(train) == 200 and len(test) == 20
        assert class_counts(train.labels, train.num_classes).tolist() == [20] * 10
        assert train.num_classes == 10

    def test_train_features_are_bit_equal_to_standardizing_a_fresh_copy(self, tmp_path):
        # Both sets are standardized in place, each in its own float64 copy,
        # with the statistics of the train set; the reference standardizes
        # fresh copies the same way and must give the same bytes.
        records = _make_cifar_dir(tmp_path, [list(range(10)) * 3] * 5 + [list(range(10))])
        train, test = load_cifar10(tmp_path)
        train_pixels = np.concatenate([r[:, 1:] for r in records[:5]])
        expected_train = _standardized_reference(train_pixels, train_pixels)
        expected_test = _standardized_reference(train_pixels, records[5][:, 1:])
        assert train.features.tobytes() == expected_train.tobytes()
        assert test.features.tobytes() == expected_test.tobytes()

    def test_single_record_label_three(self, tmp_path):
        _make_cifar_dir(tmp_path, [[3]] * 6)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 5 and len(test) == 1
        assert class_counts(train.labels, train.num_classes).tolist()[3] == 5

    def test_truncated_file_is_malformed(self, tmp_path):
        _make_cifar_dir(tmp_path, [[1, 2]] * 6)
        p = tmp_path / "data_batch_3.bin"
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ConfigError,
                           match="data_batch_3.bin: size 6145 is not a positive multiple of 3073$"):
            load_cifar10(tmp_path)

    def test_label_byte_out_of_range_is_corrupt(self, tmp_path):
        _make_cifar_dir(tmp_path, [[1]] * 6)
        p = tmp_path / "test_batch.bin"
        blob = bytearray(p.read_bytes())
        blob[0] = 10
        p.write_bytes(bytes(blob))
        with pytest.raises(ConfigError, match="test_batch.bin: record 0 has label byte 10 >= 10$"):
            load_cifar10(tmp_path)

    def test_train_statistics_standardize_train_set(self, tmp_path):
        _make_cifar_dir(tmp_path, [list(range(10)) * 4] * 6, seed=3)
        train, _ = load_cifar10(tmp_path)
        planes = train.features.reshape(-1, 3, 1024)
        np.testing.assert_allclose(planes.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(planes.std(axis=(0, 2)), 1.0, atol=1e-9)

    def test_records_parse_in_file_order(self, tmp_path):
        # Oracle: each record's label byte, and its pixel bytes scaled to
        # [0, 1] and standardized per channel plane with the statistics of
        # the five train files, row for row: the train files in
        # CIFAR_TRAIN_FILES order, then the test file.
        records = _make_cifar_dir(tmp_path, [[4, 0], [9], [9, 2, 2], [1], [8, 5], [7, 3]], seed=7)
        train, test = load_cifar10(tmp_path)
        train_records = np.concatenate(records[:5])
        planes = train_records[:, 1:].reshape(-1, 3, 1024) / 255.0
        mean = planes.mean(axis=(0, 2))[None, :, None]
        std = planes.std(axis=(0, 2))[None, :, None]
        for ds, recs in ((train, train_records), (test, records[5])):
            expected = ((recs[:, 1:].reshape(-1, 3, 1024) / 255.0 - mean) / std).reshape(-1, 3072)
            assert ds.labels.tolist() == recs[:, 0].tolist()
            np.testing.assert_allclose(ds.features, expected, rtol=0, atol=1e-12)

    @pytest.mark.skipif(
        not os.environ.get("FLTB_DATA_DIR"), reason="real CIFAR-10 data not configured"
    )
    def test_real_cifar10_is_balanced(self):
        train, test = load_cifar10(os.environ["FLTB_DATA_DIR"])
        assert len(train) == 50000 and len(test) == 10000
        assert class_counts(train.labels, train.num_classes).tolist() == [5000] * 10


def _per_class_loop(num_classes, per_class, dim, cluster_spread, seed):
    """The generator's features and labels as drawn one class at a time: a
    (per_class, dim) noise block a class, scaled, added to its mean."""
    means = synthetic_class_means(num_classes, dim, cluster_spread)
    rng = rng_from(seed)
    feats = np.empty((num_classes * per_class, dim), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        noise = rng.standard_normal((per_class, dim)) * cluster_spread
        feats[lo : lo + per_class] = means[c] + noise
        labels[lo : lo + per_class] = c
    return feats, labels


class TestSynthetic:
    def test_counts_bookkeeping(self):
        ds = generate_synthetic(2, 3, 2, 0.1, seed=7)
        assert len(ds) == 6
        assert class_counts(ds.labels, ds.num_classes).tolist() == [3, 3]

    def test_bit_reproducible(self):
        a = generate_synthetic(2, 3, 2, 0.1, seed=7)
        b = generate_synthetic(2, 3, 2, 0.1, seed=7)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    @pytest.mark.parametrize("num_classes, per_class, dim, spread, seed", [
        (2, 3, 2, 0.1, 7), (10, 500, 32, 0.5, 1), (40, 25, 3, 1.0, 2),
        (3, 1, 4, 2.0, 3), (5, 7, 1, 0.3, 4), (40, 1, 1, 1.0, -5),
    ])
    def test_bit_equal_to_the_per_class_loop(self, num_classes, per_class, dim, spread, seed):
        ds = generate_synthetic(num_classes, per_class, dim, spread, seed=seed)
        feats, labels = _per_class_loop(num_classes, per_class, dim, spread, seed)
        assert ds.features.tobytes() == feats.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    def test_overflowing_features_are_a_config_error(self):
        # check_synthetic refuses the spread before anything is drawn, so
        # numpy never overflows and warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^cluster_spread 1e\\+308 overflows the features$"):
                generate_synthetic(3, 4, 2, 1e308, seed=0)

    def test_largest_spread_the_config_accepts_gives_finite_features(self):
        # 10 classes on 4 axes reach ring 3, so DataConfig keeps 4 * 3 + 64
        # spreads of room: the means' 12 and the noise's margin of 64.
        spread = sys.float_info.max / 76
        while math.isinf(spread * 76):
            spread = math.nextafter(spread, 0.0)
        DataConfig(source="synthetic", num_classes=10, per_class=50, dim=4, cluster_spread=spread)
        with pytest.raises(ValueError, match="cluster_spread .* overflows the features"):
            DataConfig(source="synthetic", num_classes=10, per_class=50, dim=4,
                       cluster_spread=math.nextafter(spread, math.inf))
        assert np.isfinite(generate_synthetic(10, 50, 4, spread, seed=0).features).all()

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
        tc = TrainConfig(learning_rate=0.5, batch_size=64, local_epochs=30)
        params = sgd_epochs(init_model(cfg), cfg, tc, train.features, train.labels, rng_from(7))
        assert evaluate(params, cfg, test, {}).accuracy >= 0.95

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
        assert class_counts(ds.labels, ds.num_classes).sum() == len(ds)

    def test_absent_classes_count_zero(self):
        counts = class_counts(np.array([2, 0, 2]), 4)
        assert counts.dtype == np.int64 and counts.tolist() == [1, 0, 2, 0]


class TestSubset:
    def test_rows_are_copied_and_share_no_memory_with_the_source(self):
        ds = generate_synthetic(3, 10, 2, 0.5, seed=0)
        idx = np.array([4, 0, 29, 4])
        sub = subset(ds, idx)
        np.testing.assert_array_equal(sub.features, ds.features[idx])
        np.testing.assert_array_equal(sub.labels, ds.labels[idx])
        assert not np.shares_memory(sub.features, ds.features)
        assert not np.shares_memory(sub.labels, ds.labels)
        assert not sub.features.flags.writeable and not sub.labels.flags.writeable


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


def _split_reference(labels, num_classes, fraction, rng):
    """The per-class loop of stratified_split_indices before it dealt through
    deal_by_class, kept as the reference its draws must equal bit for bit. A
    single-sample class is never shuffled here."""
    train_parts, hold_parts = [], []
    for c in range(num_classes):
        pos = np.nonzero(labels == c)[0]
        if pos.size == 0:
            continue
        if pos.size == 1:
            train_parts.append(pos)
            continue
        take = min(max(1, math.floor(pos.size * fraction)), pos.size - 1)
        perm = rng.permutation(pos)
        hold_parts.append(perm[:take])
        train_parts.append(perm[take:])
    train = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, np.int64)
    hold = np.sort(np.concatenate(hold_parts)) if hold_parts else np.empty(0, np.int64)
    return train.astype(np.int64), hold.astype(np.int64)


class TestStratifiedHoldout:
    def test_equals_the_per_class_loop(self):
        # Class sizes 0 (absent) and 1 (one sample) among larger ones; the
        # generators must also end in the same state.
        draw = np.random.default_rng(26)
        for seed in range(400):
            m = int(draw.integers(2, 8))
            sizes = draw.choice([0, 1, 1, 2, 3, 5, 13], size=m)
            labels = draw.permutation(np.repeat(np.arange(m), sizes))
            fraction = float(draw.uniform(0.01, 0.99))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stratified_split_indices(labels, m, fraction, got_rng)
            want = _split_reference(labels, m, fraction, want_rng)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, w)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_labels_give_two_empty_int64_arrays(self):
        train, hold = stratified_split_indices(
            np.empty(0, np.int64), 3, 0.2, np.random.default_rng(0)
        )
        assert train.dtype == hold.dtype == np.int64
        assert train.size == hold.size == 0

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
