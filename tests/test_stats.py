"""Distribution vectors, imbalance factors, and their algebraic identities.

A client's local distribution is its row of the partition's count matrix
divided by its size; the global distribution is the column sums divided by
their total. The tests take frequencies from the report's matrix.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltbench.datasets import Dataset, generate_synthetic, shape_long_tailed
from fltbench.errors import ConfigError
from fltbench.partition import (
    PartitionSpec,
    build_partition,
    check_supply,
    imbalance_factor,
    partition_report,
)


def _dataset_with_counts(counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    return Dataset(np.zeros((labels.size, 1)), labels, num_classes=len(counts))


def _one_client_report(dataset):
    """Report of the partition that gives the whole dataset to one client."""
    spec = PartitionSpec(kind="iid", num_clients=1, min_shard_size=1)
    return partition_report(build_partition(dataset, spec, 0))


class TestLocalDistribution:
    def test_simple_counts(self):
        report = _one_client_report(_dataset_with_counts([3, 1, 0, 0]))
        assert (report.matrix[0] / report.client_sizes[0]).tolist() == [0.75, 0.25, 0.0, 0.0]
        assert report.client_sizes[0] == 4

    def test_uniform(self):
        report = _one_client_report(_dataset_with_counts([2, 2, 2]))
        np.testing.assert_allclose(report.matrix[0] / report.client_sizes[0], 1 / 3)

    def test_empty_shard_rejected(self):
        # A partition never holds an empty client: every client needs at
        # least one sample.
        with pytest.raises(ValueError):
            PartitionSpec(kind="iid", num_clients=2, min_shard_size=0)

    def test_probs_sum_to_one(self):
        report = _one_client_report(_dataset_with_counts([5, 9, 2, 7]))
        assert abs((report.matrix[0] / report.client_sizes[0]).sum() - 1.0) < 1e-12

    def test_iid_shards_track_global_longtail_profile(self, cifar_scale_ds):
        # Deviation band frozen from the seed-0 simulation at this scale:
        # observed max per-class deviation 0.068 with 40 clients of ~310
        # samples each, so 0.08 is asserted.
        lt = shape_long_tailed(cifar_scale_ds, 100, seed=0)
        report = partition_report(
            build_partition(lt, PartitionSpec(kind="iid", num_clients=40), 0)
        )
        local_probs = report.matrix / report.client_sizes[:, None]
        global_probs = report.global_counts / report.global_size
        assert np.max(np.abs(local_probs - global_probs)) <= 0.08


class TestGlobalDistribution:
    def test_two_mirror_shards(self):
        ds = _dataset_with_counts([100, 100])
        spec = PartitionSpec(kind="rotated_lt", num_clients=2, local_if=9.0)
        report = partition_report(build_partition(ds, spec, 0))
        assert report.matrix.tolist() == [[90, 10], [10, 90]]
        assert report.global_counts.tolist() == [100, 100]
        assert (report.global_counts / report.global_size).tolist() == [0.5, 0.5]

    def test_single_shard_equals_local(self):
        report = _one_client_report(_dataset_with_counts([4, 6, 2]))
        np.testing.assert_array_equal(report.global_counts, report.matrix[0])
        assert report.global_size == report.client_sizes[0]
        assert report.global_if == report.client_if[0]

    def test_all_empty_rejected(self):
        # No partition is drawn from a collection without samples.
        spec = PartitionSpec(kind="iid", num_clients=2, min_shard_size=1)
        with pytest.raises(ConfigError, match="^0 samples cannot give 2 clients at least 1 each$"):
            check_supply(spec, np.zeros(3, dtype=np.int64))

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_global_probs_equal_weighted_mean_of_locals(self, seed):
        ds = generate_synthetic(4, 30, 2, 0.5, seed=7)
        spec = PartitionSpec(kind="dirichlet", num_clients=3, alpha=0.5, min_shard_size=1)
        report = partition_report(build_partition(ds, spec, seed))
        local_probs = report.matrix / report.client_sizes[:, None]
        weighted = (report.client_sizes[:, None] * local_probs).sum(axis=0)
        weighted /= report.client_sizes.sum()
        np.testing.assert_allclose(report.global_counts / report.global_size, weighted,
                                   atol=1e-12)

    def test_global_counts_are_exact_sums(self):
        ds = generate_synthetic(3, 20, 2, 0.5, seed=3)
        part = build_partition(ds, PartitionSpec(kind="iid", num_clients=4, min_shard_size=1), 1)
        summed = sum(np.bincount(ds.labels[s], minlength=3) for s in part.shards)
        np.testing.assert_array_equal(partition_report(part).global_counts, summed)


class TestImbalanceFactor:
    def test_basic(self):
        assert imbalance_factor(np.array([100, 50, 10])) == 10.0

    def test_balanced(self):
        assert imbalance_factor(np.array([7, 7, 7])) == 1.0

    def test_zero_count_class_excluded_from_min(self):
        assert imbalance_factor(np.array([100, 0, 10])) == 10.0

    def test_local_if_from_stats(self):
        assert imbalance_factor(np.array([12, 3])) == 4.0

    def test_rows_of_a_matrix(self):
        counts = np.array([[100, 0, 10], [7, 7, 7], [12, 3, 0]])
        assert imbalance_factor(counts).tolist() == [10.0, 1.0, 4.0]

    def test_global_if_of_shaped_dataset(self, cifar_scale_ds):
        lt = shape_long_tailed(cifar_scale_ds, 50, seed=1)
        measured = _one_client_report(lt).global_if
        assert abs(measured - 50.0) <= 0.02 * 50.0

    def test_balanced_dataset_gives_one(self, balanced_ds):
        assert _one_client_report(balanced_ds).global_if == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=8).filter(
            lambda c: sum(c) > 0
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, counts, factor):
        counts = np.asarray(counts)
        base = imbalance_factor(counts)
        assert imbalance_factor(counts * factor) == pytest.approx(base)

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=8).filter(
            lambda c: sum(c) > 0
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_equivariance(self, counts, rand):
        counts = np.asarray(counts)
        perm = list(range(len(counts)))
        rand.shuffle(perm)
        assert imbalance_factor(counts) == imbalance_factor(counts[perm])


class TestSerialization:
    def test_json_fields(self):
        # An empty class shows as a zero column and stays out of the IF minimum.
        report = _one_client_report(_dataset_with_counts([4, 0, 2]))
        doc = json.loads(report.to_json())
        assert doc["matrix"] == [[4, 0, 2]]
        assert doc["global_counts"] == [4, 0, 2]
        assert doc["global_size"] == 6
        assert doc["global_if"] == 2.0
        assert doc["client_if"] == [2.0]
