"""Distribution vectors, imbalance factors, and their algebraic identities."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltbench.datasets import ClientShard, Dataset, generate_synthetic
from fltbench.errors import EmptyPartitionError, EmptyShardError
from fltbench.lt_shaping import exponential_profile, shape_long_tailed
from fltbench.partition import PartitionSpec, partition_iid
from fltbench.stats import (
    global_distribution,
    imbalance_factor_from_counts,
    local_distribution,
    stats_from_counts,
)


def _dataset_with_counts(counts):
    labels = np.repeat(np.arange(len(counts)), counts)
    return Dataset(np.zeros((labels.size, 1)), labels, num_classes=len(counts))


def _shard_of(dataset, positions, client_id=0):
    return ClientShard(client_id, np.asarray(positions, dtype=np.int64))


class TestLocalDistribution:
    def test_simple_counts(self):
        ds = _dataset_with_counts([3, 1, 0, 0])
        stats = local_distribution(_shard_of(ds, range(4)), ds)
        assert stats.probs.tolist() == [0.75, 0.25, 0.0, 0.0]
        assert stats.total == 4

    def test_uniform(self):
        ds = _dataset_with_counts([2, 2, 2])
        stats = local_distribution(_shard_of(ds, range(6)), ds)
        np.testing.assert_allclose(stats.probs, 1 / 3)

    def test_empty_shard_rejected(self):
        ds = _dataset_with_counts([2, 2])
        with pytest.raises(EmptyShardError):
            local_distribution(_shard_of(ds, []), ds)

    def test_probs_sum_to_one(self):
        ds = _dataset_with_counts([5, 9, 2, 7])
        stats = local_distribution(_shard_of(ds, range(23)), ds)
        assert abs(stats.probs.sum() - 1.0) < 1e-12

    def test_iid_shards_track_global_longtail_profile(self, cifar_scale_ds):
        # Deviation band frozen from the seed-0 simulation at this scale:
        # observed max per-class deviation 0.068 with 40 clients of ~310
        # samples each, so 0.08 is asserted.
        lt = shape_long_tailed(cifar_scale_ds, exponential_profile(5000, 10, 100), seed=0)
        part = partition_iid(lt, PartitionSpec(kind="iid", num_clients=40, seed=0))
        g = global_distribution(part.shards, lt)
        max_dev = max(np.max(np.abs(s.probs - g.probs)) for s in part.client_stats)
        assert max_dev <= 0.08


class TestGlobalDistribution:
    def test_two_mirror_shards(self):
        ds = _dataset_with_counts([100, 100])
        order = np.argsort(ds.labels, kind="stable")
        class0, class1 = order[:100], order[100:]
        shard_a = ClientShard(0, np.concatenate([class0[:90], class1[:10]]))
        shard_b = ClientShard(1, np.concatenate([class0[90:], class1[10:]]))
        stats = global_distribution([shard_a, shard_b], ds)
        assert stats.counts.tolist() == [100, 100]
        assert stats.probs.tolist() == [0.5, 0.5]

    def test_single_shard_equals_local(self):
        ds = _dataset_with_counts([4, 6, 2])
        shard = _shard_of(ds, range(12))
        g = global_distribution([shard], ds)
        l = local_distribution(shard, ds)
        np.testing.assert_array_equal(g.counts, l.counts)
        np.testing.assert_array_equal(g.probs, l.probs)

    def test_all_empty_rejected(self):
        ds = _dataset_with_counts([2, 2])
        with pytest.raises(EmptyPartitionError):
            global_distribution([_shard_of(ds, [], 0), _shard_of(ds, [], 1)], ds)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_global_probs_equal_weighted_mean_of_locals(self, seed):
        rng = np.random.default_rng(seed)
        ds = generate_synthetic(4, 30, 2, 0.5, seed=7)
        cut_points = np.sort(rng.choice(np.arange(1, len(ds)), size=2, replace=False))
        perm = rng.permutation(len(ds))
        pieces = np.split(perm, cut_points)
        shards = [ClientShard(k, p) for k, p in enumerate(pieces) if p.size]
        g = global_distribution(shards, ds)
        locals_ = [local_distribution(s, ds) for s in shards]
        weighted = sum(s.total * s.probs for s in locals_) / sum(s.total for s in locals_)
        np.testing.assert_allclose(g.probs, weighted, atol=1e-12)

    def test_global_counts_are_exact_sums(self):
        ds = generate_synthetic(3, 20, 2, 0.5, seed=3)
        perm = np.random.default_rng(1).permutation(len(ds))
        shards = [ClientShard(k, perm[k::4]) for k in range(4)]
        g = global_distribution(shards, ds)
        summed = sum(local_distribution(s, ds).counts for s in shards)
        np.testing.assert_array_equal(g.counts, summed)


class TestImbalanceFactor:
    def test_basic(self):
        assert imbalance_factor_from_counts(np.array([100, 50, 10])) == 10.0

    def test_balanced(self):
        assert imbalance_factor_from_counts(np.array([7, 7, 7])) == 1.0

    def test_zero_count_class_excluded_from_min(self):
        stats = stats_from_counts(np.array([100, 0, 10]))
        assert stats.imbalance_factor == 10.0
        assert stats.empty_classes == 1

    def test_local_if_from_stats(self):
        stats = stats_from_counts(np.array([12, 3]))
        assert stats.imbalance_factor == 4.0

    def test_global_if_of_shaped_dataset(self, cifar_scale_ds):
        lt = shape_long_tailed(cifar_scale_ds, exponential_profile(5000, 10, 50), seed=1)
        shard = ClientShard(0, np.arange(len(lt)))
        measured = global_distribution([shard], lt).imbalance_factor
        assert abs(measured - 50.0) <= 0.02 * 50.0

    def test_balanced_dataset_gives_one(self, balanced_ds):
        shard = ClientShard(0, np.arange(len(balanced_ds)))
        assert global_distribution([shard], balanced_ds).imbalance_factor == 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=8).filter(
            lambda c: sum(c) > 0
        ),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, counts, factor):
        counts = np.asarray(counts)
        base = imbalance_factor_from_counts(counts)
        assert imbalance_factor_from_counts(counts * factor) == pytest.approx(base)

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
        permuted = counts[perm]
        stats, permuted_stats = stats_from_counts(counts), stats_from_counts(permuted)
        assert stats.imbalance_factor == permuted_stats.imbalance_factor
        np.testing.assert_array_equal(stats.probs[perm], permuted_stats.probs)


class TestSerialization:
    def test_json_fields(self):
        stats = stats_from_counts(np.array([4, 0, 2]))
        doc = json.loads(json.dumps(stats.to_json_dict()))
        assert doc["counts"] == [4, 0, 2]
        assert doc["total"] == 6
        assert doc["imbalance_factor"] == 2.0
        assert doc["empty_classes"] == 1
        assert abs(sum(doc["probs"]) - 1.0) < 1e-12

    def test_entropy_of_uniform(self):
        stats = stats_from_counts(np.array([5, 5, 5, 5]))
        assert stats.entropy == pytest.approx(np.log(4))
