"""Exponential profiles, long-tail subsampling, and the rotations rotated_lt makes."""
import re

import numpy as np
import pytest

from fltbench.datasets import (
    Dataset,
    class_counts,
    exponential_profile,
    generate_synthetic,
    shape_long_tailed,
)
from fltbench.errors import ConfigError
from fltbench.partition import PartitionSpec, build_partition
from fltbench.seeding import rng_from

# Oracle values: floor(5000 * 10^(-j/9)) per class, tail forced to 5000/10.
PROFILE_5000_10_IF10 = [5000, 3871, 2997, 2320, 1796, 1391, 1077, 834, 645, 500]


class TestExponentialProfile:
    def test_if_one_is_flat(self):
        assert exponential_profile(5000, 10, 1.0).tolist() == [5000] * 10

    def test_if_100_endpoints(self):
        profile = exponential_profile(5000, 10, 100.0)
        assert profile[0] == 5000
        assert profile[-1] == 50

    def test_if_10_full_vector(self):
        profile = exponential_profile(5000, 10, 10.0)
        assert profile.tolist() == PROFILE_5000_10_IF10
        assert profile.dtype == np.int64 and not profile.flags.writeable

    def test_monotone_in_target(self):
        tails = []
        for target in (2.0, 5.0, 10.0, 50.0):
            profile = exponential_profile(5000, 10, target)
            assert profile[0] == 5000
            tails.append(int(profile[-1]))
        assert tails == sorted(tails, reverse=True)
        assert len(set(tails)) == len(tails)

    def test_counts_non_increasing(self):
        for target in (1.0, 3.0, 17.5, 80.0):
            profile = exponential_profile(2000, 7, target)
            assert (np.diff(profile) <= 0).all()

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            exponential_profile(5000, 1, 10.0)
        with pytest.raises(ValueError):
            exponential_profile(5000, 10, 0.5)
        with pytest.raises(ConfigError, match="^the smallest class has 50 samples, below "
                                              "lt_target_if 100: the tail class"):
            exponential_profile(50, 10, 100.0)

    def test_unrealizable_ratio_is_too_steep(self):
        # round(10 / 1.05) = 10 collides with the head; integer resolution
        # cannot express a 5% tilt over 10 samples.
        with pytest.raises(ConfigError, match=(
            "^lt_target_if 1.05 cannot be realized from 10 samples per class: "
            "profile counts must be non-increasing by class$"
        )):
            exponential_profile(10, 10, 1.05)


class TestRotate:
    """Profiles are rotated by the rotated_lt partition: client k holds
    profile[(c - k) mod M] samples of class c."""

    @staticmethod
    def _rotated_rows(profile, local_if):
        """The count matrix of M clients whose per-client budget is exactly
        the profile's total, so each client holds one rotation of it."""
        m = profile.shape[0]
        dataset = generate_synthetic(m, int(profile.sum()), 2, 0.5, seed=0)
        spec = PartitionSpec(kind="rotated_lt", num_clients=m, local_if=local_if)
        return build_partition(dataset, spec, 0).counts

    def test_offset_zero_is_identity(self):
        profile = exponential_profile(100, 4, 2.0)
        rows = self._rotated_rows(profile, 2.0)
        np.testing.assert_array_equal(rows[0], profile)

    def test_offset_moves_head(self):
        profile = exponential_profile(500, 10, 10.0)
        rows = self._rotated_rows(profile, 10.0)
        assert rows[3].argmax() == 3
        np.testing.assert_array_equal(rows[3], np.roll(profile, 3))

    def test_rotation_balance_lemma(self):
        # Summing all M rotations of one profile loads every class equally.
        profile = exponential_profile(500, 10, 100.0)
        totals = self._rotated_rows(profile, 100.0).sum(axis=0)
        assert len(set(totals.tolist())) == 1
        assert totals[0] == profile.sum()


class TestShapeLongTailed:
    def test_counts_match_profile_exactly(self, cifar_scale_ds):
        shaped = shape_long_tailed(cifar_scale_ds, 50.0, seed=4)
        np.testing.assert_array_equal(class_counts(shaped.labels, shaped.num_classes),
                                      exponential_profile(5000, 10, 50.0))

    def test_measured_if_within_two_percent(self, cifar_scale_ds):
        for target in (10.0, 50.0, 100.0):
            shaped = shape_long_tailed(cifar_scale_ds, target, seed=4)
            counts = class_counts(shaped.labels, shaped.num_classes)
            measured = counts.max() / counts[counts > 0].min()
            assert abs(measured - target) <= 0.02 * target

    def test_if_one_gives_uniform_subsample(self):
        # The profile starts at the smallest class: class 2 holds 30 samples.
        labels = np.repeat([0, 1, 2, 3], [50, 40, 30, 50])
        ds = Dataset(np.zeros((labels.size, 1)), labels, num_classes=4)
        shaped = shape_long_tailed(ds, 1.0, seed=1)
        assert class_counts(shaped.labels, shaped.num_classes).tolist() == [30] * 4

    def test_same_seed_same_selection(self, balanced_ds):
        a = shape_long_tailed(balanced_ds, 10.0, seed=8)
        b = shape_long_tailed(balanced_ds, 10.0, seed=8)
        assert a.features.tobytes() == b.features.tobytes()


def _shape_reference(dataset, profile, seed):
    """The per-class loop of shape_long_tailed before it dealt through
    deal_by_class, kept as the reference: the chosen indices."""
    rng = rng_from(seed)
    picks = []
    for cls in range(dataset.num_classes):
        pool = np.nonzero(dataset.labels == cls)[0]
        picks.append(rng.permutation(pool)[:int(profile[cls])])
    return np.sort(np.concatenate(picks))


def test_shaping_equals_the_per_class_loop():
    # Target IFs over unequal supplies down to one sample per class, some of
    # them too small or too coarse for the target (a ConfigError).
    draw = np.random.default_rng(26)
    for seed in range(300):
        m = int(draw.integers(2, 7))
        supply = draw.integers(1, 17, size=m)
        target = float(draw.choice([1.0, 1.5, 2.0, 3.0, 5.0]))
        labels = draw.permutation(np.repeat(np.arange(m), supply))
        ds = Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, num_classes=m)
        try:
            profile = exponential_profile(int(supply.min()), m, target)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
                shape_long_tailed(ds, target, seed)
            continue
        want = _shape_reference(ds, profile, seed)
        shaped = shape_long_tailed(ds, target, seed)
        np.testing.assert_array_equal(shaped.features[:, 0], want.astype(np.float64))
        np.testing.assert_array_equal(shaped.labels, labels[want])
