"""Exponential profiles, long-tail subsampling, and the rotations rotated_lt makes."""
import numpy as np
import pytest

from fltbench.datasets import (
    Dataset,
    LtProfile,
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
        profile = exponential_profile(5000, 10, 1.0)
        assert profile.counts.tolist() == [5000] * 10

    def test_if_100_endpoints(self):
        profile = exponential_profile(5000, 10, 100.0)
        assert profile.counts[0] == 5000
        assert profile.counts[-1] == 50

    def test_if_10_full_vector(self):
        profile = exponential_profile(5000, 10, 10.0)
        assert profile.counts.tolist() == PROFILE_5000_10_IF10

    def test_monotone_in_target(self):
        tails = []
        for target in (2.0, 5.0, 10.0, 50.0):
            profile = exponential_profile(5000, 10, target)
            assert profile.counts[0] == 5000
            tails.append(int(profile.counts[-1]))
        assert tails == sorted(tails, reverse=True)
        assert len(set(tails)) == len(tails)

    def test_counts_non_increasing(self):
        for target in (1.0, 3.0, 17.5, 80.0):
            profile = exponential_profile(2000, 7, target)
            assert (np.diff(profile.counts) <= 0).all()

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
    profile.counts[(c - k) mod M] samples of class c."""

    @staticmethod
    def _rotated_rows(profile):
        """The count matrix of M clients whose per-client budget is exactly
        the profile's total, so each client holds one rotation of it."""
        m = profile.num_classes
        dataset = generate_synthetic(m, int(profile.counts.sum()), 2, 0.5, seed=0)
        spec = PartitionSpec(kind="rotated_lt", num_clients=m, local_if=profile.target_if)
        return build_partition(dataset, spec, 0).counts

    def test_offset_zero_is_identity(self):
        profile = exponential_profile(100, 4, 2.0)
        rows = self._rotated_rows(profile)
        np.testing.assert_array_equal(rows[0], profile.counts)

    def test_offset_moves_head(self):
        profile = exponential_profile(500, 10, 10.0)
        rows = self._rotated_rows(profile)
        assert rows[3].argmax() == 3
        np.testing.assert_array_equal(rows[3], np.roll(profile.counts, 3))

    def test_rotation_balance_lemma(self):
        # Summing all M rotations of one profile loads every class equally.
        profile = exponential_profile(500, 10, 100.0)
        totals = self._rotated_rows(profile).sum(axis=0)
        assert len(set(totals.tolist())) == 1
        assert totals[0] == profile.counts.sum()


class TestShapeLongTailed:
    def test_counts_match_profile_exactly(self, cifar_scale_ds):
        profile = exponential_profile(5000, 10, 50.0)
        shaped = shape_long_tailed(cifar_scale_ds, profile, seed=4)
        np.testing.assert_array_equal(class_counts(shaped.labels, shaped.num_classes), profile.counts)

    def test_measured_if_within_two_percent(self, cifar_scale_ds):
        for target in (10.0, 50.0, 100.0):
            profile = exponential_profile(5000, 10, target)
            shaped = shape_long_tailed(cifar_scale_ds, profile, seed=4)
            counts = class_counts(shaped.labels, shaped.num_classes)
            measured = counts.max() / counts[counts > 0].min()
            assert abs(measured - target) <= 0.02 * target

    def test_if_one_gives_uniform_subsample(self):
        ds = generate_synthetic(4, 50, 2, 0.5, seed=0)
        shaped = shape_long_tailed(ds, exponential_profile(30, 4, 1.0), seed=1)
        assert class_counts(shaped.labels, shaped.num_classes).tolist() == [30] * 4

    def test_same_seed_same_selection(self, balanced_ds):
        profile = exponential_profile(400, 10, 10.0)
        a = shape_long_tailed(balanced_ds, profile, seed=8)
        b = shape_long_tailed(balanced_ds, profile, seed=8)
        assert a.features.tobytes() == b.features.tobytes()

    def test_capacity_error_names_class(self):
        # Classes 0 and 1 can supply their share; class 2 holds 5 of its 10.
        labels = np.repeat([0, 1, 2], [30, 30, 5])
        ds = Dataset(np.zeros((labels.size, 1)), labels, num_classes=3)
        profile = LtProfile(target_if=2.0, counts=np.array([20, 15, 10]))
        with pytest.raises(ConfigError, match="^class 2 has 5 samples, the profile needs 10$"):
            shape_long_tailed(ds, profile, seed=0)


def _shape_reference(dataset, profile, seed):
    """The per-class loop of shape_long_tailed before it dealt through
    deal_by_class, kept as the reference: the chosen indices, or the
    ConfigError it raised at the first class short of its count."""
    have = class_counts(dataset.labels, dataset.num_classes)
    rng = rng_from(seed)
    picks = []
    for cls in range(profile.num_classes):
        need = int(profile.counts[cls])
        if have[cls] < need:
            raise ConfigError(
                f"class {cls} has {int(have[cls])} samples, the profile needs {need}"
            )
        pool = np.nonzero(dataset.labels == cls)[0]
        picks.append(rng.permutation(pool)[:need])
    return np.sort(np.concatenate(picks))


def test_shaping_equals_the_per_class_loop():
    # Non-increasing profiles down to one sample, over supplies that are
    # sometimes short, absent (0) or exactly one sample.
    draw = np.random.default_rng(26)
    for seed in range(300):
        m = int(draw.integers(2, 7))
        counts = np.sort(draw.integers(1, 6, size=m))[::-1]
        supply = counts + draw.choice([-1, 0, 0, 1, 4], size=m)
        supply[draw.random(m) < 0.1] = 0
        labels = draw.permutation(np.repeat(np.arange(m), np.maximum(supply, 0)))
        ds = Dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels, num_classes=m)
        profile = LtProfile(target_if=counts[0] / counts[-1], counts=counts)
        try:
            want = _shape_reference(ds, profile, seed)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=f"^{exc}$"):
                shape_long_tailed(ds, profile, seed)
            continue
        shaped = shape_long_tailed(ds, profile, seed)
        np.testing.assert_array_equal(shaped.features[:, 0], want.astype(np.float64))
        np.testing.assert_array_equal(shaped.labels, labels[want])
