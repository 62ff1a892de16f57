"""IID, Dirichlet, and rotated long-tail partitions plus reporting."""
from pathlib import Path

import numpy as np
import pytest

import fltbench.partition
from fltbench.datasets import (
    class_counts,
    exponential_profile,
    generate_synthetic,
    shape_long_tailed,
)
from fltbench.errors import ConfigError, FltbenchError
from fltbench.partition import (
    PartitionSpec,
    _finish,
    build_partition,
    imbalance_factor,
    partition_report,
)


def _entropy(row):
    """Shannon entropy (nats) of one count row's class frequencies."""
    p = row[row > 0] / row.sum()
    return float(-(p * np.log(p)).sum())


def _assert_disjoint(partition):
    all_indices = np.concatenate(partition.shards)
    assert np.unique(all_indices).size == all_indices.size


class TestSpecValidation:
    def test_alpha_only_for_dirichlet(self):
        with pytest.raises(ValueError):
            PartitionSpec(kind="iid", num_clients=2, alpha=0.5)
        with pytest.raises(ValueError):
            PartitionSpec(kind="dirichlet", num_clients=2)

    def test_local_if_only_for_rotated(self):
        with pytest.raises(ValueError):
            PartitionSpec(kind="dirichlet", num_clients=2, alpha=1.0, local_if=10.0)
        with pytest.raises(ValueError):
            PartitionSpec(kind="rotated_lt", num_clients=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PartitionSpec(kind="sorted", num_clients=2)


class TestIid:
    def test_even_split_of_balanced_data(self):
        ds = generate_synthetic(2, 50, 2, 0.5, seed=0)
        part = build_partition(ds, PartitionSpec(kind="iid", num_clients=2), 1)
        assert [len(s) for s in part.shards] == [50, 50]
        for client_if in partition_report(part).client_if:
            assert client_if <= 1.5
        _assert_disjoint(part)

    def test_single_client_gets_everything(self):
        ds = generate_synthetic(3, 20, 2, 0.5, seed=0)
        part = build_partition(ds, PartitionSpec(kind="iid", num_clients=1), 1)
        assert len(part.shards[0]) == len(ds)

    def test_union_is_whole_dataset(self, balanced_ds):
        part = build_partition(balanced_ds, PartitionSpec(kind="iid", num_clients=7), 3)
        _assert_disjoint(part)
        assert sum(len(s) for s in part.shards) == len(balanced_ds)

    def test_longtail_client_if_band(self, cifar_scale_ds):
        # Band frozen from the seed-0 simulation: observed client IF_L range
        # was [37.7, 142.0]; the noisy tail leaves roughly one sample per
        # tail class per client.
        lt = shape_long_tailed(cifar_scale_ds, exponential_profile(5000, 10, 100), seed=0)
        part = build_partition(lt, PartitionSpec(kind="iid", num_clients=40), 0)
        for client_if in partition_report(part).client_if:
            assert 30.0 <= client_if <= 200.0

    def test_capacity(self):
        ds = generate_synthetic(2, 5, 2, 0.5, seed=0)
        with pytest.raises(ConfigError, match="^10 samples cannot give 2 clients at least 50 each$"):
            build_partition(ds, PartitionSpec(kind="iid", num_clients=2, min_shard_size=50), 0)

    def test_determinism(self, balanced_ds):
        spec = PartitionSpec(kind="iid", num_clients=5)
        a = build_partition(balanced_ds, spec, 11)
        b = build_partition(balanced_ds, spec, 11)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa, sb)


class TestDirichlet:
    def test_huge_alpha_is_near_uniform(self, balanced_ds):
        for seed in range(10):
            spec = PartitionSpec(kind="dirichlet", num_clients=10, alpha=1e6)
            report = partition_report(build_partition(balanced_ds, spec, seed))
            global_probs = report.global_counts / report.global_size
            for row, size in zip(report.matrix, report.client_sizes):
                assert np.max(np.abs(row / size - global_probs)) <= 0.02

    def test_small_alpha_collapses_entropy(self, balanced_ds):
        # Threshold frozen from a 10-seed pre-run: the mean client label
        # entropy never exceeded 0.55 of the global entropy at alpha=0.1.
        global_entropy = np.log(10)
        for seed in range(10):
            spec = PartitionSpec(kind="dirichlet", num_clients=10, alpha=0.1)
            report = partition_report(build_partition(balanced_ds, spec, seed))
            mean_entropy = np.mean([_entropy(row) for row in report.matrix])
            assert mean_entropy <= 0.60 * global_entropy

    def test_single_client(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=1, alpha=0.3)
        part = build_partition(balanced_ds, spec, 0)
        assert len(part.shards[0]) == len(balanced_ds)

    def test_union_is_whole_dataset(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=8, alpha=0.5)
        part = build_partition(balanced_ds, spec, 5)
        _assert_disjoint(part)
        assert sum(len(s) for s in part.shards) == len(balanced_ds)

    def test_class_totals_preserved_exactly(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=6, alpha=0.2)
        part = build_partition(balanced_ds, spec, 2)
        summed = sum(
            np.bincount(balanced_ds.labels[s], minlength=10) for s in part.shards
        )
        np.testing.assert_array_equal(summed, class_counts(balanced_ds.labels, balanced_ds.num_classes))

    def test_min_shard_size_enforced(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=10, alpha=0.1, min_shard_size=10)
        part = build_partition(balanced_ds, spec, 4)
        assert min(len(s) for s in part.shards) >= 10

    def test_retry_budget_exhaustion(self):
        ds = generate_synthetic(10, 100, 2, 0.5, seed=0)
        spec = PartitionSpec(
            kind="dirichlet", num_clients=10, alpha=0.01, min_shard_size=100
        )
        with pytest.raises(ConfigError, match=(
            r"^no Dirichlet draw satisfied min_shard_size=100 within 100 attempts "
            r"\(alpha=0.01, N=10\)$"
        )):
            build_partition(ds, spec, 0)

    def test_determinism(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=4, alpha=0.7)
        a = build_partition(balanced_ds, spec, 9)
        b = build_partition(balanced_ds, spec, 9)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa, sb)


class TestRotatedLongtail:
    def test_two_class_symmetry(self):
        ds = generate_synthetic(2, 100, 2, 0.5, seed=0)
        spec = PartitionSpec(kind="rotated_lt", num_clients=2, local_if=3.0)
        report = partition_report(build_partition(ds, spec, 3))
        assert report.matrix[0].tolist() == [75, 25]
        assert report.matrix[1].tolist() == [25, 75]
        assert report.global_counts.tolist() == [100, 100]
        assert report.global_if == 1.0

    def test_cifar_scale_targets(self, cifar_scale_ds):
        for target in (10.0, 50.0, 100.0):
            spec = PartitionSpec(kind="rotated_lt", num_clients=40, local_if=target)
            report = partition_report(build_partition(cifar_scale_ds, spec, 0))
            for client_if in report.client_if:
                assert abs(client_if - target) <= 0.10 * target
            assert report.global_if <= 1.1

    def test_if_one_degenerates_to_uniform_iid_shards(self, balanced_ds):
        spec = PartitionSpec(kind="rotated_lt", num_clients=10, local_if=1.0)
        report = partition_report(build_partition(balanced_ds, spec, 0))
        for row, client_if in zip(report.matrix, report.client_if):
            assert client_if == 1.0
            assert len(set(row.tolist())) == 1
        assert report.global_if == 1.0

    def test_balance_lemma_exact_with_n_multiple_of_m(self, cifar_scale_ds):
        spec = PartitionSpec(kind="rotated_lt", num_clients=40, local_if=100.0)
        totals = partition_report(build_partition(cifar_scale_ds, spec, 7)).global_counts
        assert len(set(totals.tolist())) == 1

    def test_leftover_bounded_by_clients_times_classes(self, cifar_scale_ds):
        spec = PartitionSpec(kind="rotated_lt", num_clients=40, local_if=50.0)
        part = build_partition(cifar_scale_ds, spec, 7)
        leftover = len(cifar_scale_ds) - sum(len(s) for s in part.shards)
        assert leftover <= 40 * 10

    def test_unbalanced_source_rejected(self, cifar_scale_ds):
        lt = shape_long_tailed(cifar_scale_ds, exponential_profile(5000, 10, 10), seed=0)
        spec = PartitionSpec(kind="rotated_lt", num_clients=4, local_if=10.0)
        with pytest.raises(ConfigError, match=(
            r"^rotated_lt needs a balanced source dataset \(IF <= 1\.05\)$"
        )):
            build_partition(lt, spec, 0)

    def test_infeasible_budget_rejected(self):
        ds = generate_synthetic(10, 12, 2, 0.5, seed=0)
        spec = PartitionSpec(
            kind="rotated_lt", num_clients=2, local_if=100.0, min_shard_size=1
        )
        with pytest.raises(ConfigError, match=(
            r"^per-client budget 60 cannot hold a profile with IF 100\.0$"
        )):
            build_partition(ds, spec, 0)

    def test_determinism(self, balanced_ds):
        spec = PartitionSpec(kind="rotated_lt", num_clients=10, local_if=10.0)
        a = build_partition(balanced_ds, spec, 13)
        b = build_partition(balanced_ds, spec, 13)
        for sa, sb in zip(a.shards, b.shards):
            np.testing.assert_array_equal(sa, sb)


def _assert_counts_match_shards(dataset, spec, seed):
    """The stored count matrix equals each shard's label bincount, and each
    client's IF_L is the scalar rule applied to its row."""
    part = build_partition(dataset, spec, seed)
    report = partition_report(part)
    for shard, row, client_if in zip(part.shards, report.matrix, report.client_if):
        fresh = np.bincount(dataset.labels[shard], minlength=dataset.num_classes)
        np.testing.assert_array_equal(row, fresh)
        assert client_if == imbalance_factor(fresh)
    assert report.global_if == imbalance_factor(report.matrix.sum(axis=0))


class TestStatsCoherence:
    def test_stored_stats_match_recomputation(self, balanced_ds):
        spec = PartitionSpec(kind="dirichlet", num_clients=5, alpha=0.4)
        _assert_counts_match_shards(balanced_ds, spec, 21)

    def test_iid_counts_match_recomputation(self, cifar_scale_ds):
        lt = shape_long_tailed(cifar_scale_ds, exponential_profile(5000, 10, 100), seed=0)
        _assert_counts_match_shards(lt, PartitionSpec(kind="iid", num_clients=40), 0)

    def test_rotated_lt_counts_match_recomputation(self, balanced_ds):
        spec = PartitionSpec(kind="rotated_lt", num_clients=10, local_if=10.0)
        _assert_counts_match_shards(balanced_ds, spec, 13)


# (spec, seed) pairs
SPECS = [
    (PartitionSpec(kind="iid", num_clients=7), 3),
    (PartitionSpec(kind="dirichlet", num_clients=5, alpha=0.4), 21),
    (PartitionSpec(kind="rotated_lt", num_clients=10, local_if=10.0), 13),
]
KINDS = [spec.kind for spec, _ in SPECS]


class TestBuildPartition:
    @pytest.mark.parametrize("spec,seed", SPECS, ids=KINDS)
    def test_supply_is_checked_once(self, balanced_ds, monkeypatch, spec, seed):
        calls = []
        real = fltbench.partition.check_supply

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fltbench.partition, "check_supply", counting)
        build_partition(balanced_ds, spec, seed)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec,seed", SPECS, ids=KINDS)
    def test_shards_are_sorted_read_only_index_arrays(self, balanced_ds, spec, seed):
        part = build_partition(balanced_ds, spec, seed)
        assert isinstance(part.shards, tuple) and len(part.shards) == spec.num_clients
        for shard in part.shards:
            assert shard.dtype == np.int64 and shard.ndim == 1
            assert np.all(np.diff(shard) > 0)
            with pytest.raises(ValueError):
                shard[0] = 0

    def test_duplicate_shard_indices(self, balanced_ds):
        spec = PartitionSpec(kind="iid", num_clients=2, min_shard_size=1)
        with pytest.raises(FltbenchError, match="internal error: overlapping") as caught:
            _finish(balanced_ds, spec, [np.array([1, 1, 2]), np.array([3])])
        assert not isinstance(caught.value, ConfigError)  # a fault of the program: exit 1


class TestReport:
    def test_two_client_matrix(self):
        ds = generate_synthetic(2, 100, 2, 0.5, seed=0)
        spec = PartitionSpec(kind="rotated_lt", num_clients=2, local_if=3.0)
        report = partition_report(build_partition(ds, spec, 3))
        assert report.matrix.tolist() == [[75, 25], [25, 75]]
        assert report.global_counts.tolist() == [100, 100]

    def test_csv_layout_and_column_sums(self, balanced_ds):
        spec = PartitionSpec(kind="iid", num_clients=4)
        report = partition_report(build_partition(balanced_ds, spec, 1))
        lines = report.to_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "client"
        assert header[1] == "class_0" and header[-2] == "n_k" and header[-1] == "IF_L"
        assert lines[-1].startswith("GLOBAL,")
        body = [line.split(",") for line in lines[1:-1]]
        for cls in range(10):
            column = sum(int(row[1 + cls]) for row in body)
            assert column == int(lines[-1].split(",")[1 + cls])

    def test_dirichlet_report_columns_sum_to_profile(self, cifar_scale_ds):
        profile = exponential_profile(5000, 10, 100.0)
        lt = shape_long_tailed(cifar_scale_ds, profile, seed=0)
        spec = PartitionSpec(kind="dirichlet", num_clients=20, alpha=0.5)
        report = partition_report(build_partition(lt, spec, 2))
        np.testing.assert_array_equal(report.matrix.sum(axis=0), profile.counts)

    def test_json_mirror(self, balanced_ds):
        spec = PartitionSpec(kind="iid", num_clients=3)
        report = partition_report(build_partition(balanced_ds, spec, 1))
        doc = report.to_json_dict()
        assert doc["global_size"] == len(balanced_ds)
        assert len(doc["matrix"]) == 3
        assert doc["client_sizes"] == [len(s) for s in build_partition(balanced_ds, spec, 1).shards]


def test_readme_python_api_example_runs(capsys):
    # The fenced python block under README's "Python API" heading must run
    # as shown, so every name it imports has to stay exported.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("client,class_0,")
