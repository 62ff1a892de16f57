"""FL update rules: aggregation identities, proximal pull, head decoupling,
and the gradient-matched feature machinery."""
import numpy as np
import pytest

import fltbench.algorithms
from fltbench.algorithms import (
    AlgoConfig,
    CreffServer,
    aggregate_rep_only,
    aggregate_weighted,
    creff_client_head_grads,
    local_update_fedavg,
    local_update_fedper,
    local_update_fedprox,
    matching_loss_and_grad,
    retrain_head,
)
from fltbench.datasets import Dataset
from fltbench.errors import FltbenchError
from fltbench.nn import (
    EVAL_BLOCK_ROWS,
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    head_views,
    init_model,
    loss_and_grad,
    sgd_epochs,
    softmax,
)
from fltbench.seeding import rng_from

from conftest import as_vector, split_vector, with_ones


def _params(rep, head):
    return ModelParams(np.asarray(rep, dtype=float), np.asarray(head, dtype=float))


def _folded(clients, fold=aggregate_weighted, sums=None):
    """The round loop's aggregation of (params, n_k) pairs, listed in
    client-id order: each client's params times n_k over the summed n_k,
    folded in list order into sums that start at +0.0."""
    total = sum(n for _, n in clients)
    if sums is None:
        like = clients[0][0]
        sums = ModelParams(np.zeros_like(like.rep_block), np.zeros_like(like.head_block))
    for params, n in clients:
        fold(sums, params, n / total)
    return sums


class TestAggregateWeighted:
    def test_two_updates(self):
        agg = _folded([(_params([], [1.0, 1.0]), 1), (_params([], [3.0, 3.0]), 3)])
        np.testing.assert_allclose(agg.head_block, [2.5, 2.5])

    def test_identical_updates_are_fixed_point(self):
        agg = _folded([(_params([0.5], [1.0, -2.0]), k + 1) for k in range(4)])
        np.testing.assert_allclose(agg.head_block, [1.0, -2.0])
        np.testing.assert_allclose(agg.rep_block, [0.5])

    def test_equal_counts_give_plain_mean(self, rng):
        heads = [rng.standard_normal(4) for _ in range(3)]
        agg = _folded([(_params([], h.copy()), 7) for h in heads])
        np.testing.assert_allclose(agg.head_block, np.mean(heads, axis=0), atol=1e-15)

    def test_affine_commutation(self, rng):
        # Applying a fixed affine map before aggregation equals applying it
        # after, because the weights sum to one.
        heads = [rng.standard_normal(3) for _ in range(4)]
        counts = [1, 2, 3, 4]
        scale, shift = 1.7, rng.standard_normal(3)
        mapped = [(_params([], scale * h + shift), n) for h, n in zip(heads, counts)]
        plain = [(_params([], h.copy()), n) for h, n in zip(heads, counts)]
        after = scale * _folded(plain).head_block + shift
        np.testing.assert_allclose(_folded(mapped).head_block, after, atol=1e-12)

    def test_order_independence_of_input_list(self, monkeypatch):
        # The round loop folds its sampled clients in client-id order, each
        # weighted by its train shard's size over the sampled shards' total,
        # whatever order the clients are drawn in. Dirichlet shards differ
        # in size, so the weights name the clients.
        import fltbench.orchestrator
        from fltbench.config import DataConfig, ExperimentConfig, ModelSpec
        from fltbench.partition import PartitionSpec
        from fltbench.seeding import derive_seed

        config = ExperimentConfig(
            data=DataConfig(source="synthetic", num_classes=3, per_class=30,
                            test_per_class=4, dim=2),
            partition=PartitionSpec(kind="dirichlet", num_clients=8, alpha=0.5,
                                    min_shard_size=1),
            model=ModelSpec(arch="linear_softmax"),
            train=TrainConfig(learning_rate=0.1, batch_size=8),
            algo=AlgoConfig(algorithm="fedavg", rounds=2, participation_fraction=0.5),
            master_seed=1,
        )
        weights = []
        original = fltbench.orchestrator.aggregate_weighted

        def recording(sums, params, weight):
            weights.append(weight)
            original(sums, params, weight)

        monkeypatch.setattr(fltbench.orchestrator, "aggregate_weighted", recording)
        report = fltbench.orchestrator.run_experiment(config)
        sizes = report.partition.client_sizes.tolist()
        assert len(set(sizes)) == len(sizes)
        expected = []
        for r in (1, 2):
            seed = derive_seed(config.master_seed, "client-sampling", r)
            drawn = rng_from(seed).choice(8, size=4, replace=False)
            assert drawn.tolist() != sorted(drawn.tolist())
            total = sum(sizes[k] for k in drawn)
            expected += [sizes[k] / total for k in sorted(drawn)]
        assert weights == expected

    def test_bit_equal_to_a_fresh_temporary_per_client(self, rng):
        # The weighted sum as written before its scratch buffers: a new
        # weight * block array for each client and block.
        sizes = rng.integers(1, 200, 20)
        clients = [(_params(rng.standard_normal(50), rng.standard_normal(33)), int(n))
                   for n in sizes]
        total = int(sizes.sum())
        rep, head = np.zeros(50), np.zeros(33)
        for params, n in clients:
            weight = n / total
            rep += weight * params.rep_block
            head += weight * params.head_block
        agg = _folded(clients)
        assert agg.rep_block.tobytes() == rep.tobytes()
        assert agg.head_block.tobytes() == head.tobytes()


@pytest.fixture
def small_problem(rng):
    cfg = ModelConfig(arch="mlp1h", input_dim=6, num_classes=3, init_seed=4, hidden_units=8)
    params = init_model(cfg)
    x = rng.standard_normal((40, 6))
    y = rng.integers(0, 3, 40)
    return cfg, params, x, y


class TestFedAvg:
    def test_zero_learning_rate_returns_global(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.0, batch_size=8, local_epochs=2)
        update = local_update_fedavg(params, cfg, x, y, tc, rng_from(1))
        np.testing.assert_array_equal(update.rep_block, params.rep_block)
        np.testing.assert_array_equal(update.head_block, params.head_block)
        # A fresh copy: the fold scales a client's params in place.
        assert not np.shares_memory(update.rep_block, params.rep_block)
        assert not np.shares_memory(update.head_block, params.head_block)

    def test_single_client_round_is_centralized_training(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=2)
        update = local_update_fedavg(params, cfg, x, y, tc, rng_from(6))
        agg = _folded([(update, len(y))])
        central = sgd_epochs(params, cfg, tc, x, y, rng_from(6))
        assert agg.rep_block.tobytes() == central.rep_block.tobytes()
        assert agg.head_block.tobytes() == central.head_block.tobytes()

    def test_one_round_equals_centralized_full_batch_step(self, small_problem):
        cfg, params, x, y = small_problem
        lr = 0.1
        updates = []
        for k in range(4):
            sx, sy = x[k * 10 : (k + 1) * 10], y[k * 10 : (k + 1) * 10]
            tc = TrainConfig(learning_rate=lr, batch_size=10, local_epochs=1)
            updates.append((local_update_fedavg(params, cfg, sx, sy, tc, rng_from(k)), len(sy)))
        agg = _folded(updates)
        _, grad = loss_and_grad(params, cfg, with_ones(cfg, x), y)
        expect_rep = params.rep_block - lr * grad.rep_block
        expect_head = params.head_block - lr * grad.head_block
        np.testing.assert_allclose(agg.rep_block, expect_rep, rtol=1e-6)
        np.testing.assert_allclose(agg.head_block, expect_head, rtol=1e-6)


class TestFedProx:
    def test_mu_zero_is_bitwise_fedavg(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.05, batch_size=8, local_epochs=3)
        a = local_update_fedavg(params, cfg, x, y, tc, rng_from(7))
        p = local_update_fedprox(params, cfg, x, y, tc, rng_from(7), mu=0.0)
        assert a.rep_block.tobytes() == p.rep_block.tobytes()
        assert a.head_block.tobytes() == p.head_block.tobytes()

    def test_huge_mu_single_step_displacement_bounded(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.1, batch_size=40, local_epochs=1)
        a = local_update_fedavg(params, cfg, x, y, tc, rng_from(3))
        p = local_update_fedprox(params, cfg, x, y, tc, rng_from(3), mu=1e6)
        base = as_vector(params)
        assert np.linalg.norm(as_vector(p) - base) <= np.linalg.norm(
            as_vector(a) - base
        ) + 1e-12

    def test_moderate_mu_shrinks_multi_step_displacement(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.1, batch_size=10, local_epochs=5)
        a = local_update_fedavg(params, cfg, x, y, tc, rng_from(3))
        p = local_update_fedprox(params, cfg, x, y, tc, rng_from(3), mu=5.0)
        base = as_vector(params)
        assert np.linalg.norm(as_vector(p) - base) < np.linalg.norm(
            as_vector(a) - base
        )

    def test_hooked_gradient_matches_augmented_objective(self, small_problem, rng):
        from test_nn import fd_safe_batch

        cfg, params, _, _ = small_problem
        mu = 0.7
        anchor = ModelParams(params.rep_block.copy(), params.head_block.copy())
        moved = ModelParams(params.rep_block.copy(), params.head_block.copy())
        moved.rep_block = moved.rep_block + 0.01 * rng.standard_normal(moved.rep_block.shape)
        moved.head_block = moved.head_block + 0.01 * rng.standard_normal(moved.head_block.shape)
        x, y = fd_safe_batch(moved, cfg, rng, 20)
        _, grad = loss_and_grad(moved, cfg, x, y)
        hooked = np.concatenate(
            [
                grad.rep_block + mu * (moved.rep_block - anchor.rep_block),
                grad.head_block + mu * (moved.head_block - anchor.head_block),
            ]
        )
        vec, anchor_vec = as_vector(moved), as_vector(anchor)
        eps = 1e-5
        oracle = np.zeros_like(vec)
        for i in range(vec.size):
            plus, minus = vec.copy(), vec.copy()
            plus[i] += eps
            minus[i] -= eps
            lp, _ = loss_and_grad(split_vector(cfg, plus), cfg, x, y)
            lm, _ = loss_and_grad(split_vector(cfg, minus), cfg, x, y)
            lp += 0.5 * mu * float((plus - anchor_vec) @ (plus - anchor_vec))
            lm += 0.5 * mu * float((minus - anchor_vec) @ (minus - anchor_vec))
            oracle[i] = (lp - lm) / (2 * eps)
        # Relative error floored at 1e-3 so finite-difference truncation noise
        # on near-zero components does not dominate.
        rel = np.abs(hooked - oracle) / np.maximum(np.abs(oracle), 1e-3)
        assert rel.max() <= 1e-4


class TestFedPer:
    def test_aggregation_never_touches_server_head(self, small_problem):
        cfg, params, x, y = small_problem
        head_before = params.head_block.tobytes()
        tc = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=1)
        updates = []
        for k in range(3):
            local_head = params.head_block + k  # distinct per-client heads
            updates.append(
                (local_update_fedper(params, local_head, cfg, x, y, tc, rng_from(2)), len(y))
            )
        server = ModelParams(np.zeros_like(params.rep_block), params.head_block)
        agg = _folded(updates, aggregate_rep_only, server)
        assert agg.head_block.tobytes() == head_before
        assert not np.array_equal(agg.rep_block, params.rep_block)

    def test_single_client_equals_centralized(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=2)
        update = local_update_fedper(params, params.head_block, cfg, x, y, tc, rng_from(5))
        central = sgd_epochs(params, cfg, tc, x, y, rng_from(5))
        assert update.rep_block.tobytes() == central.rep_block.tobytes()
        assert update.head_block.tobytes() == central.head_block.tobytes()

    def test_update_carries_trained_head_for_client_persistence(self, small_problem):
        cfg, params, x, y = small_problem
        tc = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=1)
        own_head = params.head_block * 0.5
        update = local_update_fedper(params, own_head, cfg, x, y, tc, rng_from(5))
        assert not np.array_equal(update.head_block, own_head)


class TestCreffClientGrads:
    def test_absent_class_is_missing_not_zero(self, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=4, init_seed=1)
        params = init_model(cfg)
        x = rng.standard_normal((6, 3))
        y = np.array([0, 0, 2, 2, 2, 0])
        grads = creff_client_head_grads(params, cfg, x, y)
        assert grads.shape == (4, cfg.head_size)
        assert np.isfinite(grads[[0, 2]]).all()
        assert np.isnan(grads[[1, 3]]).all()

    def test_single_sample_class(self, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=3, init_seed=2)
        params = init_model(cfg)
        x = rng.standard_normal((3, 3))
        y = np.array([0, 0, 1])
        grads = creff_client_head_grads(params, cfg, x, y)
        _, lone = loss_and_grad(params, cfg, x[2:3], y[2:3])
        np.testing.assert_allclose(grads[1], lone.head_block, atol=1e-15)

    def test_count_weighted_sum_equals_shard_gradient(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=4, init_seed=9, hidden_units=7)
        params = init_model(cfg)
        x = rng.standard_normal((30, 5))
        y = rng.integers(0, 4, 30)
        grads = creff_client_head_grads(params, cfg, x, y)
        total = np.zeros(cfg.head_size)
        for cls in np.unique(y):
            total += (y == cls).sum() * grads[cls]
        _, full = loss_and_grad(params, cfg, with_ones(cfg, x), y)
        np.testing.assert_allclose(total, 30 * full.head_block, atol=1e-12)

    @pytest.mark.parametrize("arch,hidden", [("linear_softmax", None), ("mlp1h", 12)])
    def test_equals_full_backprop_head_block(self, rng, arch, hidden):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=4, init_seed=3,
                          hidden_units=hidden)
        params = init_model(cfg)
        x = rng.standard_normal((50, 5))
        y = rng.integers(0, 4, 50)
        grads = creff_client_head_grads(params, cfg, x, y)
        for cls in np.unique(y):
            _, full = loss_and_grad(params, cfg, with_ones(cfg, x[y == cls]), y[y == cls])
            np.testing.assert_array_equal(grads[cls], full.head_block)

    def test_shard_longer_than_an_eval_block(self, rng):
        # One forward pass over a 600-row shard: its products may take
        # another BLAS kernel than a pass over one class's rows, so equal up
        # to rounding.
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=6, init_seed=4,
                          hidden_units=20)
        params = init_model(cfg)
        n = 600
        assert n > EVAL_BLOCK_ROWS
        x = rng.standard_normal((n, 5))
        y = rng.choice([0, 1, 2, 4, 5], n)  # class 3 absent
        grads = creff_client_head_grads(params, cfg, x, y)
        assert np.isnan(grads[3]).all()
        for cls in (0, 1, 2, 4, 5):
            _, full = loss_and_grad(params, cfg, with_ones(cfg, x[y == cls]), y[y == cls])
            np.testing.assert_allclose(grads[cls], full.head_block, rtol=1e-12)

    @pytest.mark.parametrize("arch,hidden", [("linear_softmax", None), ("mlp1h", 200)])
    def test_equals_allocating_softmax_version_bit_for_bit(self, rng, arch, hidden):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=10, init_seed=7,
                          hidden_units=hidden)
        params = init_model(cfg)
        x = 3.0 * rng.standard_normal((600, 5))
        y = rng.choice([c for c in range(10) if c != 6], 600)  # class 6 absent
        grads = creff_client_head_grads(params, cfg, x, y)
        assert np.isnan(grads[6]).all()
        np.testing.assert_array_equal(
            grads, _creff_client_head_grads_allocating(params, cfg, x, y)
        )

    def test_forward_passes_hold_whole_classes_of_at_most_a_block(self, rng, monkeypatch):
        # Classes 0 and 1 share a pass; class 2 would overflow it and starts
        # the next; class 3 alone is longer than a block and is a pass of its
        # own. Class 4 is absent.
        assert 200 <= EVAL_BLOCK_ROWS < 300
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=5, init_seed=6,
                          hidden_units=20)
        params = init_model(cfg)
        y = rng.permutation(np.repeat([0, 1, 2, 3], [100, 100, 100, EVAL_BLOCK_ROWS + 44]))
        x = rng.standard_normal((y.size, 5))
        passes = []

        def recording_forward(p, c, batch):
            passes.append(batch.shape[0])
            return forward(p, c, batch)

        monkeypatch.setattr(fltbench.algorithms, "forward", recording_forward)
        grads = creff_client_head_grads(params, cfg, x, y)
        assert passes == [200, 100, EVAL_BLOCK_ROWS + 44]
        assert np.isnan(grads[4]).all()
        for cls in range(4):
            _, full = loss_and_grad(params, cfg, with_ones(cfg, x[y == cls]), y[y == cls])
            np.testing.assert_allclose(grads[cls], full.head_block, rtol=1e-12)


def _creff_client_head_grads_allocating(global_params, model_config, shard_x, shard_y):
    """creff_client_head_grads as written before the softmax worked in place:
    the exactness reference, with its own allocating softmax."""
    m = model_config.num_classes
    order = np.argsort(shard_y, kind="stable")
    counts = np.bincount(shard_y, minlength=m)
    ends = np.cumsum(counts)
    starts = ends - counts
    blocks = []
    for cls in np.flatnonzero(counts):
        if blocks and ends[cls] - starts[blocks[-1][0]] <= EVAL_BLOCK_ROWS:
            blocks[-1].append(cls)
        else:
            blocks.append([cls])
    grads = np.full((m, model_config.head_size), np.nan)
    grad_w, grad_b = head_views(grads, m)
    for block in blocks:
        first = starts[block[0]]
        rows = order[first:ends[block[-1]]]
        feats, logits = forward(global_params, model_config, shard_x[rows])
        shifted = logits - logits.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        delta = e / e.sum(axis=0, keepdims=True)
        delta[shard_y[rows], np.arange(rows.shape[0])] -= 1.0
        for cls in block:
            start, end = starts[cls] - first, ends[cls] - first
            part = delta[:, start:end]
            part /= counts[cls]
            np.matmul(part, feats[start:end], out=grad_w[cls])
            part.sum(axis=1, out=grad_b[cls])
    return grads


def _matching_reference(features, label, w, b, target_w, target_b):
    """One class's squared-distance matching loss and its feature gradient,
    computed unfused: the oracle for the shipped kernel's step."""
    n = features.shape[0]
    logits = features @ w.T + b
    probs = softmax(logits, -1)
    u = probs.copy()
    u[:, label] -= 1.0
    g_w = u.T @ features / n
    g_b = u.sum(axis=0) / n
    r_w = 2.0 * (g_w - target_w)
    r_b = 2.0 * (g_b - target_b)
    loss = float(((g_w - target_w) ** 2).sum() + ((g_b - target_b) ** 2).sum())
    direct = u @ r_w / n
    d_probs = (features @ r_w.T + r_b[None, :]) / n
    d_logits = probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True))
    return loss, direct + d_logits @ w


def _retrain_reference(head_block, features, learning_rate, steps):
    """Head re-training through the generic loss_and_grad kernel, step by step."""
    m, per_class, feat_dim = features.shape
    flat_x = features.reshape(m * per_class, feat_dim)
    flat_y = np.repeat(np.arange(m, dtype=np.int64), per_class)
    head_cfg = ModelConfig(arch="linear_softmax", input_dim=feat_dim, num_classes=m)
    head = ModelParams(np.empty(0, dtype=np.float64), head_block.copy())
    for _ in range(steps):
        _, grad = loss_and_grad(head, head_cfg, flat_x, flat_y)
        head.head_block -= learning_rate * grad.head_block
    return head.head_block


def _retrain_fancy_index(head_block, features, learning_rate, steps):
    """retrain_head as it was before its Gram order subtracted the labels'
    ones through a view: both orders, labels through fancy indexing."""
    m, per_class, feat_dim = features.shape
    n = m * per_class
    x = features.reshape(n, feat_dim)
    y = np.repeat(np.arange(m, dtype=np.int64), per_class)
    cols = np.arange(n)
    head = head_block.copy()
    w, b = head_views(head, m)
    if n * (feat_dim + 1 + steps * m) < 2 * steps * m * (feat_dim + 1):
        k = x @ x.T
        k += 1.0
        k *= learning_rate / n
        z0 = w @ x.T
        z0 += b[:, None]
        s = np.zeros_like(z0)
        z = np.empty_like(z0)
        for _ in range(steps):
            np.matmul(s, k, out=z)
            np.subtract(z0, z, out=z)
            z -= z.max(axis=0)
            np.exp(z, out=z)
            z /= z.sum(axis=0)
            z[y, cols] -= 1.0
            s += z
        w -= learning_rate / n * (s @ x)
        b -= learning_rate / n * s.sum(axis=1)
        return head
    x_t = np.ascontiguousarray(x.T)
    for _ in range(steps):
        z = w @ x_t
        z += b[:, None]
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        z[y, cols] -= 1.0
        z /= n
        w -= learning_rate * (z @ x)
        b -= learning_rate * z.sum(axis=1)
    return head


class TestMatching:
    def test_gradient_matches_finite_differences(self, rng):
        m, f, b = 4, 6, 5
        w = rng.standard_normal((m, f)) * 0.3
        bias = rng.standard_normal(m) * 0.1
        feats = rng.standard_normal((1, b, f))
        tw = rng.standard_normal((1, m, f)) * 0.05
        tb = rng.standard_normal((1, m)) * 0.05
        labels = np.array([2])
        step = matching_loss_and_grad(feats, labels, w, bias, tw, tb, 1.0)
        eps = 1e-6
        for i, j in [(0, 0), (2, 3), (4, 5)]:
            plus, minus = feats[0].copy(), feats[0].copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            lp, _ = _matching_reference(plus, 2, w, bias, tw[0], tb[0])
            lm, _ = _matching_reference(minus, 2, w, bias, tw[0], tb[0])
            assert step[0, i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-7)

    def test_loss_non_increasing_under_descent(self, rng):
        m, f, b = 3, 5, 8
        w = rng.standard_normal((m, f)) * 0.3
        bias = np.zeros(m)
        feats = rng.standard_normal((1, b, f))
        real = rng.standard_normal((b, f)) + 2.0
        cfg = ModelConfig(arch="linear_softmax", input_dim=f, num_classes=m)
        _, real_grad = loss_and_grad(
            ModelParams(np.empty(0), np.concatenate([w.ravel(), bias])),
            cfg, real, np.ones(b, dtype=np.int64),
        )
        target_w, target_b = head_views(real_grad.head_block, m)
        labels = np.array([1])
        losses = []
        for _ in range(100):
            loss, _ = _matching_reference(feats[0], 1, w, bias, target_w, target_b)
            losses.append(loss)
            feats = feats - matching_loss_and_grad(
                feats, labels, w, bias, target_w[None], target_b[None], 1e-2
            )
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_batched_call_equals_per_class_calls(self, rng):
        m, f, p = 10, 200, 20
        w = rng.standard_normal((m, f)) * 0.1
        bias = rng.standard_normal(m) * 0.1
        labels = np.array([0, 3, 4, 9])
        feats = rng.standard_normal((labels.size, p, f))
        tw = rng.standard_normal((labels.size, m, f)) * 0.01
        tb = rng.standard_normal((labels.size, m)) * 0.01
        for _ in range(3):  # a few descent steps, as the server runs them
            steps = matching_loss_and_grad(feats, labels, w, bias, tw, tb, 5.0)
            for i, cls in enumerate(labels):
                lone = matching_loss_and_grad(
                    feats[i : i + 1], labels[i : i + 1], w, bias, tw[i : i + 1], tb[i : i + 1], 5.0
                )
                np.testing.assert_array_equal(steps[i], lone[0])
                # Compared normwise: the direct and softmax terms of the
                # gradient cancel to 1e-4 of their size in some entries, so
                # any two summation orders differ there beyond rtol=1e-12.
                _, grad = _matching_reference(feats[i], cls, w, bias, tw[i], tb[i])
                ref = 5.0 * grad
                assert np.linalg.norm(steps[i] - ref) <= 1e-12 * np.linalg.norm(ref)
            feats = feats - steps


def _separable_toy(rng, m=4, dim=6, per_class=25, noise=0.02):
    # Class means are one-hot vectors, far apart relative to the noise.
    means = np.eye(m, dim)
    feats = np.concatenate(
        [means[c] + noise * rng.standard_normal((per_class, dim)) for c in range(m)]
    )
    labels = np.repeat(np.arange(m), per_class)
    return Dataset(feats, labels, num_classes=m), means


def _creff_report(params, cfg, x, y):
    """A CReFF client's report: its per-class head gradients and class counts."""
    return creff_client_head_grads(params, cfg, x, y), np.bincount(y, minlength=cfg.num_classes)


@pytest.fixture
def matching_calls(monkeypatch):
    """The labels and (C, head_size) targets of every matching step the
    server takes, so a round whose reports never reached it cannot pass as
    one that matched."""
    calls = []
    matching = fltbench.algorithms.matching_loss_and_grad

    def recording_matching(features, labels, w, b, target_w, target_b, lr):
        targets = np.concatenate([target_w.reshape(len(labels), -1), target_b], axis=1)
        calls.append((labels.tolist(), targets))
        return matching(features, labels, w, b, target_w, target_b, lr)

    monkeypatch.setattr(fltbench.algorithms, "matching_loss_and_grad", recording_matching)
    return calls


def _mean_targets(reports, m):
    """Per-class np.mean over the reports with class-c samples: the
    reference that folded targets must equal bit for bit."""
    classes = [c for c in range(m) if any(counts[c] > 0 for _, counts in reports)]
    means = [np.mean([g[c] for g, counts in reports if counts[c] > 0], axis=0) for c in classes]
    return classes, np.stack(means)


class TestCreffServer:
    def test_retrain_on_true_class_means_reaches_perfect_accuracy(self, rng):
        toy, means = _separable_toy(rng)
        cfg = ModelConfig(arch="linear_softmax", input_dim=6, num_classes=4, init_seed=3)
        params = init_model(cfg)
        prototypes = np.repeat(means[:, None, :], 10, axis=1)
        new_head = retrain_head(params.head_block, prototypes, 0.5, 400)
        tuned = ModelParams(params.rep_block, new_head)
        assert evaluate(tuned, cfg, toy, {}).accuracy == 1.0

    def test_retrain_equals_generic_kernel_loop(self, rng):
        # retrain_head keeps its logits class-major, (M, n), while the
        # reference goes through the row-major (n, M) kernel: the same
        # arithmetic summed in another order, so equal up to rounding.
        # At 25 steps these shapes span both of retrain_head's evaluation
        # orders: (10, 20, 200) and (3, 1, 5) take the Gram order, and
        # (10, 20, 30) and (10, 50, 200) take the loop order.
        for m, per_class, f in [(10, 20, 30), (10, 20, 200), (10, 50, 200), (3, 1, 5)]:
            head = rng.standard_normal(m * f + m) * 0.1
            prototypes = rng.standard_normal((m, per_class, f))
            new_head = retrain_head(head, prototypes, 0.1, 25)
            np.testing.assert_allclose(
                new_head, _retrain_reference(head, prototypes, 0.1, 25), rtol=1e-12
            )

    def test_retrain_equals_generic_kernel_loop_over_300_steps(self, rng):
        # The Gram order at the benchmark's shape and step count. Compared
        # normwise: elementwise, near-zero head entries exceed rtol=1e-12
        # in either order.
        head = rng.standard_normal(10 * 200 + 10) * 0.1
        prototypes = rng.standard_normal((10, 20, 200))
        new_head = retrain_head(head, prototypes, 0.1, 300)
        ref = _retrain_reference(head, prototypes, 0.1, 300)
        assert np.linalg.norm(new_head - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_retrain_equals_fancy_index_labels_bit_for_bit(self, rng):
        # (10, 20, 200) over 300 steps takes the Gram order, (10, 50, 200)
        # over 25 steps the loop order.
        for (m, per_class, f), steps in [((10, 20, 200), 300), ((10, 50, 200), 25)]:
            head = rng.standard_normal(m * f + m) * 0.1
            prototypes = rng.standard_normal((m, per_class, f))
            np.testing.assert_array_equal(
                retrain_head(head, prototypes, 0.1, steps),
                _retrain_fancy_index(head, prototypes, 0.1, steps),
            )

    def test_retrain_returns_a_fresh_head_and_modifies_no_argument(self, rng):
        # 5 steps take the loop order at this shape, 300 the Gram order.
        for steps in (5, 300):
            head = rng.standard_normal(4 * 6 + 4)
            prototypes = rng.standard_normal((4, 3, 6))
            head_before, prototypes_before = head.copy(), prototypes.copy()
            new_head = retrain_head(head, prototypes, 0.1, steps)
            assert not np.shares_memory(new_head, head)
            assert not np.shares_memory(new_head, prototypes)
            np.testing.assert_array_equal(head, head_before)
            np.testing.assert_array_equal(prototypes, prototypes_before)

    def test_server_round_changes_only_the_head(self, rng, matching_calls):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=3, init_seed=1, hidden_units=6)
        algo = AlgoConfig(
            algorithm="creff", rounds=1, ff_per_class=4, ff_steps=5,
            retrain_steps=10, ff_lr=0.5, retrain_lr=0.1,
        )
        params = init_model(cfg)
        server = CreffServer(cfg, algo, seed=2)
        x = rng.standard_normal((20, 5))
        y = rng.integers(0, 3, 20)
        server.add_report(*_creff_report(params, cfg, x, y))
        new_head = server.server_round(params)
        assert len(matching_calls) == algo.ff_steps
        assert new_head.shape == params.head_block.shape
        assert not np.array_equal(new_head, params.head_block)

    def test_unreported_class_keeps_its_prototypes(self, rng, matching_calls):
        cfg = ModelConfig(arch="linear_softmax", input_dim=4, num_classes=3, init_seed=5)
        algo = AlgoConfig(
            algorithm="creff", rounds=1, ff_per_class=3, ff_steps=5,
            retrain_steps=5, ff_lr=0.5, retrain_lr=0.1,
        )
        params = init_model(cfg)
        server = CreffServer(cfg, algo, seed=7)
        before = server.features.copy()
        x = rng.standard_normal((10, 4))
        y = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])  # class 2 never reported
        server.add_report(*_creff_report(params, cfg, x, y))
        server.server_round(params)
        assert [labels for labels, _ in matching_calls] == [[0, 1]] * algo.ff_steps
        np.testing.assert_array_equal(server.features[2], before[2])
        for cls in (0, 1):
            assert not np.array_equal(server.features[cls], before[cls])

    def test_divergent_feature_optimization_raises(self, rng, matching_calls):
        cfg = ModelConfig(arch="linear_softmax", input_dim=4, num_classes=3, init_seed=5)
        algo = AlgoConfig(
            algorithm="creff", rounds=1, ff_per_class=3, ff_steps=200,
            retrain_steps=5, ff_lr=1e6, retrain_lr=0.1,
        )
        params = init_model(cfg)
        server = CreffServer(cfg, algo, seed=7)
        x = rng.standard_normal((12, 4))
        y = rng.integers(0, 3, 12)
        server.add_report(*_creff_report(params, cfg, x, y))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FltbenchError, match="^feature optimization diverged for class [0-2] at step "
        ):
            server.server_round(params)
        assert matching_calls

    def test_diverging_class_is_named(self, rng, matching_calls):
        cfg = ModelConfig(arch="linear_softmax", input_dim=4, num_classes=3, init_seed=5)
        algo = AlgoConfig(
            algorithm="creff", rounds=1, ff_per_class=3, ff_steps=5,
            retrain_steps=5, ff_lr=0.5, retrain_lr=0.1,
        )
        params = init_model(cfg)
        server = CreffServer(cfg, algo, seed=7)
        x = rng.standard_normal((12, 4))
        y = np.repeat(np.arange(3), 4)
        grads, counts = _creff_report(params, cfg, x, y)
        grads[2] = 1e300  # only class 2 can blow up
        server.add_report(grads, counts)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FltbenchError, match="^feature optimization diverged for class 2 at step "
        ):
            server.server_round(params)
        assert matching_calls[0][0] == [0, 1, 2]

    def test_absent_class_row_is_never_read(self, rng, matching_calls):
        # Client 0 holds no class-1 samples, so its row 1 holds NaN; the round
        # must equal one in which that row is zero.
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=3, init_seed=5, hidden_units=6)
        algo = AlgoConfig(
            algorithm="creff", rounds=1, ff_per_class=3, ff_steps=5,
            retrain_steps=5, ff_lr=0.5, retrain_lr=0.1,
        )
        params = init_model(cfg)
        x = rng.standard_normal((16, 4))
        y = np.repeat([0, 2, 0, 1], 4)
        reports = [_creff_report(params, cfg, x[:8], y[:8]),
                   _creff_report(params, cfg, x[8:], y[8:])]
        assert np.isnan(reports[0][0][1]).all()
        zeroed = reports[0][0].copy()
        zeroed[1] = 0.0
        nan_server, zero_server = CreffServer(cfg, algo, seed=7), CreffServer(cfg, algo, seed=7)
        for grads, counts in reports:
            nan_server.add_report(grads, counts)
        nan_head = nan_server.server_round(params)
        zero_server.add_report(zeroed, reports[0][1])
        zero_server.add_report(*reports[1])
        zero_head = zero_server.server_round(params)
        assert len(matching_calls) == 2 * algo.ff_steps
        assert matching_calls[0][0] == [0, 1, 2]
        np.testing.assert_array_equal(nan_head, zero_head)
        np.testing.assert_array_equal(nan_server.features, zero_server.features)
        assert np.isfinite(nan_head).all()

    @pytest.mark.parametrize("num_reports", [1, 2, 10, 100])
    def test_folded_targets_equal_the_per_class_mean_bit_for_bit(
        self, rng, matching_calls, num_reports
    ):
        # Class 0 is reported by every client and class 3 by none. Planted
        # -0.0 entries catch a fold that starts from the first report rather
        # than from +0.0: the mean of -0.0 alone is +0.0.
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=5, init_seed=1)
        algo = AlgoConfig(algorithm="creff", rounds=1, ff_per_class=2, ff_steps=1,
                          retrain_steps=0)
        server = CreffServer(cfg, algo, seed=3)
        reports = []
        for _ in range(num_reports):
            counts = rng.integers(0, 3, cfg.num_classes)
            counts[0], counts[3] = 1, 0
            grads = rng.standard_normal((cfg.num_classes, cfg.head_size))
            grads[counts == 0] = np.nan
            grads[0, :4] = -0.0
            grads[rng.random(grads.shape) < 0.1] = -0.0
            reports.append((grads, counts))
            server.add_report(grads, counts)
        server.server_round(init_model(cfg))
        classes, means = _mean_targets(reports, cfg.num_classes)
        [(labels, targets)] = matching_calls
        assert labels == classes
        assert targets.tobytes() == means.tobytes()

    def test_a_round_sees_only_the_reports_folded_after_the_last(self, rng, matching_calls):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=4, init_seed=1)
        algo = AlgoConfig(algorithm="creff", rounds=2, ff_per_class=2, ff_steps=1,
                          retrain_steps=0)
        params = init_model(cfg)
        server = CreffServer(cfg, algo, seed=3)
        x = rng.standard_normal((12, 3))
        first = _creff_report(params, cfg, x[:6], np.repeat([0, 1], 3))
        second = [_creff_report(params, cfg, x[6:], np.repeat([1, 2], 3)),
                  _creff_report(params, cfg, x[:6], np.repeat([2, 1], 3))]
        server.add_report(*first)
        server.server_round(params)
        for report in second:
            server.add_report(*report)
        server.server_round(params)
        classes, means = _mean_targets(second, cfg.num_classes)
        assert classes == [1, 2]
        labels, targets = matching_calls[1]
        assert labels == classes
        assert targets.tobytes() == means.tobytes()


class TestAlgoConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlgoConfig(algorithm="sgd", rounds=1)
        with pytest.raises(ValueError):
            AlgoConfig(algorithm="fedavg", rounds=-1)
        with pytest.raises(ValueError):
            AlgoConfig(algorithm="fedavg", rounds=1, participation_fraction=0.0)
        with pytest.raises(ValueError):
            AlgoConfig(algorithm="fedprox", rounds=1, mu=-0.1)

    def test_zero_prototypes_per_class_rejected(self):
        with pytest.raises(ValueError, match="^ff_per_class must be >= 1$"):
            AlgoConfig(algorithm="creff", rounds=1, ff_per_class=0)

    @pytest.mark.parametrize("key", ["ff_steps", "retrain_steps"])
    def test_negative_step_count_rejected(self, key):
        with pytest.raises(ValueError, match="^ff_steps and retrain_steps must be >= 0$"):
            AlgoConfig(algorithm="creff", rounds=1, **{key: -1})
        AlgoConfig(algorithm="creff", rounds=1, **{key: 0})
