"""Engine tests: shapes, forward math, gradient oracle, SGD, evaluation."""
import math

import numpy as np
import pytest

import fltbench.nn
from fltbench.datasets import Dataset, generate_synthetic
from fltbench.errors import ConfigError, FltbenchError
from fltbench.nn import (
    Metrics,
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    loss_and_grad,
    predict,
    save_checkpoint,
    sgd_epochs,
    softmax,
)
from fltbench.seeding import rng_from

from conftest import as_vector, split_vector


def finite_difference_grad(params, cfg, x, y, weight_decay=0.0, eps=1e-5):
    """Central-difference gradient of the full loss; the independent oracle."""
    vec = as_vector(params)
    out = np.zeros_like(vec)
    for i in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[i] += eps
        minus[i] -= eps
        lp, _ = loss_and_grad(split_vector(cfg, plus), cfg, x, y, weight_decay)
        lm, _ = loss_and_grad(split_vector(cfg, minus), cfg, x, y, weight_decay)
        out[i] = (lp - lm) / (2 * eps)
    return out


def fd_safe_batch(params, cfg, rng, n, margin=1e-3):
    """Draw a batch whose hidden pre-activations stay clear of the ReLU kink.

    Central differences are only valid where the loss is locally smooth, so
    probe points within the finite-difference step of a kink are rejected.
    """
    for _ in range(100):
        x = rng.standard_normal((n, cfg.input_dim))
        y = rng.integers(0, cfg.num_classes, n)
        if cfg.hidden_units is None:
            return x, y
        w1 = params.rep_block.reshape(cfg.input_dim + 1, cfg.hidden_units)
        pre = x @ w1[:-1] + w1[-1]
        if np.min(np.abs(pre)) > margin:
            return x, y
    raise AssertionError("could not find a kink-free batch")


def _softmax_reference(z):
    """Softmax down the class axis of class-major (M, B) logits, into fresh
    arrays."""
    e = np.exp(z - z.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def _loss_and_grad_reference(params, cfg, batch_x, batch_y, weight_decay=0.0):
    """loss_and_grad written with fresh arrays for every intermediate and
    np.concatenate for the gradient blocks: the rep block is the (d+1, h)
    matrix [W1^T; b1], the logits are class-major (M, B), and rows with a
    trailing ones column take the bias through the products. The exactness
    reference."""
    x = np.asarray(batch_x, dtype=np.float64)
    y = np.asarray(batch_y, dtype=np.int64)
    f, m = cfg.feature_dim, cfg.num_classes
    w2 = params.head_block[: m * f].reshape(m, f)
    b2 = params.head_block[m * f :]
    ones = False
    if cfg.hidden_units is None:
        pre, feats = None, x
    else:
        d = cfg.input_dim
        w1 = params.rep_block.reshape(d + 1, cfg.hidden_units)
        ones = x.shape[1] == d + 1
        pre = x @ w1 if ones else x @ w1[:d] + w1[d]
        feats = np.maximum(pre, 0.0)
    logits = w2 @ feats.T + b2[:, None]
    n = y.shape[0]
    probs = _softmax_reference(logits)
    loss = float(-np.mean(np.log(np.maximum(probs[y, np.arange(n)], 1e-300))))
    delta = probs.copy()
    delta[y, np.arange(n)] -= 1.0
    delta = delta / n
    grad_head = np.concatenate([(delta @ feats).ravel(), delta.sum(axis=1)])
    if pre is None:
        grad_rep = np.empty(0, dtype=np.float64)
    else:
        dpre = (delta.T @ w2) * (pre > 0.0)
        grad_w1 = (x.T @ dpre).ravel()
        grad_rep = grad_w1 if ones else np.concatenate([grad_w1, dpre.sum(axis=0)])
    if weight_decay != 0.0:
        loss += 0.5 * weight_decay * (
            float(params.rep_block @ params.rep_block)
            + float(params.head_block @ params.head_block)
        )
        grad_rep = grad_rep + weight_decay * params.rep_block
        grad_head = grad_head + weight_decay * params.head_block
    return loss, ModelParams(grad_rep, grad_head)


def _sgd_reference(params, cfg, tc, shard_x, shard_y, prox_mu=0.0):
    """The sgd_epochs loop with fresh arrays: each epoch's shuffled rows get
    a ones column for mlp1h, and each step updates the blocks one by one."""
    w = params.copy()
    rng = rng_from(tc.shuffle_seed)
    n = shard_y.shape[0]
    for _ in range(tc.local_epochs):
        order = rng.permutation(n)
        xs = shard_x[order]
        if cfg.hidden_units is not None:
            xs = np.hstack([xs, np.ones((n, 1))])
        for start in range(0, n, tc.batch_size):
            batch = slice(start, start + tc.batch_size)
            _, grad = _loss_and_grad_reference(
                w, cfg, xs[batch], shard_y[order][batch], tc.weight_decay
            )
            if prox_mu:
                grad.rep_block = grad.rep_block + prox_mu * (w.rep_block - params.rep_block)
                grad.head_block = grad.head_block + prox_mu * (w.head_block - params.head_block)
            w.rep_block -= tc.learning_rate * grad.rep_block
            w.head_block -= tc.learning_rate * grad.head_block
    return w


# The benchmark's model shape: 5 inputs, 200 hidden units, 10 classes.
BENCH_ARCHS = [("linear_softmax", None), ("mlp1h", 200)]


class TestInit:
    def test_linear_shapes(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=4, num_classes=3)
        params = init_model(cfg)
        assert params.rep_block.size == 0
        assert params.head_block.size == 3 * 4 + 3

    def test_mlp_shapes(self):
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=3, hidden_units=7)
        params = init_model(cfg)
        assert params.rep_block.size == 7 * 4 + 7
        assert params.head_block.size == 3 * 7 + 3

    def test_same_seed_identical(self):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=4, init_seed=3, hidden_units=6)
        a, b = init_model(cfg), init_model(cfg)
        assert a.rep_block.tobytes() == b.rep_block.tobytes()
        assert a.head_block.tobytes() == b.head_block.tobytes()

    def test_biases_are_zero(self):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=4, init_seed=3, hidden_units=6)
        params = init_model(cfg)
        assert (params.rep_block[5 * 6 :] == 0).all()
        assert (params.head_block[4 * 6 :] == 0).all()

    def test_rep_block_is_the_drawn_w1_transposed_then_the_bias(self):
        # init_model draws W1 as (h, d) and stores [W1^T; b1]: the draws are
        # the ones a row-major (h, d) layout stored, element for element.
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=4, init_seed=3, hidden_units=6)
        w1 = rng_from(3).uniform(-1.0, 1.0, size=(6, 5)) / np.sqrt(5)
        rep = init_model(cfg).rep_block.reshape(5 + 1, 6)
        np.testing.assert_array_equal(rep[:5], w1.T)
        np.testing.assert_array_equal(rep[5], np.zeros(6))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(arch="cnn", input_dim=4, num_classes=3)
        with pytest.raises(ValueError):
            ModelConfig(arch="mlp1h", input_dim=4, num_classes=3)
        with pytest.raises(ValueError):
            ModelConfig(arch="linear_softmax", input_dim=4, num_classes=3, hidden_units=5)


class TestForward:
    def test_zero_weights_give_uniform_logits(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=4)
        params = init_model(cfg)
        params.head_block[:] = 0.0
        _, logits = forward(params, cfg, np.random.default_rng(0).standard_normal((5, 3)))
        np.testing.assert_array_equal(logits, np.zeros((4, 5)))

    def test_linear_features_are_inputs(self, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=2)
        params = init_model(cfg)
        x = rng.standard_normal((4, 3))
        feats, _ = forward(params, cfg, x)
        np.testing.assert_array_equal(feats, x)

    def test_hand_computed_single_hidden_unit(self):
        # One hidden unit, 2 inputs, 2 classes, all weights written by hand:
        # h = relu(1*x0 - 1*x1 + 0.5); logits = [2h + 1, -h], one column per row.
        cfg = ModelConfig(arch="mlp1h", input_dim=2, num_classes=2, hidden_units=1)
        params = ModelParams(
            rep_block=np.array([1.0, -1.0, 0.5]),
            head_block=np.array([2.0, -1.0, 1.0, 0.0]),
        )
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        feats, logits = forward(params, cfg, x)
        np.testing.assert_allclose(feats, [[1.5], [0.0]])
        np.testing.assert_allclose(logits, [[4.0, 1.0], [-1.5, 0.0]])

    def test_ones_column_carries_the_bias(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=10, init_seed=2,
                          hidden_units=200)
        params = init_model(cfg)
        params.rep_block += 0.1 * rng.standard_normal(params.rep_block.shape)
        x = 3.0 * rng.standard_normal((64, 5))
        feats, logits = forward(params, cfg, x)
        ones_feats, ones_logits = forward(params, cfg, np.hstack([x, np.ones((64, 1))]))
        np.testing.assert_allclose(ones_feats, feats, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ones_logits, logits, rtol=1e-12, atol=1e-12)


class TestSoftmax:
    # Row-major batches along the last axis, as the tests' references pass
    # them; the class axis of class-major matching logits (axis 1) and head
    # re-training logits (axis 0); and the default axis -2, the class axis
    # of forward's (M, B) SGD and CReFF client logits and (G, M, B) stacks.
    @pytest.mark.parametrize("shape, axis", [
        ((64, 10), -1), ((247, 10), -1), ((10, 10, 20), 1), ((10, 200), 0), ((10, 1000), 0),
        ((10, 64), None), ((10, 247), None), ((3, 10, 256), None),
    ])
    def test_in_place_equals_allocating_bit_for_bit(self, rng, shape, axis):
        z = 5.0 * rng.standard_normal(shape)
        ax = -2 if axis is None else axis
        shifted = z - z.max(axis=ax, keepdims=True)
        e = np.exp(shifted)
        expected = e / e.sum(axis=ax, keepdims=True)
        out = softmax(z) if axis is None else softmax(z, axis)
        assert out is z
        np.testing.assert_array_equal(out, expected)


def _stack_case(arch, g, n, heads, num_classes=10, seed=0):
    """Model, (G, n, 5) features and the per-slice params for a stacked forward."""
    hidden = 200 if arch == "mlp1h" else None
    cfg = ModelConfig(arch=arch, input_dim=5, num_classes=num_classes, init_seed=seed,
                      hidden_units=hidden)
    params = init_model(cfg)
    x = 3.0 * rng_from(seed + 1).standard_normal((g, n, 5))
    if heads == "shared":
        return cfg, params, x, params, [params] * g
    stacked = np.stack([init_model(ModelConfig(arch=arch, input_dim=5, num_classes=num_classes,
                                               init_seed=seed + 10 + i, hidden_units=hidden)
                                   ).head_block for i in range(g)])
    per_slice = [ModelParams(params.rep_block, stacked[i]) for i in range(g)]
    return cfg, params, x, ModelParams(params.rep_block, stacked), per_slice


def _predict_reference(params, cfg, x):
    """The per-dataset blocked argmax that evaluate ran before predict existed."""
    blocks = np.array_split(x, -(-len(x) // fltbench.nn.EVAL_BLOCK_ROWS))
    return np.concatenate([np.argmax(forward(params, cfg, b)[1], axis=0) for b in blocks])


class TestStackedForward:
    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp1h"])
    @pytest.mark.parametrize("heads", ["shared", "stacked"])
    @pytest.mark.parametrize("g", [1, 3, 20])
    @pytest.mark.parametrize("n", [1, 16, 255, 256])
    def test_each_slice_equals_a_lone_forward(self, arch, heads, g, n):
        cfg, _, x, stacked_params, per_slice = _stack_case(arch, g, n, heads)
        feats, logits = forward(stacked_params, cfg, x)
        assert logits.shape == (g, 10, n)
        for i in range(g):
            lone_feats, lone_logits = forward(per_slice[i], cfg, x[i])
            np.testing.assert_array_equal(feats[i], lone_feats)
            np.testing.assert_array_equal(logits[i], lone_logits)

    @pytest.mark.parametrize("heads", ["shared", "stacked"])
    @pytest.mark.parametrize("num_classes", [2, 100])
    def test_class_count_extremes(self, heads, num_classes):
        cfg, _, x, stacked_params, per_slice = _stack_case("mlp1h", 3, 16, heads, num_classes)
        _, logits = forward(stacked_params, cfg, x)
        for i in range(3):
            np.testing.assert_array_equal(logits[i], forward(per_slice[i], cfg, x[i])[1])

    def test_one_dimensional_batch_rejected(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2)
        with pytest.raises(ValueError):
            forward(init_model(cfg), cfg, np.zeros(2))


class TestPredict:
    @pytest.mark.parametrize("arch", ["linear_softmax", "mlp1h"])
    @pytest.mark.parametrize("heads", ["shared", "stacked"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_equals_per_client_blocked_argmax(self, arch, heads, n):
        cfg, _, x, stacked_params, per_slice = _stack_case(arch, 3, n, heads)
        preds = predict(stacked_params, cfg, x)
        assert preds.shape == (3, n)
        for i in range(3):
            expected = _predict_reference(per_slice[i], cfg, x[i])
            np.testing.assert_array_equal(preds[i], expected)
            np.testing.assert_array_equal(predict(per_slice[i], cfg, x[i]), expected)

    @pytest.mark.parametrize("heads", ["shared", "stacked"])
    @pytest.mark.parametrize("n", [1, 257, 600])
    def test_blocks_go_through_forward(self, monkeypatch, heads, n):
        cfg, _, x, stacked_params, per_slice = _stack_case("mlp1h", 2, n, heads)
        blocks = []

        def recording(*args):
            out = forward(*args)
            blocks.append(out[1])
            return out

        monkeypatch.setattr(fltbench.nn, "forward", recording)
        predict(stacked_params, cfg, x)
        assert max(b.shape[-1] for b in blocks) <= fltbench.nn.EVAL_BLOCK_ROWS
        assert len(blocks) == -(-n // fltbench.nn.EVAL_BLOCK_ROWS)
        # With 10 classes, equal blocks give the bits of one pass per slice.
        logits = np.concatenate(blocks, axis=-1)
        for i in range(2):
            np.testing.assert_array_equal(logits[i], forward(per_slice[i], cfg, x[i])[1])


class TestLossAndGrad:
    def test_zero_weight_loss_is_log_m(self, rng):
        for m in (2, 5, 10):
            cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=m)
            params = init_model(cfg)
            params.head_block[:] = 0.0
            x = rng.standard_normal((6, 3))
            y = rng.integers(0, m, 6)
            loss, _ = loss_and_grad(params, cfg, x, y)
            assert loss == pytest.approx(np.log(m), abs=1e-12)

    def test_duplicated_batch_leaves_loss_and_grad_unchanged(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=3, init_seed=1, hidden_units=5)
        params = init_model(cfg)
        x = rng.standard_normal((7, 4))
        y = rng.integers(0, 3, 7)
        loss1, g1 = loss_and_grad(params, cfg, x, y, 0.01)
        loss2, g2 = loss_and_grad(params, cfg, np.tile(x, (2, 1)), np.tile(y, 2), 0.01)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(g1.head_block, g2.head_block, atol=1e-12)
        np.testing.assert_allclose(g1.rep_block, g2.rep_block, atol=1e-12)

    def test_batch_permutation_invariance(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=3, init_seed=2, hidden_units=5)
        params = init_model(cfg)
        x = rng.standard_normal((9, 4))
        y = rng.integers(0, 3, 9)
        perm = rng.permutation(9)
        loss1, g1 = loss_and_grad(params, cfg, x, y)
        loss2, g2 = loss_and_grad(params, cfg, x[perm], y[perm])
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(g1.head_block, g2.head_block, atol=1e-12)

    @pytest.mark.parametrize("arch,hidden", [("linear_softmax", None), ("mlp1h", 5)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_gradient_matches_finite_differences(self, rng, arch, hidden, weight_decay):
        cfg = ModelConfig(
            arch=arch, input_dim=4, num_classes=3,
            init_seed=int(rng.integers(1 << 30)), hidden_units=hidden,
        )
        params = init_model(cfg)
        x, y = fd_safe_batch(params, cfg, rng, 6)
        _, grad = loss_and_grad(params, cfg, x, y, weight_decay)
        analytic = np.concatenate([grad.rep_block, grad.head_block])
        oracle = finite_difference_grad(params, cfg, x, y, weight_decay)
        # Floored denominator: truncation noise on near-zero components must
        # not swamp the comparison.
        rel = np.abs(analytic - oracle) / np.maximum(np.abs(oracle), 1e-3)
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("arch,hidden", BENCH_ARCHS)
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("n", [64, 23])
    def test_bitwise_equal_to_reference(self, rng, arch, hidden, weight_decay, n):
        self._check_bitwise(rng, arch, hidden, weight_decay, n, ones=False)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("n", [64, 23])
    def test_ones_column_bitwise_equal_to_reference(self, rng, weight_decay, n):
        # The rows local SGD passes: the bias comes through the products.
        self._check_bitwise(rng, "mlp1h", 200, weight_decay, n, ones=True)

    @staticmethod
    def _check_bitwise(rng, arch, hidden, weight_decay, n, ones):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=10, init_seed=3,
                          hidden_units=hidden)
        params = init_model(cfg)
        params.rep_block += 0.01 * rng.standard_normal(params.rep_block.shape)
        params.head_block += 0.01 * rng.standard_normal(params.head_block.shape)
        x = 3.0 * rng.standard_normal((n, 5))
        if ones:
            x = np.hstack([x, np.ones((n, 1))])
        y = rng.integers(0, 10, n)
        loss, grad = loss_and_grad(params, cfg, x, y, weight_decay)
        ref_loss, ref = _loss_and_grad_reference(params, cfg, x, y, weight_decay)
        assert loss == ref_loss
        np.testing.assert_array_equal(grad.head_block, ref.head_block)
        np.testing.assert_array_equal(grad.rep_block, ref.rep_block)

    @pytest.mark.parametrize("arch,hidden", BENCH_ARCHS)
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_out_writes_the_same_gradient_bytes_in_place(self, rng, arch, hidden, weight_decay):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=10, init_seed=3,
                          hidden_units=hidden)
        params = init_model(cfg)
        params.head_block += 0.01 * rng.standard_normal(params.head_block.shape)
        x = 3.0 * rng.standard_normal((64, 5))
        y = rng.integers(0, 10, 64)
        _, ref = loss_and_grad(params, cfg, x, y, weight_decay)
        # Views into one buffer, as sgd_epochs passes them; NaN shows any
        # element left unwritten.
        buffer = np.full(cfg.rep_size + cfg.head_size, np.nan)
        rep, head = buffer[: cfg.rep_size], buffer[cfg.rep_size :]
        out = ModelParams(rep, head)
        loss, grad = loss_and_grad(params, cfg, x, y, weight_decay, out=out)
        assert loss is None
        assert grad is out and out.rep_block is rep and out.head_block is head
        assert buffer.tobytes() == ref.rep_block.tobytes() + ref.head_block.tobytes()


class TestBlocks:
    def test_split_concat_round_trip(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=3, num_classes=4, init_seed=8, hidden_units=6)
        params = init_model(cfg)
        back = split_vector(cfg, as_vector(params))
        np.testing.assert_array_equal(back.rep_block, params.rep_block)
        np.testing.assert_array_equal(back.head_block, params.head_block)

    def test_split_rejects_wrong_length(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=4)
        with pytest.raises(ValueError):
            split_vector(cfg, np.zeros(7))


class TestSgd:
    def test_zero_learning_rate_is_noop(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=3, num_classes=2, init_seed=0, hidden_units=4)
        params = init_model(cfg)
        tc = TrainConfig(learning_rate=0.0, batch_size=4, local_epochs=3, shuffle_seed=1)
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 2, 10)
        out = sgd_epochs(params, cfg, tc, x, y)
        np.testing.assert_array_equal(out.rep_block, params.rep_block)
        np.testing.assert_array_equal(out.head_block, params.head_block)

    def test_one_full_batch_epoch_equals_single_step(self, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=3, init_seed=4)
        params = init_model(cfg)
        x = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        tc = TrainConfig(learning_rate=0.2, batch_size=8, local_epochs=1, shuffle_seed=5)
        stepped = sgd_epochs(params, cfg, tc, x, y)
        _, grad = loss_and_grad(params, cfg, x, y)
        np.testing.assert_allclose(
            stepped.head_block, params.head_block - 0.2 * grad.head_block, atol=1e-15
        )

    def test_descent_on_separable_data(self):
        ds = generate_synthetic(4, 40, 8, 0.5, seed=3)
        cfg = ModelConfig(arch="linear_softmax", input_dim=8, num_classes=4, init_seed=1)
        params = init_model(cfg)
        loss_before, _ = loss_and_grad(params, cfg, ds.features, ds.labels)
        tc = TrainConfig(learning_rate=0.2, batch_size=16, local_epochs=50, shuffle_seed=2)
        trained = sgd_epochs(params, cfg, tc, ds.features, ds.labels)
        loss_after, _ = loss_and_grad(trained, cfg, ds.features, ds.labels)
        assert loss_after < loss_before

    def test_trajectory_bitwise_deterministic(self, rng):
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=3, init_seed=6, hidden_units=5)
        params = init_model(cfg)
        x = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, 20)
        tc = TrainConfig(learning_rate=0.1, batch_size=6, local_epochs=4, shuffle_seed=9)
        a = sgd_epochs(params, cfg, tc, x, y)
        b = sgd_epochs(params, cfg, tc, x, y)
        assert a.rep_block.tobytes() == b.rep_block.tobytes()
        assert a.head_block.tobytes() == b.head_block.tobytes()

    def test_last_short_batch_is_used(self, rng):
        # 5 samples with batch size 4: the second batch holds one sample and
        # must still move the parameters.
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2, init_seed=0)
        params = init_model(cfg)
        x = rng.standard_normal((5, 2))
        y = np.array([0, 1, 0, 1, 0])
        tc_full = TrainConfig(learning_rate=0.5, batch_size=5, local_epochs=1, shuffle_seed=3)
        tc_split = TrainConfig(learning_rate=0.5, batch_size=4, local_epochs=1, shuffle_seed=3)
        full = sgd_epochs(params, cfg, tc_full, x, y)
        split = sgd_epochs(params, cfg, tc_split, x, y)
        assert not np.array_equal(full.head_block, split.head_block)

    def test_empty_shard_rejected(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2)
        tc = TrainConfig(learning_rate=0.1, batch_size=4)
        with pytest.raises(FltbenchError, match="^cannot train on an empty shard$"):
            sgd_epochs(init_model(cfg), cfg, tc, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("arch,hidden", BENCH_ARCHS)
    @pytest.mark.parametrize("proximal", [False, True])
    def test_bitwise_equal_to_reference_loop(self, rng, arch, hidden, proximal):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=10, init_seed=4,
                          hidden_units=hidden)
        params = init_model(cfg)
        x = 3.0 * rng.standard_normal((150, 5))
        y = rng.integers(0, 10, 150)
        tc = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=2,
                         weight_decay=1e-4, shuffle_seed=12)
        mu = 0.01 if proximal else 0.0
        out = sgd_epochs(params, cfg, tc, x, y, prox_mu=mu)
        ref = _sgd_reference(params, cfg, tc, x, y, prox_mu=mu)
        np.testing.assert_array_equal(out.rep_block, ref.rep_block)
        np.testing.assert_array_equal(out.head_block, ref.head_block)

    @pytest.mark.parametrize("arch,hidden", BENCH_ARCHS)
    @pytest.mark.parametrize("proximal", [False, True])
    def test_input_params_left_unchanged(self, rng, arch, hidden, proximal):
        cfg = ModelConfig(arch=arch, input_dim=5, num_classes=10, init_seed=4,
                          hidden_units=hidden)
        params = init_model(cfg)
        before = (params.rep_block.tobytes(), params.head_block.tobytes())
        tc = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=2,
                         weight_decay=1e-4, shuffle_seed=12)
        out = sgd_epochs(params, cfg, tc, 3.0 * rng.standard_normal((150, 5)),
                         rng.integers(0, 10, 150), prox_mu=0.01 if proximal else 0.0)
        assert (params.rep_block.tobytes(), params.head_block.tobytes()) == before
        assert out.head_block.tobytes() != before[1]

    def test_one_loss_and_grad_call_per_batch(self, rng, monkeypatch):
        # bench/tracer.py counts SGD rows from args[3] of calls that go
        # through the fltbench.nn.loss_and_grad binding.
        rows = []
        real = fltbench.nn.loss_and_grad

        def counting(*args, **kwargs):
            rows.append(len(args[3]))
            return real(*args, **kwargs)

        monkeypatch.setattr(fltbench.nn, "loss_and_grad", counting)
        cfg = ModelConfig(arch="mlp1h", input_dim=3, num_classes=4, hidden_units=6)
        n, epochs = 150, 3
        tc = TrainConfig(learning_rate=0.1, batch_size=64, local_epochs=epochs)
        sgd_epochs(init_model(cfg), cfg, tc, rng.standard_normal((n, 3)),
                   rng.integers(0, 4, n))
        assert len(rows) == epochs * math.ceil(n / 64)
        assert sum(rows) == epochs * n

    def test_non_finite_shard_rejected(self, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2)
        tc = TrainConfig(learning_rate=0.1, batch_size=4)
        x = rng.standard_normal((6, 2))
        x[4, 1] = np.inf
        with pytest.raises(ValueError):
            sgd_epochs(init_model(cfg), cfg, tc, x, np.zeros(6, dtype=np.int64))

    def test_proximal_pull_contributes_to_every_batch(self, rng):
        # Two batches of 4 in one epoch: the first starts at the anchor, where
        # the pull is zero; the second adds mu * (w - anchor) to its gradient.
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2, init_seed=0)
        params = init_model(cfg)
        x = rng.standard_normal((8, 2))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        mu, lr = 2.0, 0.1
        tc = TrainConfig(learning_rate=lr, batch_size=4, local_epochs=1, shuffle_seed=0)
        pulled = sgd_epochs(params, cfg, tc, x, y, prox_mu=mu)
        order = rng_from(0).permutation(8)
        w = params.copy()
        for batch in (order[:4], order[4:]):
            _, grad = loss_and_grad(w, cfg, x[batch], y[batch])
            step = grad.head_block + mu * (w.head_block - params.head_block)
            w.head_block = w.head_block - lr * step
        np.testing.assert_allclose(pulled.head_block, w.head_block, rtol=0, atol=1e-15)
        plain = sgd_epochs(params, cfg, tc, x, y)
        assert not np.allclose(plain.head_block, pulled.head_block, rtol=0, atol=1e-9)


class TestEvaluate:
    def test_constant_predictor_on_balanced_data(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=3, num_classes=10)
        params = init_model(cfg)
        params.head_block[:] = 0.0  # all logits zero, argmax tie -> class 0
        ds = generate_synthetic(10, 20, 3, 0.5, seed=0)
        metrics = evaluate(params, cfg, ds)
        assert metrics.accuracy == pytest.approx(0.1)
        assert metrics.per_class_accuracy[0] == 1.0
        assert metrics.per_class_accuracy[1:].sum() == 0.0

    def test_per_class_recomposes_overall(self):
        ds = generate_synthetic(5, 30, 4, 0.5, seed=2)
        cfg = ModelConfig(arch="mlp1h", input_dim=4, num_classes=5, init_seed=3, hidden_units=8)
        metrics = evaluate(init_model(cfg), cfg, ds)
        weighted = (metrics.per_class_accuracy * metrics.per_class_counts).sum()
        assert weighted / metrics.num_samples == pytest.approx(metrics.accuracy)

    def test_group_accuracy_recomposes_overall(self):
        ds = generate_synthetic(6, 25, 4, 0.5, seed=5)
        cfg = ModelConfig(arch="linear_softmax", input_dim=4, num_classes=6, init_seed=1)
        groups = {0: "head", 1: "head", 2: "medium", 3: "medium", 4: "tail", 5: "tail"}
        metrics = evaluate(init_model(cfg), cfg, ds, groups)
        total = 0.0
        for name in ("head", "medium", "tail"):
            members = [c for c, g in groups.items() if g == name]
            total += metrics.group_accuracy[name] * metrics.per_class_counts[members].sum()
        assert total / metrics.num_samples == pytest.approx(metrics.accuracy)

    def test_trained_model_beats_chance_comfortably(self):
        train = generate_synthetic(10, 300, 32, 0.5, seed=1)
        test = generate_synthetic(10, 60, 32, 0.5, seed=2)
        cfg = ModelConfig(arch="linear_softmax", input_dim=32, num_classes=10, init_seed=0)
        tc = TrainConfig(learning_rate=0.5, batch_size=64, local_epochs=20, shuffle_seed=4)
        trained = sgd_epochs(init_model(cfg), cfg, tc, train.features, train.labels)
        assert evaluate(trained, cfg, test).accuracy >= 0.95

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600, 2000])
    def test_blocked_evaluate_equals_one_forward(self, rng, monkeypatch, n):
        cfg = ModelConfig(arch="mlp1h", input_dim=5, num_classes=10, init_seed=5,
                          hidden_units=200)
        params = init_model(cfg)
        x = 3.0 * rng.standard_normal((n, 5))
        _, logits = forward(params, cfg, x)
        blocks = []

        def recording(*args):
            out = forward(*args)
            blocks.append(out[1])
            return out

        monkeypatch.setattr(fltbench.nn, "forward", recording)
        # Labelled with the unblocked argmax, every blocked prediction is a hit.
        metrics = evaluate(params, cfg, Dataset(x, np.argmax(logits, axis=0), num_classes=10))
        assert metrics.accuracy == 1.0
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1), logits)
        assert max(b.shape[1] for b in blocks) <= fltbench.nn.EVAL_BLOCK_ROWS

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(arch="linear_softmax", input_dim=2, num_classes=2)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), num_classes=2)
        with pytest.raises(ValueError):
            evaluate(init_model(cfg), cfg, empty)


class TestOneBlasThread:
    def test_lookup_finds_numpys_openblas(self):
        # Without this, every other test here could pass on a silent no-op.
        assert fltbench.nn._openblas_threads() is not None

    def test_one_thread_inside_and_previous_count_after(self):
        get, set_threads = fltbench.nn._openblas_threads()
        previous = get()
        try:
            set_threads(2)
            with fltbench.nn.one_blas_thread():
                assert get() == 1
            assert get() == 2
        finally:
            set_threads(previous)

    def test_previous_count_restored_when_the_block_raises(self):
        get, set_threads = fltbench.nn._openblas_threads()
        previous = get()
        try:
            set_threads(2)
            with pytest.raises(KeyError):
                with fltbench.nn.one_blas_thread():
                    raise KeyError("boom")
            assert get() == 2
        finally:
            set_threads(previous)

    @pytest.mark.parametrize("count,calls", [(1, []), (3, [1, 3])])
    def test_setter_called_only_when_the_count_is_not_one(self, monkeypatch, count, calls):
        seen = []
        monkeypatch.setattr(fltbench.nn, "_openblas_threads", lambda: (lambda: count, seen.append))
        with fltbench.nn.one_blas_thread():
            pass
        assert seen == calls


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(arch="mlp1h", input_dim=6, num_classes=4, init_seed=11, hidden_units=9)
        params = init_model(cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params)
        back_cfg, back_params, ff = load_checkpoint(path)
        assert back_cfg == cfg
        np.testing.assert_array_equal(back_params.rep_block, params.rep_block)
        np.testing.assert_array_equal(back_params.head_block, params.head_block)
        assert ff is None

    def test_round_trip_with_feature_section(self, tmp_path, rng):
        cfg = ModelConfig(arch="linear_softmax", input_dim=5, num_classes=3, init_seed=2)
        params = init_model(cfg)
        ff = rng.standard_normal((3, 4, 5))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, cfg, params, federated_features=ff)
        _, _, back_ff = load_checkpoint(path)
        np.testing.assert_array_equal(back_ff, ff)

    def test_bad_magic(self, tmp_path):
        # FLTCKPT1 and FLTCKPT2 files hold older layouts: (h, d) rows of W1
        # in both, and several headers in the first.
        path = tmp_path / "junk.ckpt"
        for magic in (b"NOTACKPT", b"FLTCKPT1", b"FLTCKPT2"):
            path.write_bytes(magic + b"\x00" * 64)
            with pytest.raises(ConfigError, match="junk.ckpt: missing checkpoint header$"):
                load_checkpoint(path)

    # A checkpoint of this model is an 8-byte magic, a 36-byte header and 16
    # rep and 20 head float64s, 332 bytes; 4*2*4 prototype float64s make 588.
    # The prototype shape now lives in the header, so the "feature shape" and
    # "feature values" cuts (named for the sections they fell in when the
    # prototypes had a section of their own) both land in the prototype block.
    @pytest.mark.parametrize("section, cut", [
        ("header", 20), ("rep block", 44 + 54), ("head block", 44 + 128 + 54),
        ("feature shape", 44 + 288 + 12), ("feature values", 44 + 288 + 118),
    ])
    def test_truncated_file_is_a_config_error(self, tmp_path, rng, section, cut):
        cfg = ModelConfig(arch="mlp1h", input_dim=3, num_classes=4, init_seed=1, hidden_units=4)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, cfg, init_model(cfg), federated_features=rng.random((4, 2, 4)))
        blob = path.read_bytes()
        assert len(blob) == 44 + 288 + 256
        path.write_bytes(blob[:cut])
        with pytest.raises(ConfigError, match="cut.ckpt: truncated or malformed checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("ff_shape, size", [(None, 332), ((4, 2, 4), 588)],
                             ids=["no-prototypes", "prototypes"])
    def test_every_truncation_is_a_config_error(self, tmp_path, rng, ff_shape, size):
        cfg = ModelConfig(arch="mlp1h", input_dim=3, num_classes=4, init_seed=1, hidden_units=4)
        ff = None if ff_shape is None else rng.random(ff_shape)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, cfg, init_model(cfg), federated_features=ff)
        blob = path.read_bytes()
        assert len(blob) == size
        for cut in range(size):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError, match="cut.ckpt: (truncated or malformed checkpoint"
                                                  "|missing checkpoint header)"):
                load_checkpoint(path)

    def test_trailing_bytes_are_a_config_error(self, tmp_path):
        cfg = ModelConfig(arch="linear_softmax", input_dim=5, num_classes=3)
        path = tmp_path / "long.ckpt"
        save_checkpoint(path, cfg, init_model(cfg))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ConfigError, match="long.ckpt: truncated or malformed checkpoint: "
                                              "196 bytes, not the 188 its header implies"):
            load_checkpoint(path)

    def test_unknown_architecture_code_is_a_config_error(self, tmp_path):
        path = tmp_path / "arch.ckpt"
        path.write_bytes(fltbench.nn.CHECKPOINT_MAGIC
                         + fltbench.nn._CKPT_HEADER.pack(2, 0, 3, 2, 0, 0, 0, 0) + bytes(64))
        with pytest.raises(ConfigError, match="arch.ckpt: truncated or malformed checkpoint: "
                                              "unknown architecture code 2$"):
            load_checkpoint(path)

    def test_header_that_no_model_fits_is_a_config_error(self, tmp_path):
        # A linear model with one class, and the 4 head floats it would have.
        path = tmp_path / "one_class.ckpt"
        path.write_bytes(fltbench.nn.CHECKPOINT_MAGIC
                         + fltbench.nn._CKPT_HEADER.pack(0, 0, 3, 1, 0, 0, 0, 0) + bytes(32))
        with pytest.raises(ConfigError, match="one_class.ckpt: truncated or malformed checkpoint: "
                                              "input_dim must be >= 1 and num_classes >= 2"):
            load_checkpoint(path)
