"""Client update rules and server aggregation for the four FL algorithms.

* fedavg  - plain local SGD, server averages full parameter vectors weighted
            by client sample counts.
* fedprox - fedavg plus a proximal pull mu*(w - w_global) added to every
            batch gradient.
* fedper  - the representation block is shared and averaged; each client
            keeps its own classifier head across rounds.
* creff   - clients also report an (M, head_size) array whose row c is
            the mean head gradient of their class-c samples at the frozen
            global model, read where their class count is positive. The
            server maintains learnable per-class feature prototypes whose
            induced head gradients are optimized to match the averaged real
            ones, then re-trains the head on the balanced union of
            prototypes. All reported classes are matched together as one
            (C, P, F) batch, bit-identical to matching them one at a time.

Unverified deviations of creff from the CReFF paper (Shang et al., IJCAI
2022, arXiv:2204.13399), kept until they are checked against its text:
per-class real gradients are averaged over clients unweighted (the paper may
weight them by client class counts); matching uses squared L2 distance (the
paper may use a cosine-style layerwise distance); the re-trained head
replaces the broadcast global head (the paper may use it for inference only).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FltbenchError
from .nn import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    forward,
    head_views,
    sgd_epochs,
    softmax,
)

# Not called here. Kept because bench/tracer.py wraps this binding by name
# (fltbench.algorithms.loss_and_grad) and cannot install without it.
from .nn import loss_and_grad  # noqa: F401
from .seeding import rng_from

ALGO_FEDAVG = "fedavg"
ALGO_FEDPROX = "fedprox"
ALGO_FEDPER = "fedper"
ALGO_CREFF = "creff"
ALGORITHMS = (ALGO_FEDAVG, ALGO_FEDPROX, ALGO_FEDPER, ALGO_CREFF)


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    rounds: int
    participation_fraction: float = 1.0
    mu: float = 0.01
    ff_per_class: int = 100
    ff_steps: int = 100
    retrain_steps: int = 300
    ff_lr: float = 0.01
    retrain_lr: float = 0.1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {', '.join(ALGORITHMS)}, not {self.algorithm!r}"
            )
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must lie in (0, 1]")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.ff_per_class < 1:
            raise ValueError("ff_per_class must be >= 1")
        if self.ff_steps < 0 or self.retrain_steps < 0:
            raise ValueError("ff_steps and retrain_steps must be >= 0")


@dataclass
class ClientUpdate:
    client_id: int
    params: ModelParams
    class_counts: np.ndarray  # (M,): the client's samples of each class
    head_class_grads: np.ndarray | None = None  # CReFF: see creff_client_head_grads

    @property
    def n_k(self) -> int:
        return int(self.class_counts.sum())


def local_update_fedavg(
    global_params: ModelParams,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    client_id: int = 0,
) -> ClientUpdate:
    """Local epochs of SGD from the global model; returns full parameters."""
    trained = sgd_epochs(global_params, model_config, train_config, shard_x, shard_y)
    return ClientUpdate(client_id, trained, _class_counts(model_config, shard_y))


def local_update_fedprox(
    global_params: ModelParams,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    mu: float,
    client_id: int = 0,
) -> ClientUpdate:
    """FedAvg update with mu*(w - w_global) added to every batch gradient."""
    trained = sgd_epochs(
        global_params, model_config, train_config, shard_x, shard_y, prox_mu=mu
    )
    return ClientUpdate(client_id, trained, _class_counts(model_config, shard_y))


def local_update_fedper(
    global_params: ModelParams,
    local_head: np.ndarray,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    client_id: int = 0,
) -> ClientUpdate:
    """Train the shared representation together with the client's own head.

    The returned update carries the trained head only so the caller can
    persist it client-side; aggregation must use aggregate_rep_only.
    """
    start = ModelParams(global_params.rep_block, local_head)
    trained = sgd_epochs(start, model_config, train_config, shard_x, shard_y)
    return ClientUpdate(client_id, trained, _class_counts(model_config, shard_y))


def _class_counts(model_config: ModelConfig, shard_y: np.ndarray) -> np.ndarray:
    return np.bincount(shard_y, minlength=model_config.num_classes)


def _weighted_mean(
    updates: list[ClientUpdate], with_head: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sample-count-weighted mean of the rep blocks and, with_head set, of the
    head blocks, accumulated in client-id order."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    ordered = sorted(updates, key=lambda u: u.client_id)
    sizes = [u.n_k for u in ordered]
    total = sum(sizes)
    if total <= 0:
        raise ValueError("total sample count is zero")
    rep = np.zeros_like(ordered[0].params.rep_block)
    head = np.zeros_like(ordered[0].params.head_block) if with_head else None
    for u, size in zip(ordered, sizes):
        weight = size / total
        rep += weight * u.params.rep_block
        if with_head:
            head += weight * u.params.head_block
    return rep, head


def aggregate_weighted(updates: list[ClientUpdate]) -> ModelParams:
    """Sample-count-weighted mean of client parameters, in client-id order."""
    return ModelParams(*_weighted_mean(updates, with_head=True))


def aggregate_rep_only(updates: list[ClientUpdate], server_params: ModelParams) -> ModelParams:
    """Weighted mean of representation blocks; the server head is untouched."""
    rep, _ = _weighted_mean(updates, with_head=False)
    return ModelParams(rep, server_params.head_block.copy())


# ---------------------------------------------------------------------------
# CReFF: gradient-matched feature prototypes and head re-training
# ---------------------------------------------------------------------------

def creff_client_head_grads(
    global_params: ModelParams,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
) -> np.ndarray:
    """Per-class gradients of the head at the frozen global model.

    Row c of the (M, head_size) result is the mean cross-entropy gradient of
    the head block over the shard's class-c samples (no weight decay). Rows
    of classes absent from the shard hold NaN, never zero. Only the head
    gradient is formed; the representation block is not backpropagated.
    """
    m = model_config.num_classes
    grads = np.full((m, model_config.head_size), np.nan)
    grad_w, grad_b = head_views(grads, m)
    for cls in np.unique(shard_y):
        feats, logits = forward(global_params, model_config, shard_x[shard_y == cls])
        delta = softmax(logits)
        delta[:, cls] -= 1.0
        delta /= feats.shape[0]
        np.matmul(delta.T, feats, out=grad_w[cls])
        delta.sum(axis=0, out=grad_b[cls])
    return grads


def matching_loss_and_grad(
    features: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    target_w: np.ndarray,
    target_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class squared distance of induced from target head gradients, with dF.

    features is a (C, P, F) stack of prototypes, one (P, F) slice per class
    in labels (C,); target_w is (C, M, F) and target_b is (C, M). Each class
    slice goes through the same float operations as a lone (P, F) call would,
    so batching does not change a bit. Returns the (C,) losses and the
    (C, P, F) feature gradients.

    The induced gradient depends on the features both directly (outer
    product with the softmax error) and through the logits, so the feature
    gradient has two terms: U R / B plus the softmax backward of
    (F R^T + 1 r^T) / B mapped through W.
    """
    n = features.shape[1]
    logits = features @ w.T + b
    probs = softmax(logits)
    u = probs.copy()
    u[np.arange(labels.shape[0]), :, labels] -= 1.0
    g_w = u.transpose(0, 2, 1) @ features / n
    g_b = u.sum(axis=1) / n
    diff_w = g_w - target_w
    diff_b = g_b - target_b
    r_w = 2.0 * diff_w
    r_b = 2.0 * diff_b
    losses = (diff_w ** 2).sum(axis=(1, 2)) + (diff_b ** 2).sum(axis=1)

    direct = u @ r_w / n
    d_probs = (features @ r_w.transpose(0, 2, 1) + r_b[:, None, :]) / n
    d_logits = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    return losses, direct + d_logits @ w


def retrain_head(
    head_block: np.ndarray,
    features: np.ndarray,
    learning_rate: float,
    steps: int,
) -> np.ndarray:
    """Full-batch gradient descent of the head on labeled feature prototypes.

    features is (M, per_class, feature_dim), one slice per class; every
    prototype carries its class label, so the training set is balanced by
    construction. Each step is the linear-softmax cross-entropy gradient
    step on the n = M*per_class prototypes X, with the logits kept
    class-major, as an (M, n) array, so the softmax max and sum reduce down
    contiguous rows. The result is a fresh head; neither argument is
    modified. There are two evaluation orders:

    * loop order: each step computes the logits from the head and updates
      the head from the softmax error E_t, 2*M*n*(F+1) flops a step;
    * Gram order: since W -= (lr/n) E_t X and b -= (lr/n) E_t 1, the logits
      move by -E_t K with the fixed (n, n) K = (lr/n)(X X^T + 1 1^T). Each
      step's logits are the first ones minus S @ K, S being the sum of the
      errors so far (M*n*n flops a step, plus n*n*(F+1) once for K), and
      the head is recovered from S at the end.

    The Gram order runs only when it needs fewer flops,
    n*(F+1 + steps*M) < 2*steps*M*(F+1). That implies n < 2*(F+1), so K is
    never more than twice the size of the prototypes. Timed on one BLAS
    thread of a 2-vCPU VM, the rule picks the slower order only within
    about 13% of the crossover in n, by up to 22%; at the default 100
    prototypes for 10 classes and 200 features (n = 1000) the loop order
    is 2.2x faster. Both orders equal the row-major (n, M) loop up to
    rounding, not bit for bit, so CReFF output bytes changed when each was
    adopted.
    """
    m, per_class, feat_dim = features.shape
    if not np.isfinite(features).all():
        raise FltbenchError("feature prototypes contain non-finite values")
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


class CreffServer:
    """Server-side state: persistent per-class feature prototypes.

    Prototypes start from a seeded Gaussian and are refined every round so
    the head gradient they induce matches the averaged real head gradients
    reported by clients; the head is then re-trained on their balanced union.
    """

    def __init__(self, model_config: ModelConfig, algo_config: AlgoConfig, seed: int) -> None:
        self.model_config = model_config
        self.algo_config = algo_config
        self.features = rng_from(seed).standard_normal(
            (model_config.num_classes, algo_config.ff_per_class, model_config.feature_dim)
        )

    def server_round(
        self, global_params: ModelParams, updates: list[ClientUpdate]
    ) -> np.ndarray:
        """One aggregation step: match prototypes, then return a re-trained head.

        Class c's target is the mean of row c of head_class_grads over the
        updates with class-c samples. All reported classes are matched
        together as one (C, P, F) batch; the others keep their prototypes.
        """
        m = self.model_config.num_classes
        w, b = head_views(global_params.head_block, m)
        classes, targets = [], []
        for cls in range(m):
            reported = [u.head_class_grads[cls] for u in updates if u.class_counts[cls] > 0]
            if reported:
                classes.append(cls)
                targets.append(np.mean(reported, axis=0))
        if classes:
            labels = np.array(classes, dtype=np.int64)
            target_w, target_b = head_views(np.stack(targets), m)
            feats = self.features[labels]  # a copy: fancy indexing
            for step in range(self.algo_config.ff_steps):
                _, d_feats = matching_loss_and_grad(feats, labels, w, b, target_w, target_b)
                d_feats *= self.algo_config.ff_lr
                feats -= d_feats
                finite = np.isfinite(feats).all(axis=(1, 2))
                if not finite.all():
                    raise FltbenchError(
                        f"feature optimization diverged for class "
                        f"{classes[int(np.argmin(finite))]} at step {step}"
                    )
            self.features[labels] = feats
        return retrain_head(
            global_params.head_block,
            self.features,
            self.algo_config.retrain_lr,
            self.algo_config.retrain_steps,
        )
