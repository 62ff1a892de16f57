"""Client update rules and server aggregation for the four FL algorithms.

* fedavg  - plain local SGD, server averages full parameter vectors weighted
            by client sample counts.
* fedprox - fedavg plus a proximal pull mu*(w - w_global) added to every
            batch gradient.
* fedper  - the representation block is shared and averaged; each client
            keeps its own classifier head across rounds.
* creff   - clients additionally report per-class head gradients at the
            frozen global model; the server maintains learnable per-class
            feature prototypes whose induced head gradients are optimized to
            match the averaged real ones, then re-trains the head on the
            balanced union of prototypes. All reported classes are matched
            together as one (C, P, F) batch, bit-identical to matching them
            one class at a time.

Unverified deviations of creff from the CReFF paper (Shang et al., IJCAI
2022, arXiv:2204.13399), kept until they are checked against its text:
per-class real gradients are averaged over clients unweighted (the paper may
weight them by client class counts); matching uses squared L2 distance (the
paper may use a cosine-style layerwise distance); the re-trained head
replaces the broadcast global head (the paper may use it for inference only).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import FltbenchError
from .nn import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    forward,
    sgd_epochs,
    softmax,
)

# Not called here. Kept because bench/tracer.py wraps this binding by name
# (fltbench.algorithms.loss_and_grad) and cannot install without it.
from .nn import loss_and_grad  # noqa: F401
from .seeding import rng_from

logger = logging.getLogger(__name__)

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
    n_k: int
    head_class_grads: dict[int, np.ndarray] | None = None


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
    return ClientUpdate(client_id=client_id, params=trained, n_k=shard_y.shape[0])


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
    return ClientUpdate(client_id=client_id, params=trained, n_k=shard_y.shape[0])


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
    return ClientUpdate(client_id=client_id, params=trained, n_k=shard_y.shape[0])


def _weighted_mean(
    updates: list[ClientUpdate], with_head: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sample-count-weighted mean of the rep blocks and, with_head set, of the
    head blocks, accumulated in client-id order."""
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.n_k for u in ordered)
    if total <= 0:
        raise ValueError("total sample count is zero")
    rep = np.zeros_like(ordered[0].params.rep_block)
    head = np.zeros_like(ordered[0].params.head_block) if with_head else None
    for u in ordered:
        weight = u.n_k / total
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
) -> dict[int, np.ndarray]:
    """Per-class gradients of the head at the frozen global model.

    For every class present in the shard, the mean cross-entropy gradient of
    the head block over that class's samples (no weight decay). Absent
    classes are simply missing from the dict, never reported as zero. Only
    the head gradient is formed; the representation block is not backpropagated.
    """
    grads: dict[int, np.ndarray] = {}
    for cls in np.unique(shard_y):
        feats, logits = forward(global_params, model_config, shard_x[shard_y == cls])
        g_w, g_b = head_gradient_from_logits(feats, logits, int(cls))
        grads[int(cls)] = np.concatenate([g_w.ravel(), g_b])
    return grads


def head_gradient_from_logits(
    features: np.ndarray, logits: np.ndarray, label: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean head gradient (dW, db) of a batch of same-label samples, given
    their penultimate features and the logits the head maps them to."""
    delta = softmax(logits)
    delta[:, label] -= 1.0
    delta /= features.shape[0]
    return delta.T @ features, delta.sum(axis=0)


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
    step, computed in place on views of one head copy.
    """
    m, per_class, feat_dim = features.shape
    if not np.isfinite(features).all():
        raise FltbenchError("feature prototypes contain non-finite values")
    n = m * per_class
    x = features.reshape(n, feat_dim)
    y = np.repeat(np.arange(m, dtype=np.int64), per_class)
    rows = np.arange(n)
    head = head_block.copy()
    w = head[: m * feat_dim].reshape(m, feat_dim)
    b = head[m * feat_dim :]
    for _ in range(steps):
        z = x @ w.T
        z += b
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
        z[rows, y] -= 1.0
        z /= n
        w -= learning_rate * (z.T @ x)
        b -= learning_rate * z.sum(axis=0)
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
        self, global_params: ModelParams, client_grads: list[dict[int, np.ndarray]]
    ) -> np.ndarray:
        """One aggregation step: match prototypes, then return a re-trained head.

        All reported classes are matched together as one (C, P, F) batch;
        prototypes of classes no client reported are kept as they are.
        """
        cfg = self.model_config
        m, f = cfg.num_classes, cfg.feature_dim
        w = global_params.head_block[: m * f].reshape(m, f)
        b = global_params.head_block[m * f :]
        classes, targets = [], []
        for cls in range(m):
            reported = [g[cls] for g in client_grads if cls in g]
            if not reported:
                logger.debug("no client reported class %d this round; prototypes kept", cls)
                continue
            classes.append(cls)
            targets.append(np.mean(reported, axis=0))
        if classes:
            labels = np.array(classes, dtype=np.int64)
            target = np.stack(targets)
            target_w = target[:, : m * f].reshape(len(classes), m, f)
            target_b = target[:, m * f :]
            feats = self.features[labels]
            for step in range(self.algo_config.ff_steps):
                _, d_feats = matching_loss_and_grad(feats, labels, w, b, target_w, target_b)
                feats = feats - self.algo_config.ff_lr * d_feats
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
