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
            server folds each report into per-class sums and report counts
            as its client finishes, so it holds no report; a class's target,
            sum / count, is bit-equal to the unweighted mean of its reported
            rows. It maintains learnable per-class feature prototypes whose
            induced head gradients are optimized to match those targets,
            then re-trains the head on the balanced union of prototypes. A
            client's gradients come from forward passes over blocks of
            whole classes of its class-sorted shard. All reported classes
            are matched together as one (C, P, F) batch, bit-identical to
            matching them one at a time; a matching step returns the
            feature step and computes no loss. The server averages only the
            rep block; the head it broadcasts is the re-trained one.

Aggregation is a fold. A client's weight, its sample count over the summed
counts of the round's sampled clients, is known before any client trains. So
each client's trained params, times that weight, are added to the round's
running sums as soon as it finishes, in client-id order, starting from +0.0;
the server holds those sums and one client's params, never the round's
updates. FedPer and CReFF fold the rep block alone.

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

from .datasets import class_counts
from .errors import FltbenchError
from .nn import (
    EVAL_BLOCK_ROWS,
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


def local_update_fedavg(
    global_params: ModelParams,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Local epochs of SGD from the global model; returns full parameters."""
    return sgd_epochs(global_params, model_config, train_config, shard_x, shard_y, rng)


def local_update_fedprox(
    global_params: ModelParams,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    rng: np.random.Generator,
    mu: float,
) -> ModelParams:
    """FedAvg update with mu*(w - w_global) added to every batch gradient."""
    return sgd_epochs(
        global_params, model_config, train_config, shard_x, shard_y, rng, prox_mu=mu
    )


def local_update_fedper(
    global_params: ModelParams,
    local_head: np.ndarray,
    model_config: ModelConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    train_config: TrainConfig,
    rng: np.random.Generator,
) -> ModelParams:
    """Train the shared representation together with the client's own head.

    The returned params carry the trained head only so the caller can
    persist it client-side; aggregation must use aggregate_rep_only.
    """
    start = ModelParams(global_params.rep_block, local_head)
    return sgd_epochs(start, model_config, train_config, shard_x, shard_y, rng)


def aggregate_weighted(sums: ModelParams, params: ModelParams, weight: float) -> None:
    """Fold one client's trained params into the round's running weighted
    sums, block by block: sums += weight * params. The sums start at +0.0 and
    take the clients in client-id order, weight being the client's sample
    count over the round's total. params is scaled in place, as the fold is
    its last use: that saves a block-sized temporary, with the same products
    bit for bit."""
    aggregate_rep_only(sums, params, weight)
    params.head_block *= weight
    sums.head_block += params.head_block


def aggregate_rep_only(sums: ModelParams, params: ModelParams, weight: float) -> None:
    """aggregate_weighted of the rep block alone; the head of sums and of
    params is neither read nor written."""
    params.rep_block *= weight
    sums.rep_block += params.rep_block


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
    The shard's rows are sorted by class, and consecutive classes go
    through one forward pass together while their rows fit in
    EVAL_BLOCK_ROWS; a larger class is a pass of its own. Each class's
    softmax errors are then a column slice of its pass's class-major
    (M, B) logits and its features a row slice, and no temporary is larger
    than one class's or one evaluation block's.
    """
    m = model_config.num_classes
    order = np.argsort(shard_y, kind="stable")
    counts = class_counts(shard_y, m)
    ends = np.cumsum(counts)
    starts = ends - counts
    blocks: list[list[int]] = []
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
        feats, delta = forward(global_params, model_config, shard_x[rows])
        softmax(delta)
        delta[shard_y[rows], np.arange(rows.shape[0])] -= 1.0
        for cls in block:
            start, end = starts[cls] - first, ends[cls] - first
            part = delta[:, start:end]
            part /= counts[cls]
            np.matmul(part, feats[start:end], out=grad_w[cls])
            part.sum(axis=1, out=grad_b[cls])
    return grads


def matching_loss_and_grad(
    features: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    target_w: np.ndarray,
    target_b: np.ndarray,
    lr: float,
) -> np.ndarray:
    """One descent step of the prototypes: lr times the gradient of the
    matching distance. No loss is computed or returned.

    features is a (C, P, F) stack of prototypes, one (P, F) slice per class
    in labels (C,); target_w is (C, M, F) and target_b is (C, M). D is the
    squared distance between the head gradients (g_w, g_b) that a class's
    prototypes induce and its targets. D enters only through R, with
    dD/dg = r_scale * R; the rest is the backprop of g(F) and does not know
    D. Its two terms, U R_w / P (U the softmax error) and the softmax
    backward of (F R_w^T + 1 R_b^T) / P mapped through W, come from one
    product [U * r_scale*lr/P | dlogits * lr] (C, P, 2M) times [R_w ; W]
    (C, 2M, F), the constant factors going into the small array. Logits are
    class-major, (C, M, P), so the softmax reduces down rows of P entries.
    Products stay batched over classes, so a batched call is bit-equal to
    lone per-class calls.
    """
    c, p, _ = features.shape
    m = w.shape[0]
    lhs_t = np.empty((c, 2 * m, p))  # the small array, transposed
    rhs = np.empty((c, 2 * m, features.shape[2]))  # [R_w ; W]
    rhs[:, m:] = w
    x_t = features.transpose(0, 2, 1)
    probs = w @ x_t
    probs += b[:, None]
    softmax(probs)
    u = lhs_t[:, :m]
    np.copyto(u, probs)
    u[np.arange(c), labels] -= 1.0
    u /= p
    r_w = rhs[:, :m]
    np.matmul(u, features, out=r_w)  # g_w
    g_b = u.sum(axis=2)

    # Squared L2 distance: D = |g_w - t_w|^2 + |g_b - t_b|^2, so
    # dD/dg = r_scale * R with R = g - t.
    r_w -= target_w
    r_b = g_b - target_b
    r_scale = 2.0

    d_logits = lhs_t[:, m:]
    np.matmul(r_w, x_t, out=d_logits)
    d_logits += r_b[:, :, None]
    d_logits *= r_scale * lr / p
    d_logits -= (d_logits * probs).sum(axis=1, keepdims=True)
    d_logits *= probs
    u *= r_scale * lr
    return lhs_t.transpose(0, 2, 1) @ rhs


def retrain_head(
    head_block: np.ndarray,
    features: np.ndarray,
    learning_rate: float,
    steps: int,
) -> np.ndarray:
    """Full-batch gradient descent of the head on labeled feature prototypes.

    features is finite (M, per_class, feature_dim), one slice per class; every
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
    never more than twice the size of the prototypes. Both orders equal the
    row-major (n, M) loop up to rounding, not bit for bit.
    """
    m, per_class, feat_dim = features.shape
    n = m * per_class
    x = features.reshape(n, feat_dim)
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
        # Each prototype's own label entry: row c, columns c*P .. (c+1)*P - 1
        # of the class-major logits, the block diagonal of an (M, M, P) view.
        z_labels = np.lib.stride_tricks.as_strided(
            z, (m, per_class), (z.strides[0] + per_class * z.strides[1], z.strides[1])
        )
        for _ in range(steps):
            np.matmul(s, k, out=z)
            np.subtract(z0, z, out=z)
            softmax(z)
            z_labels -= 1.0
            s += z
        w -= learning_rate / n * (s @ x)
        b -= learning_rate / n * s.sum(axis=1)
        return head
    x_t = np.ascontiguousarray(x.T)
    y = np.repeat(np.arange(m, dtype=np.int64), per_class)
    cols = np.arange(n)
    for _ in range(steps):
        z = w @ x_t
        z += b[:, None]
        softmax(z)
        z[y, cols] -= 1.0
        z /= n
        w -= learning_rate * (z @ x)
        b -= learning_rate * z.sum(axis=1)
    return head


class CreffServer:
    """Server-side state: persistent per-class feature prototypes, and the
    round's per-class sums and counts of the clients' head-gradient reports.

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
        self._grad_sums = np.zeros((model_config.num_classes, model_config.head_size))
        self._report_counts = np.zeros(model_config.num_classes, dtype=np.int64)

    def add_report(self, head_class_grads: np.ndarray, class_counts: np.ndarray) -> None:
        """Fold one client's creff_client_head_grads into the round's sums:
        row c is added, and class c's report count raised by one, where
        class_counts[c] > 0. Other rows (NaN) are never read."""
        reported = class_counts > 0
        np.add(self._grad_sums, head_class_grads, out=self._grad_sums, where=reported[:, None])
        self._report_counts += reported

    def server_round(self, global_params: ModelParams) -> np.ndarray:
        """One aggregation step: match prototypes, then return a re-trained head.

        Class c's target is its folded sum over its report count: summed from
        +0.0 in fold order, bit-equal to np.mean of the reported rows. The sums
        are zeroed for the next round. All reported classes are matched
        together as one (C, P, F) batch; the others keep their prototypes.
        """
        m = self.model_config.num_classes
        w, b = head_views(global_params.head_block, m)
        labels = np.flatnonzero(self._report_counts)
        targets = self._grad_sums[labels] / self._report_counts[labels, None]
        self._grad_sums.fill(0.0)
        self._report_counts.fill(0)
        if labels.size:
            target_w, target_b = head_views(targets, m)
            feats = self.features[labels]  # a copy: fancy indexing
            lr = self.algo_config.ff_lr
            for step in range(self.algo_config.ff_steps):
                feats -= matching_loss_and_grad(feats, labels, w, b, target_w, target_b, lr)
                # A NaN or infinity in a class's prototypes makes its sum non-finite.
                finite = np.isfinite(feats.sum(axis=(1, 2)))
                if not finite.all():
                    raise FltbenchError(
                        f"feature optimization diverged for class "
                        f"{labels[int(np.argmin(finite))]} at step {step}"
                    )
            self.features[labels] = feats
        return retrain_head(
            global_params.head_block,
            self.features,
            self.algo_config.retrain_lr,
            self.algo_config.retrain_steps,
        )
