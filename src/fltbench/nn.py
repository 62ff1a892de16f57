"""Minimal training engine: models, cross-entropy, explicit backprop, SGD.

Parameters live in two flat float64 blocks: a representation block (all
layers up to the penultimate activation) and a classifier-head block (the
final affine map). Keeping the split explicit is what lets the federated
algorithms share, freeze, or replace the head independently of the body.

Two architectures are enough for the benchmark: a plain softmax classifier
(empty representation block) and a one-hidden-layer ReLU network.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .datasets import Dataset
from .errors import EmptyShardError, MalformedFileError
from .seeding import rng_from

ARCH_LINEAR = "linear_softmax"
ARCH_MLP1H = "mlp1h"
ARCHITECTURES = (ARCH_LINEAR, ARCH_MLP1H)

CHECKPOINT_MAGIC = b"FLTCKPT1"
_CKPT_HEADER = struct.Struct("<IIIIqQQ")
_FF_MAGIC = b"FF"
_FF_HEADER = struct.Struct("<III")


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    input_dim: int
    num_classes: int
    init_seed: int = 0
    hidden_units: int | None = None

    def __post_init__(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown arch {self.arch!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if self.arch == ARCH_MLP1H:
            if self.hidden_units is None or self.hidden_units < 1:
                raise ValueError("mlp1h needs hidden_units >= 1")
        elif self.hidden_units is not None:
            raise ValueError("hidden_units is only valid for mlp1h")

    @property
    def feature_dim(self) -> int:
        """Width of the penultimate activation the head maps to logits."""
        return self.input_dim if self.arch == ARCH_LINEAR else int(self.hidden_units)

    @property
    def rep_size(self) -> int:
        if self.arch == ARCH_LINEAR:
            return 0
        return self.hidden_units * self.input_dim + self.hidden_units

    @property
    def head_size(self) -> int:
        return self.num_classes * self.feature_dim + self.num_classes


@dataclass
class ModelParams:
    """Flat parameter store; value-like, copy before mutating."""

    rep_block: np.ndarray
    head_block: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.rep_block.copy(), self.head_block.copy())

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.rep_block, self.head_block])

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.rep_block).all() and np.isfinite(self.head_block).all())


@dataclass
class GradVector:
    """Gradient with the same block layout as ModelParams."""

    rep_block: np.ndarray
    head_block: np.ndarray
    batch_size: int


def split_vector(config: ModelConfig, vec: np.ndarray) -> ModelParams:
    """Inverse of as_vector for the given architecture."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (config.rep_size + config.head_size,):
        raise ValueError("vector length does not match the architecture")
    return ModelParams(vec[: config.rep_size].copy(), vec[config.rep_size :].copy())


def init_model(config: ModelConfig) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    rng = rng_from(config.init_seed)
    d, m = config.input_dim, config.num_classes
    if config.arch == ARCH_LINEAR:
        rep = np.empty(0, dtype=np.float64)
        w2 = rng.uniform(-1.0, 1.0, size=(m, d)) / np.sqrt(d)
    else:
        h = config.hidden_units
        w1 = rng.uniform(-1.0, 1.0, size=(h, d)) / np.sqrt(d)
        rep = np.concatenate([w1.ravel(), np.zeros(h)])
        w2 = rng.uniform(-1.0, 1.0, size=(m, h)) / np.sqrt(h)
    head = np.concatenate([w2.ravel(), np.zeros(m)])
    return ModelParams(rep, head)


def _head_views(params: ModelParams, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    f, m = config.feature_dim, config.num_classes
    w = params.head_block[: m * f].reshape(m, f)
    b = params.head_block[m * f :]
    return w, b


def _rep_views(params: ModelParams, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    h, d = config.hidden_units, config.input_dim
    w = params.rep_block[: h * d].reshape(h, d)
    b = params.rep_block[h * d :]
    return w, b


def _forward_full(
    params: ModelParams, config: ModelConfig, batch: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Returns (hidden pre-activation or None, features, logits)."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"batch must be (B, {config.input_dim})")
    if not np.isfinite(x).all():
        raise ValueError("batch contains non-finite values")
    if config.arch == ARCH_LINEAR:
        pre, feats = None, x
    else:
        w1, b1 = _rep_views(params, config)
        pre = x @ w1.T + b1
        feats = np.maximum(pre, 0.0)
    w2, b2 = _head_views(params, config)
    return pre, feats, feats @ w2.T + b2


def forward(
    params: ModelParams, config: ModelConfig, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations and logits for a batch."""
    _, feats, logits = _forward_full(params, config, batch)
    return feats, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so stacked (C, B, M) logits work too."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_grad(
    params: ModelParams,
    config: ModelConfig,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    weight_decay: float = 0.0,
) -> tuple[float, GradVector]:
    """Mean cross-entropy plus (weight_decay/2)*||params||^2, with gradients.

    Gradients come from explicit backprop through the affine/ReLU stack and
    are deterministic for fixed inputs.
    """
    y = np.asarray(batch_y, dtype=np.int64)
    pre, feats, logits = _forward_full(params, config, batch_x)
    n = y.shape[0]
    probs = softmax(logits)
    eps_rows = probs[np.arange(n), y]
    loss = float(-np.mean(np.log(np.maximum(eps_rows, 1e-300))))

    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta /= n

    w2, _ = _head_views(params, config)
    grad_w2 = delta.T @ feats
    grad_b2 = delta.sum(axis=0)
    grad_head = np.concatenate([grad_w2.ravel(), grad_b2])

    if config.arch == ARCH_LINEAR:
        grad_rep = np.empty(0, dtype=np.float64)
    else:
        dfeats = delta @ w2
        dpre = dfeats * (pre > 0.0)
        x = np.asarray(batch_x, dtype=np.float64)
        grad_w1 = dpre.T @ x
        grad_b1 = dpre.sum(axis=0)
        grad_rep = np.concatenate([grad_w1.ravel(), grad_b1])

    if weight_decay != 0.0:
        loss += 0.5 * weight_decay * (
            float(params.rep_block @ params.rep_block)
            + float(params.head_block @ params.head_block)
        )
        grad_rep = grad_rep + weight_decay * params.rep_block
        grad_head = grad_head + weight_decay * params.head_block
    return loss, GradVector(grad_rep, grad_head, batch_size=n)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    local_epochs: int = 1
    weight_decay: float = 0.0
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        # Zero is allowed so a no-op pass stays expressible in tests.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must not be negative")
        if self.batch_size < 1 or self.local_epochs < 1:
            raise ValueError("batch_size and local_epochs must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


GradHook = Callable[[ModelParams], ModelParams]


def sgd_epochs(
    params: ModelParams,
    config: ModelConfig,
    train_config: TrainConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    extra_grad_hook: GradHook | None = None,
) -> ModelParams:
    """Run local_epochs of mini-batch SGD and return the updated copy.

    Each epoch reshuffles under shuffle_seed's stream; the final short batch
    is kept. When extra_grad_hook is given, its params-shaped output is added
    to every batch gradient (this is how the proximal pull is injected).
    """
    n = shard_y.shape[0]
    if n == 0:
        raise EmptyShardError("cannot train on an empty shard")
    w = params.copy()
    rng = rng_from(train_config.shuffle_seed)
    lr = train_config.learning_rate
    for _ in range(train_config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, train_config.batch_size):
            sel = order[start : start + train_config.batch_size]
            _, grad = loss_and_grad(
                w, config, shard_x[sel], shard_y[sel], train_config.weight_decay
            )
            if extra_grad_hook is not None:
                extra = extra_grad_hook(w)
                grad.rep_block = grad.rep_block + extra.rep_block
                grad.head_block = grad.head_block + extra.head_block
            w.rep_block -= lr * grad.rep_block
            w.head_block -= lr * grad.head_block
    return w


@dataclass(frozen=True)
class Metrics:
    """Top-1 accuracy, per-class accuracies, and optional group accuracies."""

    accuracy: float
    per_class_accuracy: np.ndarray
    per_class_counts: np.ndarray
    num_samples: int
    group_accuracy: dict[str, float] | None = None

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy.tolist(),
            "per_class_counts": self.per_class_counts.tolist(),
            "num_samples": self.num_samples,
            "group_accuracy": self.group_accuracy,
        }


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    dataset: Dataset,
    class_groups: Mapping[int, str] | None = None,
) -> Metrics:
    """Argmax accuracy on a dataset; ties break toward the lower class index."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _, logits = forward(params, config, dataset.features)
    preds = np.argmax(logits, axis=1)
    hits = preds == dataset.labels
    m = config.num_classes
    counts = np.bincount(dataset.labels, minlength=m).astype(np.int64)
    correct = np.bincount(dataset.labels[hits], minlength=m).astype(np.int64)
    per_class = np.divide(
        correct, counts, out=np.zeros(m, dtype=np.float64), where=counts > 0
    )
    group_acc: dict[str, float] | None = None
    if class_groups is not None:
        group_acc = {}
        for group in ("head", "medium", "tail"):
            members = [c for c in range(m) if class_groups.get(c) == group]
            total = int(counts[members].sum()) if members else 0
            if total > 0:
                group_acc[group] = float(correct[members].sum()) / total
    return Metrics(
        accuracy=float(hits.mean()),
        per_class_accuracy=per_class,
        per_class_counts=counts,
        num_samples=len(dataset),
        group_accuracy=group_acc,
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_ARCH_CODES = {ARCH_LINEAR: 0, ARCH_MLP1H: 1}
_ARCH_NAMES = {v: k for k, v in _ARCH_CODES.items()}


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: ModelParams,
    federated_features: np.ndarray | None = None,
) -> None:
    """Binary model checkpoint, optionally with a federated-features section."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            _CKPT_HEADER.pack(
                _ARCH_CODES[config.arch],
                config.hidden_units or 0,
                config.input_dim,
                config.num_classes,
                config.init_seed,
                params.rep_block.shape[0],
                params.head_block.shape[0],
            )
        )
        fh.write(params.rep_block.astype("<f8").tobytes())
        fh.write(params.head_block.astype("<f8").tobytes())
        if federated_features is not None:
            ff = np.asarray(federated_features, dtype=np.float64)
            if ff.ndim != 3:
                raise ValueError("federated features must be (M, per_class, feature_dim)")
            fh.write(_FF_MAGIC)
            fh.write(_FF_HEADER.pack(*ff.shape))
            fh.write(ff.astype("<f8").tobytes())


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelConfig, ModelParams, np.ndarray | None]:
    blob = Path(path).read_bytes()
    base = len(CHECKPOINT_MAGIC)
    if blob[:base] != CHECKPOINT_MAGIC:
        raise MalformedFileError(f"{path}: missing checkpoint header")
    arch_code, hidden, input_dim, m, init_seed, rep_len, head_len = _CKPT_HEADER.unpack(
        blob[base : base + _CKPT_HEADER.size]
    )
    if arch_code not in _ARCH_NAMES:
        raise MalformedFileError(f"{path}: unknown architecture code {arch_code}")
    config = ModelConfig(
        arch=_ARCH_NAMES[arch_code],
        input_dim=input_dim,
        num_classes=m,
        init_seed=init_seed,
        hidden_units=hidden if arch_code == 1 else None,
    )
    pos = base + _CKPT_HEADER.size
    rep = np.frombuffer(blob, dtype="<f8", count=rep_len, offset=pos).copy()
    pos += rep_len * 8
    head = np.frombuffer(blob, dtype="<f8", count=head_len, offset=pos).copy()
    pos += head_len * 8
    ff = None
    if pos < len(blob):
        if blob[pos : pos + len(_FF_MAGIC)] != _FF_MAGIC:
            raise MalformedFileError(f"{path}: trailing bytes are not a feature section")
        pos += len(_FF_MAGIC)
        shape = _FF_HEADER.unpack(blob[pos : pos + _FF_HEADER.size])
        pos += _FF_HEADER.size
        count = shape[0] * shape[1] * shape[2]
        ff = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
    params = ModelParams(rep, head)
    if (rep.shape[0], head.shape[0]) != (config.rep_size, config.head_size):
        raise MalformedFileError(f"{path}: block lengths do not match the architecture")
    return config, params, ff
