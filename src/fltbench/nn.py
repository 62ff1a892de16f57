"""Minimal training engine: models, cross-entropy, explicit backprop, SGD.

Parameters live in two flat float64 blocks: a representation block (all
layers up to the penultimate activation) and a classifier-head block (the
final affine map). Keeping the split explicit is what lets the federated
algorithms share, freeze, or replace the head independently of the body.

Two architectures are enough for the benchmark: a plain softmax classifier
(empty representation block) and a one-hidden-layer ReLU network.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

from .datasets import Dataset
from .errors import ConfigError, FltbenchError
from .seeding import rng_from

ARCH_LINEAR = "linear_softmax"
ARCH_MLP1H = "mlp1h"
ARCHITECTURES = (ARCH_LINEAR, ARCH_MLP1H)

CHECKPOINT_MAGIC = b"FLTCKPT1"
_CKPT_HEADER = struct.Struct("<IIIIqQQ")
_FF_MAGIC = b"FF"
_FF_HEADER = struct.Struct("<III")

# Most rows per forward pass in predict, and per stack of client holdouts
# classified together. Runs use one BLAS thread (see one_blas_thread), and
# blocks are still faster than one long pass: on a 2-vCPU VM (numpy 2.4.6,
# OpenBLAS 0.3.31, one thread) 2,000 rows of the (2000x5)@(5x200) model took
# 1.45 ms in 256-row blocks against 1.77 ms in one pass, with bit-equal
# logits. Equal blocks keep each block of a longer dataset above 128 rows:
# with 10 classes, blocks of 121 rows or more gave logits bit-equal to the
# single pass, while shorter ones (such as the tail of fixed 256-row blocks)
# take OpenBLAS's small-matrix kernel and differ in the last bits.
EVAL_BLOCK_ROWS = 256

# Thread-count entry points of numpy's bundled OpenBLAS, by build: the
# scipy-openblas wheels of numpy 2, the 64-bit-integer wheels of numpy 1, and
# a plain build.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The (get, set) thread-count functions of the OpenBLAS that numpy has
    loaded from its wheel's numpy.libs directory, or None for any other BLAS.

    Loading the library by its path returns the copy numpy already uses.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            try:
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    previous count, also when the block raises.

    Threaded products can differ from one-thread products in the last bits,
    so output bytes would depend on the thread count, and sweep workers that
    each thread their products oversubscribe the cores. OPENBLAS_NUM_THREADS
    cannot do this: OpenBLAS reads it once, when numpy loads. The setter is
    called only when the count is not 1 already, so forked pool workers,
    which inherit one thread, never call it. On any other BLAS this does
    nothing.
    """
    get, set_ = _openblas_threads() or (lambda: 1, None)
    previous = get()
    if previous != 1:
        set_(1)
    try:
        yield
    finally:
        if previous != 1:
            set_(previous)


def check_architecture(arch: str, hidden_units: int | None) -> None:
    """Raise ValueError unless arch is known and hidden_units suits it."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"arch must be one of {', '.join(ARCHITECTURES)}, not {arch!r}")
    if arch == ARCH_MLP1H:
        if hidden_units is None or hidden_units < 1:
            raise ValueError("hidden_units must be >= 1 for mlp1h")
    elif hidden_units is not None:
        raise ValueError("hidden_units is only valid for mlp1h")


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    input_dim: int
    num_classes: int
    init_seed: int = 0
    hidden_units: int | None = None

    def __post_init__(self) -> None:
        check_architecture(self.arch, self.hidden_units)
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")

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
    """Flat parameter store; value-like, copy before mutating. Gradients
    come in the same two blocks."""

    rep_block: np.ndarray
    head_block: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.rep_block.copy(), self.head_block.copy())

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.rep_block).all() and np.isfinite(self.head_block).all())


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
    """Head weights (..., M, F) and biases (..., M); a (G, head_size) head
    block holds G heads, one per leading index."""
    f, m = config.feature_dim, config.num_classes
    head = params.head_block
    w = head[..., : m * f].reshape(*head.shape[:-1], m, f)
    b = head[..., m * f :]
    return w, b


def _rep_views(params: ModelParams, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    h, d = config.hidden_units, config.input_dim
    w = params.rep_block[: h * d].reshape(h, d)
    b = params.rep_block[h * d :]
    return w, b


def forward(
    params: ModelParams, config: ModelConfig, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations and logits for a (..., B, input_dim) batch.

    Leading axes stack independent batches. With a stacked (G, head_size)
    head block, batch g of a (G, B, input_dim) stack is classified by head g
    on top of the shared representation. numpy multiplies a stack one slice
    at a time, so each slice gets the same BLAS call, and the same bits, as
    a lone (B, input_dim) batch. Bias and ReLU work in place in the product
    buffers: a fresh (256, 200) temporary is 400 KB, and with three of them
    per pass a 100-client FedPer run spent about 2.5x as long evaluating on
    a 2-vCPU VM.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != config.input_dim:
        raise ValueError(f"batch must be (..., B, {config.input_dim})")
    if not np.isfinite(x).all():
        raise ValueError("batch contains non-finite values")
    if config.arch == ARCH_LINEAR:
        feats = x
    else:
        w1, b1 = _rep_views(params, config)
        feats = x @ w1.T
        feats += b1
        np.maximum(feats, 0.0, out=feats)
    w2, b2 = _head_views(params, config)
    logits = feats @ np.swapaxes(w2, -1, -2)
    logits += b2[..., None, :]
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
    *,
    out: ModelParams | None = None,
) -> tuple[float | None, ModelParams]:
    """Mean cross-entropy plus (weight_decay/2)*||params||^2, with gradients.

    Gradients come from explicit backprop through the affine/ReLU stack and
    are deterministic for fixed inputs. batch_x must be a finite
    (B, input_dim) array: callers validate it once per dataset or shard, not
    once per batch. Every intermediate is computed in place in the buffer of
    the product that produced it, with the same float operations as
    ``forward`` followed by ``softmax``.

    Without ``out`` the gradient goes to two fresh blocks. With ``out``,
    whose blocks must be C-contiguous float64 arrays of the block sizes, the
    gradient (weight decay included) is written into them with the same
    float operations, the loss is not computed, and (None, out) is returned.
    Training reads only the gradient, so sgd_epochs passes ``out``.
    """
    x = np.asarray(batch_x, dtype=np.float64)
    y = np.asarray(batch_y, dtype=np.int64)
    n = y.shape[0]
    rows = np.arange(n)
    w2, b2 = _head_views(params, config)
    if config.arch == ARCH_LINEAR:
        feats = x
    else:
        w1, b1 = _rep_views(params, config)
        feats = x @ w1.T
        feats += b1
        np.maximum(feats, 0.0, out=feats)
    probs = feats @ w2.T
    probs += b2
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    loss = None
    if out is None:
        loss = float(-np.mean(np.log(np.maximum(probs[rows, y], 1e-300))))
        out = ModelParams(np.empty(config.rep_size), np.empty(config.head_size))

    delta = probs
    delta[rows, y] -= 1.0
    delta /= n

    m, f = w2.shape
    grad_rep, grad_head = out.rep_block, out.head_block
    np.matmul(delta.T, feats, out=grad_head[: m * f].reshape(m, f))
    delta.sum(axis=0, out=grad_head[m * f :])
    if config.arch == ARCH_MLP1H:
        h, d = w1.shape
        dpre = delta @ w2
        dpre *= feats > 0.0
        np.matmul(dpre.T, x, out=grad_rep[: h * d].reshape(h, d))
        dpre.sum(axis=0, out=grad_rep[h * d :])

    if weight_decay != 0.0:
        if loss is not None:
            loss += 0.5 * weight_decay * (
                float(params.rep_block @ params.rep_block)
                + float(params.head_block @ params.head_block)
            )
        grad_rep += weight_decay * params.rep_block
        grad_head += weight_decay * params.head_block
    return loss, out


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


def sgd_epochs(
    params: ModelParams,
    config: ModelConfig,
    train_config: TrainConfig,
    shard_x: np.ndarray,
    shard_y: np.ndarray,
    prox_mu: float = 0.0,
) -> ModelParams:
    """Run local_epochs of mini-batch SGD and return the updated copy.

    Each epoch reshuffles under shuffle_seed's stream; the final short batch
    is kept. A non-zero prox_mu adds FedProx's proximal pull
    prox_mu * (w - params) to every batch gradient, toward the params the
    call started from.

    Training runs in one contiguous float64 buffer that starts as a copy of
    params, so the caller's arrays are never written; the returned blocks
    are views into it. Each batch has loss_and_grad write its gradient,
    weight decay included, into views of one gradient buffer, with no loss
    computed, and then adds the proximal pull, scales by the learning rate
    and steps, each once over the whole buffer. The float operations per
    element are those of the per-block update, so the result is bit-equal
    to it.
    """
    n = shard_y.shape[0]
    if n == 0:
        raise FltbenchError("cannot train on an empty shard")
    if not np.isfinite(shard_x).all():
        raise ValueError("shard contains non-finite features")
    split = params.rep_block.shape[0]
    flat = np.concatenate([params.rep_block, params.head_block])
    grad = np.empty_like(flat)
    if prox_mu:
        anchor, scratch = flat.copy(), np.empty_like(flat)
    w = ModelParams(flat[:split], flat[split:])
    out = ModelParams(grad[:split], grad[split:])
    rng = rng_from(train_config.shuffle_seed)
    lr = train_config.learning_rate
    bs = train_config.batch_size
    weight_decay = train_config.weight_decay
    for _ in range(train_config.local_epochs):
        order = rng.permutation(n)
        xs, ys = shard_x[order], shard_y[order]
        for start in range(0, n, bs):
            # Config and labels stay positional: bench/tracer.py reads
            # args[1] and args[3] of this call.
            loss_and_grad(w, config, xs[start : start + bs], ys[start : start + bs],
                          weight_decay, out=out)
            if prox_mu:
                np.subtract(flat, anchor, out=scratch)
                scratch *= prox_mu
                grad += scratch
            grad *= lr
            flat -= grad
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


def predict(params: ModelParams, config: ModelConfig, features: np.ndarray) -> np.ndarray:
    """Argmax class of every row of (..., n, input_dim) features.

    Ties break toward the lower class index. The rows run through forward in
    ceil(n / EVAL_BLOCK_ROWS) equal blocks of at most 256 rows, which is
    faster than one long pass. On the OpenBLAS build measured, with 10 or
    more classes, the logits are bit-equal to one pass over all n rows; with
    fewer they can differ in the last bits. Either way they are
    deterministic.
    """
    blocks = np.array_split(features, -(-features.shape[-2] // EVAL_BLOCK_ROWS), axis=-2)
    preds = [np.argmax(forward(params, config, block)[1], axis=-1) for block in blocks]
    return np.concatenate(preds, axis=-1)


def evaluate(
    params: ModelParams,
    config: ModelConfig,
    dataset: Dataset,
    class_groups: Mapping[int, str] | None = None,
) -> Metrics:
    """Top-1 accuracy of predict on a dataset, overall, per class and per group."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = predict(params, config, dataset.features)
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
        raise ConfigError(f"{path}: missing checkpoint header")
    arch_code, hidden, input_dim, m, init_seed, rep_len, head_len = _CKPT_HEADER.unpack(
        blob[base : base + _CKPT_HEADER.size]
    )
    if arch_code not in _ARCH_NAMES:
        raise ConfigError(f"{path}: unknown architecture code {arch_code}")
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
            raise ConfigError(f"{path}: trailing bytes are not a feature section")
        pos += len(_FF_MAGIC)
        shape = _FF_HEADER.unpack(blob[pos : pos + _FF_HEADER.size])
        pos += _FF_HEADER.size
        count = shape[0] * shape[1] * shape[2]
        ff = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
    params = ModelParams(rep, head)
    if (rep.shape[0], head.shape[0]) != (config.rep_size, config.head_size):
        raise ConfigError(f"{path}: block lengths do not match the architecture")
    return config, params, ff
