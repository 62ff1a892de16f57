"""Minimal training engine: models, cross-entropy, explicit backprop, SGD.

Parameters live in two flat float64 blocks: a representation block (all
layers up to the penultimate activation) and a classifier-head block (the
final affine map). Keeping the split explicit is what lets the federated
algorithms share, freeze, or replace the head independently of the body.

Two architectures are enough for the benchmark: a plain softmax classifier
(empty representation block) and a one-hidden-layer ReLU network. The
mlp1h representation block is the row-major (input_dim + 1, H) matrix
[W1^T; b1]: input-major weights, then the bias as the last row, so rows
that carry a trailing ones column get their pre-activations, and the rep
gradient, from one product each. A head block holds the row-major (M, F)
weights, then the M biases. forward returns class-major (M, B) logits, so
softmax and argmax reduce along contiguous rows.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .datasets import Dataset, class_counts
from .errors import ConfigError
from .seeding import rng_from

ARCH_LINEAR = "linear_softmax"
ARCH_MLP1H = "mlp1h"
ARCHITECTURES = (ARCH_LINEAR, ARCH_MLP1H)

# A checkpoint is this magic, then one header: the index of the arch in
# ARCHITECTURES, hidden units (0 for linear_softmax), input dim, class count,
# init seed and the (M, per_class, feature_dim) shape of the feature
# prototypes, (0, 0, 0) for none. The rep, head and prototype float64s follow.
# FLTCKPT2 files stored the mlp1h rep block as row-major (H, input_dim)
# weights, so they fail to load, as FLTCKPT1 files do.
CHECKPOINT_MAGIC = b"FLTCKPT3"
_CKPT_HEADER = struct.Struct("<IIIIqIII")

# Most rows per forward pass in predict, and per stack of client holdouts
# classified together. Runs use one BLAS thread (see one_blas_thread), and
# blocks are still faster than one long pass: on a 2-vCPU VM (numpy 2.4.6,
# OpenBLAS 0.3.31, one thread) predicting 2,000 rows of the 5-200-10 model
# took 1.08 ms in 256-row blocks against 1.30 ms in one pass, with bit-equal
# class-major logits. Equal blocks keep each block of a longer dataset above
# 128 rows: with 10 or 11 classes, blocks of 121 rows or more gave logits
# bit-equal to the single pass, while shorter ones (such as the tail of fixed
# 256-row blocks) take OpenBLAS's small-matrix kernel and differ in the last
# bits. With 16 to 100 classes, blocks of 193 rows or more whose length is
# not a multiple of 8 differ too.
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

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.rep_block).all() and np.isfinite(self.head_block).all())


def init_model(config: ModelConfig) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases. W1 is
    drawn (H, input_dim) and stored transposed, as the rep block's rows."""
    rng = rng_from(config.init_seed)
    d, m = config.input_dim, config.num_classes
    if config.arch == ARCH_LINEAR:
        rep = np.empty(0, dtype=np.float64)
        w2 = rng.uniform(-1.0, 1.0, size=(m, d)) / np.sqrt(d)
    else:
        h = config.hidden_units
        w1 = rng.uniform(-1.0, 1.0, size=(h, d)) / np.sqrt(d)
        rep = np.concatenate([w1.T.ravel(), np.zeros(h)])
        w2 = rng.uniform(-1.0, 1.0, size=(m, h)) / np.sqrt(h)
    head = np.concatenate([w2.ravel(), np.zeros(m)])
    return ModelParams(rep, head)


def head_views(head: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight (..., M, F) and bias (..., M) views of a (..., head_size) block,
    which holds the row-major weights, then the biases; leading axes stack heads."""
    w = head[..., :-num_classes].reshape(*head.shape[:-1], num_classes, -1)
    return w, head[..., -num_classes:]


def forward(
    params: ModelParams, config: ModelConfig, batch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations (..., B, F) and class-major logits (..., M, B)
    for a (..., B, input_dim) batch of finite float64 rows, which are not
    checked here: callers pass Dataset rows.

    For mlp1h the rows may also carry a trailing ones column, as local SGD
    passes them; without it the bias row is added after the product, which
    gives the same values up to the last bits.

    Leading axes stack independent batches. With a stacked (S, G, head_size)
    head block, batch g of a (G, B, input_dim) stack is classified by head g
    of each of S head sets (S may be left out), giving (S, G, M, B) logits
    from one hidden layer. numpy multiplies a stack one slice at a time, so
    each slice gets the same BLAS call, and the same bits, as a lone
    (B, input_dim) batch. Bias and ReLU work in place in the product buffers:
    a fresh (256, 200) temporary is 400 KB, and with three of them per pass a
    100-client FedPer run spent about 2.5x as long evaluating on a 2-vCPU VM.
    """
    if config.arch == ARCH_LINEAR:
        feats = batch
    else:
        d = config.input_dim
        rep = params.rep_block.reshape(d + 1, config.hidden_units)
        if batch.shape[-1] == d:
            feats = batch @ rep[:d]
            feats += rep[d]
        else:
            feats = batch @ rep
        np.maximum(feats, 0.0, out=feats)
    w2, b2 = head_views(params.head_block, config.num_classes)
    logits = w2 @ feats.swapaxes(-1, -2)
    logits += b2[..., None]
    return feats, logits


def softmax(z: np.ndarray, axis: int = -2) -> np.ndarray:
    """Softmax of z along axis, computed in place in z, which is returned.

    The package's one softmax. Its callers keep their logits class-major,
    (..., M, B) from forward, (C, M, P) in matching and (M, n) in head
    re-training, so the class axis is -2 and each reduction runs across
    contiguous rows: numpy reduces along a last axis of only M = 10 entries
    more slowly.
    """
    z -= z.max(axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis, keepdims=True)
    return z


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
    are deterministic for fixed inputs. batch_x must hold finite float64
    (B, input_dim) rows, and for mlp1h (B, input_dim + 1) rows whose last
    column is 1, so the rep gradient, bias row included, is one product (see
    forward). The rows are validated once per dataset, by Dataset, and not
    here. The function calls forward, then softmax on the class-major
    logits in place, and the backward pass works in the buffers of the
    products.

    Without ``out`` the gradient goes to two fresh blocks. With ``out``,
    whose blocks must be C-contiguous float64 arrays of the block sizes, the
    gradient (weight decay included) is written into them with the same
    float operations, the loss is not computed, and (None, out) is returned.
    Training reads only the gradient, so sgd_epochs passes ``out``, and its
    weight decay: this is the only code that applies the decay's gradient,
    weight_decay * params.
    """
    y = np.asarray(batch_y, dtype=np.int64)
    n = y.shape[0]
    cols = np.arange(n)
    feats, probs = forward(params, config, batch_x)
    softmax(probs)
    loss = None
    if out is None:
        loss = float(-np.mean(np.log(np.maximum(probs[y, cols], 1e-300))))
        out = ModelParams(np.empty(config.rep_size), np.empty(config.head_size))

    delta = probs
    delta[y, cols] -= 1.0
    delta /= n

    grad_rep, grad_head = out.rep_block, out.head_block
    grad_w2, grad_b2 = head_views(grad_head, config.num_classes)
    np.matmul(delta, feats, out=grad_w2)
    delta.sum(axis=1, out=grad_b2)
    if config.arch == ARCH_MLP1H:
        dpre = delta.T @ head_views(params.head_block, config.num_classes)[0]
        dpre *= feats > 0.0
        np.matmul(batch_x.T, dpre, out=grad_rep.reshape(-1, config.hidden_units))

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
    rng: np.random.Generator,
    prox_mu: float = 0.0,
) -> ModelParams:
    """Run local_epochs of mini-batch SGD and return the updated copy.

    The shard's rows are not checked here: they come from a Dataset, which
    validated them once. Each epoch reshuffles the shard by rng.permutation;
    the final short batch is kept. Every batch gradient gets weight_decay * w,
    which loss_and_grad adds, and with a non-zero prox_mu FedProx's proximal
    pull prox_mu * (w - params) toward the params the call started from.

    Training runs in one contiguous float64 buffer that starts as a copy of
    params, so the caller's arrays are never written; the returned blocks
    are views into it. Each epoch writes its shuffled rows once into one
    buffer, with a ones column for mlp1h. Each batch has loss_and_grad
    write its gradient, weight decay included, into views of one gradient
    buffer, with no loss computed, and then adds the proximal pull, scales
    by the learning rate and steps, each once over the whole buffer.
    """
    n = shard_y.shape[0]
    split = params.rep_block.shape[0]
    flat = np.concatenate([params.rep_block, params.head_block])
    grad = np.empty_like(flat)
    if prox_mu:
        anchor, scratch = flat.copy(), np.empty_like(flat)
    w = ModelParams(flat[:split], flat[split:])
    out = ModelParams(grad[:split], grad[split:])
    d = config.input_dim
    xs = np.ones((n, d + (config.arch == ARCH_MLP1H)))
    lr = train_config.learning_rate
    bs = train_config.batch_size
    for _ in range(train_config.local_epochs):
        order = rng.permutation(n)
        xs[:, :d] = shard_x[order]
        ys = shard_y[order]
        for start in range(0, n, bs):
            # Config and labels stay positional: bench/tracer.py reads
            # args[1] and args[3] of this call.
            loss_and_grad(w, config, xs[start : start + bs], ys[start : start + bs],
                          train_config.weight_decay, out=out)
            if prox_mu:
                np.subtract(flat, anchor, out=scratch)
                scratch *= prox_mu
                grad += scratch
            grad *= lr
            flat -= grad
    return w


@dataclass(frozen=True)
class Metrics:
    """Top-1 accuracy, per-class accuracies, and group accuracies by group name."""

    accuracy: float
    per_class_accuracy: np.ndarray
    per_class_counts: np.ndarray
    num_samples: int
    group_accuracy: dict[str, float]

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
    faster than one long pass. On the OpenBLAS build measured, with 10 or 11
    classes, the logits are bit-equal to one pass over all n rows; with
    other class counts they can differ in the last bits (see
    EVAL_BLOCK_ROWS). Either way they are deterministic.
    """
    blocks = np.array_split(features, -(-features.shape[-2] // EVAL_BLOCK_ROWS), axis=-2)
    preds = [np.argmax(forward(params, config, block)[1], axis=-2) for block in blocks]
    return np.concatenate(preds, axis=-1)


def evaluate(
    params: ModelParams, config: ModelConfig, dataset: Dataset,
    class_groups: Mapping[str, Sequence[int]],
) -> Metrics:
    """Top-1 accuracy of predict on a non-empty dataset, overall, per class and
    per group of class_groups (datasets.head_tail_groups), in its order; a
    group with no sample in the dataset has no accuracy."""
    preds = predict(params, config, dataset.features)
    hits = preds == dataset.labels
    m = config.num_classes
    counts = class_counts(dataset.labels, m)
    correct = class_counts(dataset.labels[hits], m)
    per_class = np.divide(
        correct, counts, out=np.zeros(m, dtype=np.float64), where=counts > 0
    )
    group_acc = {}
    for group, members in class_groups.items():
        total = int(counts[members].sum())
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

def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: ModelParams,
    federated_features: np.ndarray | None = None,
) -> None:
    """Write the model, and the federated feature prototypes if given, as
    one checkpoint header followed by the rep, head and prototype floats."""
    ff = np.empty((0, 0, 0)) if federated_features is None else np.asarray(federated_features)
    if ff.ndim != 3:
        raise ValueError("federated features must be (M, per_class, feature_dim)")
    header = _CKPT_HEADER.pack(ARCHITECTURES.index(config.arch), config.hidden_units or 0,
                               config.input_dim, config.num_classes, config.init_seed, *ff.shape)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        for block in (params.rep_block, params.head_block, ff):
            fh.write(block.astype("<f8").tobytes())


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelConfig, ModelParams, np.ndarray | None]:
    """Config, parameters and federated features (or None) of a checkpoint
    file. A file without the magic, with a header that no model fits, or
    whose length is not exactly what its header implies raises ConfigError."""
    blob = Path(path).read_bytes()
    start = len(CHECKPOINT_MAGIC)
    if blob[:start] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: missing checkpoint header")
    try:
        code, hidden, input_dim, m, init_seed, *ff_shape = _CKPT_HEADER.unpack_from(blob, start)
        if code >= len(ARCHITECTURES):
            raise ValueError(f"unknown architecture code {code}")
        arch = ARCHITECTURES[code]
        config = ModelConfig(arch=arch, input_dim=input_dim, num_classes=m, init_seed=init_seed,
                             hidden_units=hidden if arch == ARCH_MLP1H else None)
    except (struct.error, ValueError) as exc:
        # How struct and ModelConfig report a cut header or one no model fits.
        raise ConfigError(f"{path}: truncated or malformed checkpoint: {exc}") from exc
    offset = start + _CKPT_HEADER.size
    counts = (config.rep_size, config.head_size, math.prod(ff_shape))
    if len(blob) != offset + 8 * sum(counts):
        raise ConfigError(f"{path}: truncated or malformed checkpoint: {len(blob)} bytes, "
                          f"not the {offset + 8 * sum(counts)} its header implies")
    floats = np.frombuffer(blob, dtype="<f8", offset=offset).copy()
    rep, head, ff = np.split(floats, np.cumsum(counts[:2]))
    return config, ModelParams(rep, head), ff.reshape(ff_shape) if any(ff_shape) else None
