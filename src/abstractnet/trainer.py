"""A minimal deterministic trainer for ReLU classifiers.

Softmax cross-entropy on raw logits, mini-batch SGD or Adam, He-uniform
initialization, early stopping on validation loss. Everything is driven by one
integer seed: initialization, the train/validation split, and batch shuffling,
so identical configurations reproduce identical networks byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, split_dataset
from .errors import TrainingError, ValidationError
from .network import Network, _forward_layers

OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    hidden: tuple[int, ...]
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    patience: int = 3
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if any(h < 1 for h in self.hidden):
            raise ValidationError(f"hidden widths must be positive, got {self.hidden}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.patience < 1:
            raise ValidationError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


def init_network(layer_sizes, seed: int = 0) -> Network:
    """He-uniform weights (bound sqrt(6 / fan_in)) and zero biases."""
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValidationError(f"layer_sizes must be >= 2 positive widths, got {sizes}")
    rng = np.random.default_rng(seed)
    ws = []
    bs = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        ws.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Network(tuple(ws), tuple(bs), output_activation="identity")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    logp = _log_softmax(logits)
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def _loss_and_grads_raw(ws, bs, x, y):
    pres, acts = _forward_layers(ws, bs, x)
    logits = pres[-1]
    loss = _ce_loss(logits, y)
    batch = x.shape[0]
    g = np.exp(_log_softmax(logits))
    g[np.arange(batch), y] -= 1.0
    g /= batch
    dws = [None] * len(ws)
    dbs = [None] * len(ws)
    for j in reversed(range(len(ws))):
        dws[j] = g.T @ acts[j]
        dbs[j] = g.sum(axis=0)
        if j > 0:
            g = (g @ ws[j]) * (pres[j] > 0)
    return loss, dws, dbs


def loss_and_grads(net: Network, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a batch and its gradients per weight and bias.

    The network must expose raw logits (identity output). Returns
    (loss, weight_grads, bias_grads) with grads shaped like the parameters.
    """
    if net.output_activation != "identity":
        raise ValidationError("loss_and_grads requires an identity-output (logits) network")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.shape[0] != x.shape[0]:
        raise ValidationError(f"{x.shape[0]} inputs but {y.shape[0]} labels")
    n_classes = net.layer_sizes[-1]
    if np.any(y < 0) or np.any(y >= n_classes):
        raise ValidationError(f"labels must be in [0, {n_classes})")
    return _loss_and_grads_raw(list(net.weights), list(net.biases), x, y)


def train(ds: LabeledDataset, cfg: TrainConfig) -> Network:
    """Train a classifier on ds; returns a logits network.

    Architecture is (n_features, *cfg.hidden, n_classes). Stops early when the
    validation loss has not improved for ``cfg.patience`` consecutive epochs.
    With epochs = 0 the seeded initial network is returned untouched. Raises
    TrainingError if the loss or any parameter turns non-finite.
    """
    sizes = [ds.num_features, *cfg.hidden, ds.num_classes]
    if ds.num_classes < 2:
        raise ValidationError("training needs at least two classes")
    net0 = init_network(sizes, seed=cfg.seed)
    if cfg.epochs == 0:
        return net0
    ws = [w.copy() for w in net0.weights]
    bs = [b.copy() for b in net0.biases]
    params = ws + bs  # the same arrays, updated in place
    train_part, val_part = split_dataset(ds, cfg.val_fraction, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    if cfg.optimizer == "adam":
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        t = 0
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_part))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, dws, dbs = _loss_and_grads_raw(ws, bs, train_part.inputs[idx], train_part.labels[idx])
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
            grads = dws + dbs
            if cfg.optimizer == "sgd":
                for p, g in zip(params, grads):
                    p -= cfg.learning_rate * g
            else:
                t += 1
                bc1 = 1.0 - ADAM_BETA1**t
                bc2 = 1.0 - ADAM_BETA2**t
                for i, (p, g) in enumerate(zip(params, grads)):
                    m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
                    v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
                    p -= cfg.learning_rate * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + ADAM_EPSILON)
            if any(not np.all(np.isfinite(p)) for p in params):
                raise TrainingError(f"parameters diverged at epoch {epoch}", epoch=epoch)
        val_logits = _forward_layers(ws, bs, val_part.inputs)[0][-1]
        val_loss = _ce_loss(val_logits, val_part.labels)
        if not np.isfinite(val_loss):
            raise TrainingError(f"validation loss diverged at epoch {epoch}", epoch=epoch)
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return Network(tuple(ws), tuple(bs), output_activation="identity")
