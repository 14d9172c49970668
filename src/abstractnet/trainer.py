"""A minimal deterministic trainer for ReLU classifiers.

Softmax cross-entropy on raw logits, mini-batch SGD or Adam, He-uniform
initialization, early stopping on validation loss. Everything is driven by one
integer seed: initialization, the train/validation split, and batch shuffling,
so identical configurations reproduce identical networks byte for byte.

Every weight and bias is a view into one flat parameter buffer, and the
gradients are written into views of a second buffer of the same layout. So one
step's update, Adam moments and finite check each run once over the flat
arrays. The arithmetic is elementwise, so each parameter ends bit-identical to
an update run array by array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, split_dataset
from .errors import TrainingError, ValidationError, check_int, seeded_rng
from .network import Network, _forward_layers, _forward_output

OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7

log = logging.getLogger(__name__)


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
        for h in self.hidden:
            check_int(h, "hidden width", 1)
        check_int(self.epochs, "epochs")
        check_int(self.batch_size, "batch_size", 1)
        if not 0.0 < self.learning_rate < np.inf:
            raise ValidationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        check_int(self.patience, "patience", 1)
        check_int(self.seed, "seed")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValidationError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


def init_network(layer_sizes, seed: int = 0) -> Network:
    """He-uniform weights (bound sqrt(6 / fan_in)) and zero biases."""
    sizes = [check_int(s, "layer width", 1) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValidationError(f"layer_sizes must be >= 2 positive widths, got {sizes}")
    rng = seeded_rng(seed)
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


def _mean_nll(logp: np.ndarray, labels: np.ndarray) -> float:
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def _flat_views(layer_sizes):
    """A zeroed flat float64 buffer and the (weights, biases) views into it.

    The weights come first, then the biases, each layer in order; every view
    is C-contiguous in the shape of its parameter.
    """
    shapes = [(o, i) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
    shapes += [(o,) for o in layer_sizes[1:]]
    flat = np.zeros(sum(math.prod(shape) for shape in shapes))
    views = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    depth = len(layer_sizes) - 1
    return flat, views[:depth], views[depth:]


def _loss_and_grads_raw(ws, bs, x, y, dws, dbs) -> float:
    """Mean cross-entropy of one batch; its gradients are written into dws, dbs."""
    pres, acts = _forward_layers(ws, bs, x)
    logp = _log_softmax(pres[-1])
    loss = _mean_nll(logp, y)
    batch = x.shape[0]
    g = np.exp(logp)
    g[np.arange(batch), y] -= 1.0
    g /= batch
    for j in reversed(range(len(ws))):
        np.matmul(g.T, acts[j], out=dws[j])
        np.sum(g, axis=0, out=dbs[j])
        if j > 0:
            g = (g @ ws[j]) * (pres[j] > 0)
    return loss


def loss_and_grads(net: Network, x: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a batch and its gradients per weight and bias.

    The network must expose raw logits (identity output). The batch is checked
    as a LabeledDataset is (finite inputs, integer labels), against the net's
    input width and class count. Returns (loss, weight_grads, bias_grads) with
    grads shaped like the parameters, in arrays of their own.
    """
    if net.output_activation != "identity":
        raise ValidationError("loss_and_grads requires an identity-output (logits) network")
    batch = LabeledDataset(np.atleast_2d(x), np.atleast_1d(y))
    net._check_input(batch.inputs)
    n_classes = net.layer_sizes[-1]
    if batch.num_classes > n_classes:
        raise ValidationError(f"labels must be in [0, {n_classes})")
    _, dws, dbs = _flat_views(net.layer_sizes)
    loss = _loss_and_grads_raw(net.weights, net.biases, batch.inputs, batch.labels, dws, dbs)
    return loss, dws, dbs


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
    params, ws, bs = _flat_views(sizes)
    for view, value in zip(ws + bs, net0.weights + net0.biases):
        view[...] = value
    grads, dws, dbs = _flat_views(sizes)
    train_part, val_part = split_dataset(ds, cfg.val_fraction, cfg.seed)
    rng = seeded_rng(cfg.seed + 1)
    if cfg.optimizer == "adam":
        m = np.zeros_like(params)
        v = np.zeros_like(params)
        t = 0
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_part))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss = _loss_and_grads_raw(
                ws, bs, train_part.inputs[idx], train_part.labels[idx], dws, dbs
            )
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}", epoch=epoch)
            if cfg.optimizer == "sgd":
                params -= cfg.learning_rate * grads
            else:
                t += 1
                bc1 = 1.0 - ADAM_BETA1**t
                bc2 = 1.0 - ADAM_BETA2**t
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grads
                v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grads**2
                params -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
            if not np.all(np.isfinite(params)):
                raise TrainingError(f"parameters diverged at epoch {epoch}", epoch=epoch)
        val_logits = _forward_output(ws, bs, val_part.inputs)
        val_loss = _mean_nll(_log_softmax(val_logits), val_part.labels)
        log.debug("epoch %d: validation loss %.6g", epoch, val_loss)
        if not np.isfinite(val_loss):
            raise TrainingError(f"validation loss diverged at epoch {epoch}", epoch=epoch)
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                log.info(
                    "early stop after epoch %d of %d (best validation loss %.6g, patience %d)",
                    epoch, cfg.epochs, best_val, cfg.patience,
                )
                break
    return Network(tuple(ws), tuple(bs), output_activation="identity")
