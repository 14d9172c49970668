"""Shared builders for the hand-checked toy networks used across tests, and
reference implementations that tests compare the package against."""

import base64

import numpy as np

from abstractnet import (
    FormatError, LabeledDataset, Network, TrainingError, ValidationError, collect_activations,
    init_network, split_dataset,
)
from abstractnet.abstraction import AbstractionRecord, _fingerprint
from abstractnet.clustering import KMEANS_MAX_ITER, LayerClustering
from abstractnet.synthetic import TEMPLATES, _shift
from abstractnet.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON


def toy_abstract_network() -> Network:
    """2-2-1-2 ReLU net: forward(1,1) = (9,2); box IBP at x=0, delta=1 gives
    output bounds [5,13] and [0,4]."""
    w1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    w2 = np.array([[1.0, 1.0]])
    w3 = np.array([[2.0], [1.0]])
    biases = (np.zeros(2), np.zeros(1), np.array([5.0, 0.0]))
    return Network((w1, w2, w3), biases, output_activation="identity")


def toy_original_network() -> Network:
    """2-2-2-2 net whose two hidden-3 neurons are exact duplicates; merging them
    reproduces toy_abstract_network bit for bit."""
    w1 = np.array([[1.0, 1.0], [1.0, -1.0]])
    w2 = np.array([[1.0, 1.0], [1.0, 1.0]])
    w3 = np.array([[1.0, 1.0], [0.0, 1.0]])
    biases = (np.zeros(2), np.zeros(2), np.array([5.0, 0.0]))
    return Network((w1, w2, w3), biases, output_activation="identity")


def toy_record(e: float = 0.0) -> AbstractionRecord:
    """Record for the duplicate merge with the deleted neuron's radius set to e."""
    original = toy_original_network()
    c2 = LayerClustering(2, ((0,), (1,)), (0, 1), (0.0, 0.0))
    c3 = LayerClustering(3, ((0, 1),), (0,), (0.0, float(e)))
    X = np.array([[1.0, 1.0], [0.5, -0.5]])
    return AbstractionRecord(original, (c2, c3), 0, _fingerprint(X), X.shape[0])


def merge_one_cluster(net: Network, layer: int, members) -> Network:
    """``net`` with one cluster of a hidden layer merged into its smallest member,
    through a hand-built clustering and ``AbstractionRecord(...).abstract_net``."""
    width = net.width(layer)
    members = tuple(sorted(members))
    clusters = sorted([members, *((i,) for i in range(width) if i not in members)])
    merged = LayerClustering(layer, tuple(clusters), tuple(c[0] for c in clusters), np.zeros(width))
    clusterings = tuple(
        merged if h == layer else LayerClustering.identity(h, net.width(h))
        for h in net.hidden_layers
    )
    return AbstractionRecord(net, clusterings).abstract_net


def random_network(rng, sizes=None) -> Network:
    """Gaussian-weight ReLU net; random sizes up to 4 hidden layers of width <= 10."""
    if sizes is None:
        depth = int(rng.integers(1, 5))
        sizes = [int(rng.integers(2, 11)) for _ in range(depth + 2)]
    ws = tuple(rng.normal(0.0, 1.0, (o, i)) for i, o in zip(sizes[:-1], sizes[1:]))
    bs = tuple(rng.normal(0.0, 0.5, o) for o in sizes[1:])
    return Network(ws, bs, output_activation="identity")


def layer_values(net: Network, X) -> list:
    """Every layer's values over the rows of X, input first, from the package's own
    passes: ``collect_activations`` for hidden layers, ``Network.forward`` for the output."""
    hidden = [collect_activations(net, X, layer).values.T for layer in net.hidden_layers]
    return [X, *hidden, net.forward(X)]


def random_k_l(rng, net: Network) -> dict[int, int]:
    return {
        layer: int(rng.integers(1, net.width(layer) + 1)) for layer in net.hidden_layers
    }


def strip_timings(report):
    """Drop every timing field so reports can be compared for determinism."""
    if isinstance(report, dict):
        return {
            k: strip_timings(v) for k, v in report.items() if k not in ("time", "timings")
        }
    if isinstance(report, list):
        return [strip_timings(v) for v in report]
    return report


# Encoded arrays in net and record files, read and written with base64 and
# numpy alone, so tests can edit a file's array values without the package.


def decoded(arr_doc) -> np.ndarray:
    """The values an encoded-array object stores, in its declared shape."""
    values = np.frombuffer(base64.b64decode(arr_doc["data"]), dtype=arr_doc["dtype"])
    return values.reshape(arr_doc["shape"])


def encoded(values, shape=None, dtype="<f8") -> dict:
    """The encoded-array object for ``values``, declaring ``shape`` (default: their own)."""
    arr = np.asarray(values, dtype=dtype)
    raw = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(arr.shape if shape is None else shape), "data": raw}


def as_number_lists(doc):
    """``doc`` with every encoded array replaced by nested JSON number lists: the old layout."""
    if isinstance(doc, dict):
        if set(doc) == {"dtype", "shape", "data"}:
            return decoded(doc).tolist()
        return {k: as_number_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_number_lists(v) for v in doc]
    return doc


def _with_entry(arr_doc, value):
    """``arr_doc`` re-encoded with its first entry set to ``value``."""
    values = decoded(arr_doc).copy()
    values.flat[0] = value
    return encoded(values)


# Malformed encodings of an array whose first axis has two or more entries: (id, edit, error).
# Each edit maps a well-formed encoded-array object to a malformed one.
MALFORMED_ARRAYS = [
    ("truncated-base64", lambda a: {**a, "data": a["data"][:-1]}, FormatError),
    ("non-alphabet", lambda a: {**a, "data": "!" + a["data"][1:]}, FormatError),
    ("non-ascii", lambda a: {**a, "data": "\u00e9" + a["data"][1:]}, FormatError),
    ("newline", lambda a: {**a, "data": a["data"][:4] + "\n" + a["data"][4:]}, FormatError),
    ("data-not-a-string", lambda a: {**a, "data": None}, FormatError),
    ("payload-short", lambda a: encoded(decoded(a).flat[:-1], a["shape"]), FormatError),
    ("payload-long", lambda a: encoded([*decoded(a).flat, 0.0], a["shape"]), FormatError),
    ("dtype-<f4", lambda a: encoded(decoded(a), dtype="<f4"), FormatError),
    ("dtype->f8", lambda a: encoded(decoded(a), dtype=">f8"), FormatError),
    ("dtype-missing", lambda a: {k: v for k, v in a.items() if k != "dtype"}, FormatError),
    ("extra-key", lambda a: {**a, "order": "C"}, FormatError),
    ("shape-bool", lambda a: {**a, "shape": [True, *a["shape"][1:]]}, FormatError),
    ("shape-negative", lambda a: {**a, "shape": [-a["shape"][0], *a["shape"][1:]]}, FormatError),
    ("shape-float", lambda a: {**a, "shape": [a["shape"][0] + 0.0, *a["shape"][1:]]}, FormatError),
    ("shape-nested", lambda a: {**a, "shape": [a["shape"][:1], *a["shape"][1:]]}, FormatError),
    ("shape-not-a-list", lambda a: {**a, "shape": a["shape"][0]}, FormatError),
    ("shape-one-row", lambda a: {**a, "shape": [1, int(np.prod(a["shape"]))]}, ValidationError),
    ("shape-scalar", lambda a: encoded(decoded(a).flat[0], []), ValidationError),
    ("shape-empty", lambda a: encoded([], [0, *a["shape"][1:]]), ValidationError),
    ("nan", lambda a: _with_entry(a, np.nan), ValidationError),
    ("inf", lambda a: _with_entry(a, np.inf), ValidationError),
    ("-inf", lambda a: _with_entry(a, -np.inf), ValidationError),
    ("number-lists", lambda a: decoded(a).tolist(), FormatError),
    ("null", lambda a: None, FormatError),
]


# Reference k-means written the plain way: seeding distances measured row by
# row, Lloyd's loop on the Gram matrix one cluster at a time, one
# representative per call. The package's Gram-matrix seeding and vectorised
# loop must match them bit for bit.


def fresh_kmeans_pp(points, k, seed):
    """k-means++ seeding written out: the row indices of k centres drawn from scratch."""
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.choice([i for i in range(n) if i not in chosen])))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, np.sum((points - points[chosen[-1]]) ** 2, axis=1))
    return chosen


def reference_kmeans(points, k, seed):
    """Lloyd's loop on the Gram matrix, one cluster and one row at a time; k lists of row indices.

    Centroid c is held as its dot products with every point, ``cross[c]``,
    and its squared norm ``norms[c]``: a seed centre's row and diagonal entry
    of G, then the mean of its members' rows of G and the mean of
    ``cross[c]`` over its members. A row with more than one centroid within
    the Gram form's round-off of its nearest measures those centroids
    directly, against their explicit member means, and rules out the rest.
    """
    n, d = points.shape
    if k == n:
        return [[i] for i in range(n)]
    eps = np.finfo(np.float64).eps
    sq = np.sum(points * points, axis=1)
    gram = points @ points.T
    cross = np.empty((k, n))
    norms = np.empty(k)
    owners = []
    for c, i in enumerate(fresh_kmeans_pp(points, k, seed)):
        cross[c] = gram[i]
        norms[c] = gram[i, i]
        owners.append([i])
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = sq[:, None] - 2.0 * cross.T + norms[None, :]
        tol = np.empty((n, k))
        for c in range(k):
            mean_sq = sum(sq[owners[c]]) / len(owners[c])
            tol[:, c] = (4.0 * (d + 2.0 * len(owners[c]) + 3.0) * eps) * (sq + mean_sq)
        for i in range(n):
            reach = min(d2[i, c] + tol[i, c] for c in range(k))
            near = [c for c in range(k) if d2[i, c] - tol[i, c] <= reach]
            if len(near) > 1:
                for c in range(k):
                    if c in near:
                        centroid = points[owners[c]].mean(axis=0)
                        d2[i, c] = np.sum((points[i] - centroid) ** 2)
                    else:
                        d2[i, c] = np.inf
        new_assign = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                dist_own = d2[np.arange(n), new_assign]
                counts = np.bincount(new_assign, minlength=k)
                dist_own[counts[new_assign] <= 1] = -np.inf
                new_assign[int(np.argmax(dist_own))] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            owners[c] = np.flatnonzero(assign == c)
            cross[c] = gram[owners[c]].sum(axis=0) / owners[c].size
            norms[c] = sum(cross[c][owners[c]]) / owners[c].size
    return [sorted(np.flatnonzero(assign == c).tolist()) for c in range(k)]


def reference_pick_representative(members, points):
    """Member whose row is closest to the members' mean row; ties pick the lowest index."""
    members = sorted(int(i) for i in members)
    rows = points[members]
    d2 = np.sum((rows - rows.mean(axis=0)) ** 2, axis=1)
    return members[int(np.argmin(d2))]


def reference_cluster_layer(points, raw_clusters):
    """(clusters, representatives, epsilons) as cluster_layer builds them from
    the k-means clusters ``raw_clusters``, one cluster and one member at a time."""
    paired = sorted(
        (reference_pick_representative(members, points), tuple(members))
        for members in raw_clusters
    )
    reps = tuple(rep for rep, _ in paired)
    clusters = tuple(members for _, members in paired)
    eps = np.zeros(points.shape[0])
    for rep, members in paired:
        for m in members:
            eps[m] = np.max(np.abs(points[m] - points[rep]), initial=0.0)
    return clusters, reps, eps


# Reference forward pass, trainer and digit generator written the plain way:
# every layer's pre- and post-activation kept, one update per parameter array,
# freshly allocated gradients, one image at a time. The package's
# one-layer-at-a-time forward pass, flat-buffer trainer and table-lookup
# generator must match them bit for bit.


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _reference_ce_loss(logits, labels):
    logp = _reference_log_softmax(logits)
    return float(-logp[np.arange(labels.shape[0]), labels].mean())


def reference_forward_layers(ws, bs, x, relu_output=False):
    """(pre-activations, activations) of every layer, input first, array by array."""
    pres = [x]
    acts = [x]
    for j, (w, b) in enumerate(zip(ws, bs)):
        pres.append(acts[-1] @ w.T + b)
        acts.append(np.maximum(pres[-1], 0.0) if j < len(ws) - 1 or relu_output else pres[-1])
    return pres, acts


def _reference_loss_and_grads(ws, bs, x, y):
    pres, acts = reference_forward_layers(ws, bs, x)
    logits = pres[-1]
    loss = _reference_ce_loss(logits, y)
    batch = x.shape[0]
    g = np.exp(_reference_log_softmax(logits))
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


def reference_train(ds, cfg):
    """(network, epochs run) from the per-array training loop."""
    sizes = [ds.num_features, *cfg.hidden, ds.num_classes]
    net0 = init_network(sizes, seed=cfg.seed)
    if cfg.epochs == 0:
        return net0, 0
    ws = [w.copy() for w in net0.weights]
    bs = [b.copy() for b in net0.biases]
    params = ws + bs
    train_part, val_part = split_dataset(ds, cfg.val_fraction, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    best_val = np.inf
    stale = 0
    epochs_run = 0
    for epoch in range(cfg.epochs):
        epochs_run = epoch + 1
        order = rng.permutation(len(train_part))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, dws, dbs = _reference_loss_and_grads(
                ws, bs, train_part.inputs[idx], train_part.labels[idx]
            )
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
        val_logits = reference_forward_layers(ws, bs, val_part.inputs)[0][-1]
        val_loss = _reference_ce_loss(val_logits, val_part.labels)
        if not np.isfinite(val_loss):
            raise TrainingError(f"validation loss diverged at epoch {epoch}", epoch=epoch)
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return Network(tuple(ws), tuple(bs), output_activation="identity"), epochs_run


def reference_synthetic_digits(n, seed=0, noise=0.15):
    """Synthetic digits drawn as make_synthetic_digits draws them, shifted one image at a time."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    shifts = rng.integers(-1, 2, size=(n, 2))
    scales = rng.uniform(0.7, 1.0, size=n)
    jitter = rng.normal(0.0, noise, size=(n, 8, 8))
    images = np.empty((n, 64), dtype=np.float64)
    for i in range(n):
        img = _shift(TEMPLATES[labels[i]], int(shifts[i, 0]), int(shifts[i, 1]))
        img = np.clip(img * scales[i] + jitter[i], 0.0, 1.0)
        images[i] = img.reshape(64)
    return LabeledDataset(images, labels)
