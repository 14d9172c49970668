"""Shrinking a network by merging I/O-similar neurons within layers.

Merging a cluster keeps one representative neuron: the other members' incoming
rows and bias entries are deleted, and the representative's outgoing column
becomes the sum of all members' outgoing columns, so downstream neurons see the
representative's activation in place of each deleted member's.

Layers are abstracted in order, shallow to deep, and each layer is clustered on
the activations of the *current* partially-merged network, so epsilons absorb
upstream drift over the input set.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .clustering import KMeansSeeding, LayerClustering, cluster_layer
from .data import LabeledDataset, accuracy, collect_activations
from .errors import FormatError, ValidationError, check_int
from .network import Network, _decode_array, _encode_array, _json_int, _read_text


def _merge_layer(net: Network, layer: int, clustering: LayerClustering) -> Network:
    """Merge all clusters of one hidden layer at once."""
    if not 2 <= layer <= net.num_layers - 1:
        raise ValidationError(f"layer must be hidden (2..{net.num_layers - 1}), got {layer}")
    if clustering.num_neurons != net.width(layer):
        raise ValidationError(
            f"clustering covers {clustering.num_neurons} neurons, layer {layer} "
            f"has {net.width(layer)}"
        )
    ws = list(net.weights)
    bs = list(net.biases)
    j_in = layer - 2
    j_out = layer - 1
    reps = list(clustering.representatives)
    ws[j_in] = ws[j_in][reps, :]
    bs[j_in] = bs[j_in][reps]
    ws[j_out] = clustering.sum_columns(ws[j_out])
    return Network(tuple(ws), tuple(bs), net.output_activation)


def _fingerprint(X: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(X.shape).encode())
    h.update(np.ascontiguousarray(X, dtype=np.float64).tobytes())
    return "sha256:" + h.hexdigest()


@dataclass(frozen=True, eq=False)
class AbstractionRecord:
    """Everything produced by one abstraction run.

    A record is the original network plus, per hidden layer, the clusters,
    representatives, and per-original-neuron epsilons measured during merging;
    that is all a record file stores. Everything else is derived from it once,
    at construction: ``abstract_net``, the merge of the original layer by layer
    with the recorded clusterings, and ``layers``, one clustering per layer
    1..L, the identity at the input and output layers. Error bounds and lifted
    interval bounds are functions of the record (and a query) alone. ``_memo``
    caches what is derived later, such as the lift operator.
    """

    original_net: Network
    clusterings: tuple[LayerClustering, ...]
    seed: int = 0
    input_fingerprint: str = ""
    num_inputs: int = 0
    abstract_net: Network = field(init=False)
    layers: tuple[LayerClustering, ...] = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        orig = self.original_net
        L = orig.num_layers
        if len(self.clusterings) != L - 2:
            raise ValidationError(
                f"expected one clustering per hidden layer ({L - 2}), got {len(self.clusterings)}"
            )
        merged = orig
        for layer, cl in enumerate(self.clusterings, start=2):
            if cl.layer != layer:
                raise ValidationError(
                    f"clustering {layer - 2} labeled layer {cl.layer}, expected {layer}"
                )
            if cl.num_neurons != orig.width(layer):
                raise ValidationError(
                    f"layer {layer}: clustering covers {cl.num_neurons} neurons, "
                    f"original has {orig.width(layer)}"
                )
            if cl.num_clusters < cl.num_neurons:
                merged = _merge_layer(merged, layer, cl)
        object.__setattr__(self, "abstract_net", merged)
        first, last = (LayerClustering.identity(layer, orig.width(layer)) for layer in (1, L))
        object.__setattr__(self, "layers", (first, *self.clusterings, last))

    @property
    def k_l(self) -> dict[int, int]:
        """Cluster count per hidden layer (1-based layer index)."""
        return {cl.layer: cl.num_clusters for cl in self.clusterings}

    @property
    def removed_neurons(self) -> int:
        """Hidden neurons the abstraction removed, over all layers."""
        return sum(cl.num_neurons - cl.num_clusters for cl in self.clusterings)

    def clustering_for(self, layer: int) -> LayerClustering:
        if not 2 <= check_int(layer, "layer") <= self.original_net.num_layers - 1:
            raise ValidationError(f"no clustering for layer {layer}")
        return self.clusterings[layer - 2]

    def neuron_map(self, layer: int) -> np.ndarray:
        """Original neuron index -> abstract neuron index for one layer 1..L."""
        if not 1 <= check_int(layer, "layer") <= len(self.layers):
            raise ValidationError(f"layer must be in [1, {len(self.layers)}], got {layer}")
        return self.layers[layer - 1].neuron_map()

    def layer_epsilons(self) -> tuple[np.ndarray, ...]:
        """Abstract-indexed epsilon per layer 1..L: per cluster, the max over members."""
        return tuple(cl.abstract_epsilons() for cl in self.layers)

    def original_epsilons(self) -> tuple[np.ndarray, ...]:
        """Per-original-neuron epsilon per layer 1..L (zero off the hidden layers)."""
        return tuple(cl.epsilons for cl in self.layers)

    def to_json(self) -> str:
        doc = {
            "schema": 1,
            "original_network": self.original_net.to_dict(),
            "layers": [
                {
                    "layer": cl.layer,
                    "clusters": [list(members) for members in cl.clusters],
                    "representatives": list(cl.representatives),
                    "epsilon": _encode_array(cl.epsilons),
                }
                for cl in self.clusterings
            ],
            "provenance": {
                "k_l": {str(k): v for k, v in self.k_l.items()},
                "seed": self.seed,
                "input_fingerprint": self.input_fingerprint,
                "num_inputs": self.num_inputs,
            },
        }
        return json.dumps(doc)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, text: str) -> "AbstractionRecord":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        try:
            if "abstract_network" in doc:
                raise FormatError(
                    "the record stores an abstract_network, a layout that is no longer read; "
                    "re-run `abstract` to write the record again"
                )
            original_net = Network.from_dict(doc["original_network"])
            layers = doc["layers"]
            prov = doc["provenance"]
            if "epsilon_norm" in prov:
                raise FormatError(
                    "the record's provenance names an epsilon_norm, so its epsilons may be "
                    "l2 distances rather than the largest gaps over X; re-run `abstract` "
                    "to write the record again"
                )
            clusterings = tuple(
                LayerClustering(
                    layer=_json_int(entry["layer"]),
                    clusters=tuple(tuple(_json_int(i) for i in c) for c in entry["clusters"]),
                    representatives=tuple(_json_int(r) for r in entry["representatives"]),
                    epsilons=_decode_array(entry["epsilon"], f"layers[{i}].epsilon"),
                )
                for i, entry in enumerate(layers)
            )
            fingerprint = prov.get("input_fingerprint", "")
            if not isinstance(fingerprint, str):
                raise FormatError(f"input_fingerprint must be a string, got {fingerprint!r}")
            if "k_l" in prov:
                k_l = {layer: _json_int(k, "cluster count") for layer, k in prov["k_l"].items()}
                if k_l != {str(cl.layer): cl.num_clusters for cl in clusterings}:
                    raise FormatError(f"provenance k_l {k_l} disagrees with the clusterings")
            return cls(
                original_net=original_net,
                clusterings=clusterings,
                seed=_json_int(prov.get("seed", 0), "seed"),
                input_fingerprint=fingerprint,
                num_inputs=_json_int(prov.get("num_inputs", 0), "num_inputs"),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise FormatError(f"record document has a missing or mistyped field: {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"record document holds a malformed value: {exc}") from exc

    @classmethod
    def load(cls, path) -> "AbstractionRecord":
        return cls.from_json(_read_text(path))


def _abstract_layers(net: Network, X, seed: int, choose) -> AbstractionRecord:
    """The per-layer merge loop behind :func:`abstract` and :func:`search_abstraction`.

    Shallow to deep, ``choose(layer, running, cluster)`` returns the clustering
    that merges ``layer`` of the partially-merged network ``running``, or None
    to keep it whole. ``cluster(k)`` runs k-means with seed ``seed + layer`` on
    the layer's activations over X. The activations are collected once per
    layer, and so is their k-means++ seeding: every k tried takes the first k
    centres of that one draw, which are the centres a fresh draw of k picks.
    """
    seed = check_int(seed, "seed")  # each layer seeds k-means with seed + layer, >= 0 even for -1
    X = net._check_input(X)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"X must be a non-empty (n, d) array, got shape {X.shape}")
    running = net
    clusterings = []
    for layer in net.hidden_layers:
        act = functools.cache(lambda: collect_activations(running, X, layer))
        seeding = functools.cache(lambda: KMeansSeeding(act().values, seed + layer))
        clustering = choose(layer, running, lambda k: cluster_layer(act(), k, seed=seeding()))
        if clustering is None:
            clustering = LayerClustering.identity(layer, running.width(layer))
        else:
            running = _merge_layer(running, layer, clustering)
        clusterings.append(clustering)
    return AbstractionRecord(
        original_net=net,
        clusterings=tuple(clusterings),
        seed=seed,
        input_fingerprint=_fingerprint(X),
        num_inputs=X.shape[0],
    )


def abstract(
    net: Network,
    X: np.ndarray,
    k_l: dict[int, int] | None = None,
    seed: int = 0,
) -> AbstractionRecord:
    """Merge each hidden layer down to ``k_l[layer]`` neurons.

    Layers are processed shallow to deep; each layer is clustered on the
    activations of the current partially-merged network over X. Hidden layers
    missing from ``k_l`` keep their width (identity, bit-exact). The per-layer
    k-means seed is derived from ``seed`` and the layer index, so a run with the
    committed k values reproduces any search that used the same seed.
    """
    k_l = dict(k_l or {})
    for layer in k_l:
        if not 2 <= check_int(layer, "k_l layer") <= net.num_layers - 1:
            raise ValidationError(f"k_l layer {layer} is not hidden (2..{net.num_layers - 1})")
        if not 1 <= check_int(k_l[layer], f"k_l[{layer}]") <= net.width(layer):
            raise ValidationError(
                f"k_l[{layer}] must be in [1, {net.width(layer)}], got {k_l[layer]}"
            )

    def choose(layer, running, cluster):
        k = k_l.get(layer, running.width(layer))
        return cluster(k) if k < running.width(layer) else None

    return _abstract_layers(net, X, seed, choose)


def reduction_rate(record: AbstractionRecord) -> float:
    """Fraction of hidden neurons removed by the abstraction."""
    orig = record.original_net.layer_sizes[1:-1]
    abst = record.abstract_net.layer_sizes[1:-1]
    total = sum(orig)
    if total == 0:
        return 0.0
    return 1.0 - sum(abst) / total


# the share of the data, split by seed, on which `abstract --alpha` and `bench` judge alpha
VAL_FRACTION = 0.2


def search_abstraction(
    net: Network,
    ds: LabeledDataset,
    alpha: float,
    seed: int = 0,
    *,
    val: LabeledDataset,
    X: np.ndarray | None = None,
) -> AbstractionRecord:
    """Abstract with, per hidden layer, the smallest cluster count keeping accuracy >= alpha.

    Works shallow to deep: for each hidden layer a binary search over k commits
    the smallest count whose merged network still reaches ``alpha`` accuracy on
    the held-out validation set ``val``, then continues on the committed
    network. The full-width k (identity) is always admissible, so a layer that
    tolerates no merging keeps its width. The clustering tried at the committed
    k is the one kept, so the record equals
    ``abstract(net, X, record.k_l, seed)``.

    Activations are collected on ``X``, by default the inputs of ``ds``.
    Requires ``alpha`` to be at most the network's validation accuracy.
    Each network's validation accuracy is measured once: the base network's,
    then each candidate merge's; a committed candidate's becomes the running
    network's.
    """
    if not np.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    base_acc = accuracy(net, val)
    if alpha > base_acc:
        raise ValidationError(
            f"alpha {alpha} exceeds the network's validation accuracy {base_acc}"
        )

    running_acc = base_acc  # the validation accuracy of the running net, measured once

    def choose(layer, running, cluster):
        nonlocal running_acc
        if not running_acc > alpha:
            return None
        best = None  # the clustering tried at hi; None while hi is the full width
        lo, hi = 1, running.width(layer)
        while lo < hi:
            mid = (lo + hi) // 2
            candidate = cluster(mid)
            candidate_acc = accuracy(_merge_layer(running, layer, candidate), val)
            if candidate_acc >= alpha:
                hi, best, best_acc = mid, candidate, candidate_acc
            else:
                lo = mid + 1
        if best is not None:
            running_acc = best_acc  # the merge of best is the next running net
        return best

    return _abstract_layers(net, ds.inputs if X is None else X, seed, choose)


def identify_clusters(
    net: Network,
    ds: LabeledDataset,
    alpha: float,
    seed: int = 0,
    *,
    val: LabeledDataset,
    X: np.ndarray | None = None,
) -> dict[int, int]:
    """The cluster counts ``{layer: k}`` that :func:`search_abstraction` commits."""
    return search_abstraction(net, ds, alpha, seed, val=val, X=X).k_l
