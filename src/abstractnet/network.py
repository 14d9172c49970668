"""Fully-connected ReLU networks: the value type everything else operates on.

Layers are numbered 1..L with layer 1 the input and layer L the output, so a
network with one hidden layer has L = 3. ``weights[j]`` maps layer j+1 to layer
j+2 and has shape (width of layer j+2, width of layer j+1); row i holds the
incoming weights of neuron i. Hidden layers apply ReLU; the output layer applies
``output_activation`` ("identity" exposes raw logits, the default).

Net and record files are JSON documents whose weight, bias and epsilon arrays
are each stored as ``{"dtype": "<f8", "shape": [...], "data": "<base64>"}``:
the array's little-endian float64 bytes in C order, base64-encoded, so a file
holds the exact float bits. :func:`_encode_array` writes that object and
:func:`_decode_array` reads it back; the decoded array is then checked by the
constructor that receives it (see :func:`_frozen`), not trusted. Arrays stored
as JSON number lists, the layout written before, are rejected.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, check_int

OUTPUT_ACTIVATIONS = ("identity", "relu")


def _frozen(a, name: str, ndim: int) -> np.ndarray:
    """A read-only float64 copy of ``a``: non-empty, finite, with ``ndim`` axes."""
    arr = np.array(a, dtype=np.float64, order="C")
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


def _json_int(value, what: str = "index") -> int:
    """An integer >= 0 read from a file; only JSON integers qualify, not bools or floats."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"expected an integer {what} >= 0, got {value!r}")
    return value


def _encode_array(a: np.ndarray) -> dict:
    """The JSON object that stores float array ``a`` bit for bit; see :func:`_decode_array`."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"dtype": "<f8", "shape": list(a.shape), "data": base64.b64encode(raw).decode("ascii")}


def _decode_array(doc, name: str) -> np.ndarray:
    """The float64 array an :func:`_encode_array` object stores, as a read-only view.

    Raises FormatError unless ``doc`` has exactly the three keys, dtype
    ``"<f8"``, a shape of JSON integers >= 0, and strict base64 data of
    8 bytes per entry. Values, axes and emptiness are the receiver's to check.
    """
    if isinstance(doc, list):
        raise FormatError(
            f"{name} is stored as a list of numbers, a layout that is no longer read; "
            "re-run `train` or `abstract` to write the file again"
        )
    if not isinstance(doc, dict) or set(doc) != {"dtype", "shape", "data"}:
        raise FormatError(f"{name} must be an object with keys dtype, shape and data")
    if doc["dtype"] != "<f8":
        raise FormatError(f"{name} has dtype {doc['dtype']!r}, expected '<f8'")
    if not isinstance(doc["shape"], list):
        raise FormatError(f"{name} shape must be a list, got {doc['shape']!r}")
    shape = tuple(_json_int(n, f"{name} shape entry") for n in doc["shape"])
    if not isinstance(doc["data"], str):
        raise FormatError(f"{name} data must be a base64 string")
    try:
        raw = base64.b64decode(doc["data"], validate=True)
    except ValueError as exc:
        raise FormatError(f"{name} data is not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise FormatError(f"{name} data holds {len(raw)} bytes, not 8 per entry of shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _as_delta(delta, shape) -> np.ndarray:
    """The radius ``delta`` of a box around inputs of ``shape``, as a read-only view of that shape.

    A radius is a scalar, one entry per feature (shared by every row of a
    batch), or one entry per input entry; it must be finite and non-negative.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim != 0 and d.shape not in (shape, shape[-1:]):
        raise ValidationError(f"delta shape {d.shape} does not match input shape {shape}")
    if not np.all(np.isfinite(d)) or np.any(d < 0):
        raise ValidationError("delta must be finite and non-negative")
    return np.broadcast_to(d, shape)


def _forward_layers(weights, biases, x: np.ndarray, relu_output: bool = False):
    """Pre- and post-activation values of every layer, input first, on bare weight lists."""
    pres = [x]
    acts = [x]
    last = len(weights) - 1
    for j, (w, b) in enumerate(zip(weights, biases)):
        h = acts[-1] @ w.T + b
        pres.append(h)
        acts.append(np.maximum(h, 0.0) if j < last or relu_output else h)
    return pres, acts


def _forward_output(weights, biases, x: np.ndarray, relu_output: bool = False) -> np.ndarray:
    """The last layer of :func:`_forward_layers`, bit for bit, keeping one layer at a time."""
    h = x
    last = len(weights) - 1
    for j, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T
        h += b
        if j < last or relu_output:
            np.maximum(h, 0.0, out=h)
    return h


@dataclass(frozen=True, eq=False)
class LayerTrace:
    """Per-layer values of one forward pass.

    ``preactivations[j]`` and ``activations[j]`` correspond to layer j+1; for the
    input layer both equal the input itself. Arrays are (width,) for a single
    input or (n_samples, width) for a batch.
    """

    preactivations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable feedforward ReLU network.

    Weight and bias arrays are copied and marked read-only at construction, so a
    Network can be shared freely across threads.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    output_activation: str = "identity"

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValidationError("a network needs at least one weight matrix (input -> output)")
        if len(self.weights) != len(self.biases):
            raise ValidationError(
                f"{len(self.weights)} weight matrices but {len(self.biases)} bias vectors"
            )
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValidationError(
                f"output_activation must be one of {OUTPUT_ACTIVATIONS}, got {self.output_activation!r}"
            )
        ws = tuple(_frozen(w, f"weights[{j}]", 2) for j, w in enumerate(self.weights))
        bs = tuple(_frozen(b, f"biases[{j}]", 1) for j, b in enumerate(self.biases))
        for j, (w, b) in enumerate(zip(ws, bs)):
            if b.shape[0] != w.shape[0]:
                raise ValidationError(
                    f"biases[{j}] has {b.shape[0]} entries but weights[{j}] has {w.shape[0]} rows"
                )
            if j > 0 and w.shape[1] != ws[j - 1].shape[0]:
                raise ValidationError(
                    f"weights[{j}] expects {w.shape[1]} inputs but the previous layer "
                    f"has {ws[j - 1].shape[0]} neurons"
                )
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def num_layers(self) -> int:
        """L, counting input and output."""
        return len(self.weights) + 1

    def width(self, layer: int) -> int:
        """Width of 1-based layer index ``layer``."""
        sizes = self.layer_sizes
        if not 1 <= check_int(layer, "layer") <= len(sizes):
            raise ValidationError(f"layer must be in [1, {len(sizes)}], got {layer}")
        return sizes[layer - 1]

    @property
    def hidden_layers(self) -> range:
        """1-based indices of the hidden layers: 2..L-1."""
        return range(2, self.num_layers)

    def _check_input(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.layer_sizes[0]:
            raise ValidationError(
                f"input must have {self.layer_sizes[0]} features, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("input contains non-finite entries")
        return arr

    def forward_trace(self, x) -> LayerTrace:
        """Forward pass keeping every layer's pre- and post-activation values.

        Accepts a single input (n_1,) or a batch (n_samples, n_1).
        """
        pres, acts = _forward_layers(
            self.weights, self.biases, self._check_input(x), self.output_activation == "relu"
        )
        return LayerTrace(tuple(pres), tuple(acts))

    def forward(self, x) -> np.ndarray:
        """Network output for a single input or a batch.

        Bit-identical to ``forward_trace(x).output``, but only one layer's
        values are alive at a time.
        """
        return _forward_output(
            self.weights, self.biases, self._check_input(x), self.output_activation == "relu"
        )

    def classify(self, x) -> np.ndarray | np.intp:
        """Argmax label(s); ties resolve to the lowest index."""
        return np.argmax(self.forward(x), axis=-1)

    def to_dict(self) -> dict:
        """The network's JSON document; the inverse of :meth:`from_dict`."""
        return {
            "layer_sizes": list(self.layer_sizes),
            "layers": [
                {"weights": _encode_array(w), "bias": _encode_array(b)}
                for w, b in zip(self.weights, self.biases)
            ],
            "output_activation": self.output_activation,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "Network":
        try:
            sizes = list(doc["layer_sizes"])
            layers = doc["layers"]
            act = doc.get("output_activation", "identity")
            ws, bs = [], []
            for j, layer in enumerate(layers):
                ws.append(_decode_array(layer["weights"], f"weights[{j}]"))
                bs.append(_decode_array(layer["bias"], f"biases[{j}]"))
        except (KeyError, TypeError) as exc:
            raise FormatError(f"network document missing field: {exc}") from exc
        net = cls(tuple(ws), tuple(bs), output_activation=act)
        if list(net.layer_sizes) != sizes:
            raise ValidationError(
                f"declared layer_sizes {sizes} do not match matrices {list(net.layer_sizes)}"
            )
        return net

    @classmethod
    def from_json(cls, text: str) -> "Network":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError("network JSON must be an object")
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path) -> "Network":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True, eq=False)
class RobustnessQuery:
    """An input point with an L-infinity perturbation radius per feature.

    ``delta`` may be a scalar (broadcast over features) or a vector matching x.
    """

    x: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        x = _frozen(self.x, "x", 1)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "delta", _frozen(_as_delta(self.delta, x.shape), "delta", 1))
