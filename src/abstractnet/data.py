"""Datasets, file ingestion, accuracy, and activation collection.

Input sets are plain float64 arrays of shape (n_samples, n_features) scaled to
[0, 1] by the loaders. Labels are int64 class indices.
"""

from __future__ import annotations

import gzip
import re
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError, check_int, seeded_rng
from .network import Network, _forward_output

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Inputs (n, d) paired with integer labels (n,)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValidationError(f"inputs must be a non-empty (n, d) array, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValidationError(
                f"labels shape {y.shape} does not match {x.shape[0]} inputs"
            )
        if not np.all(np.isfinite(x)):
            raise ValidationError("inputs contain non-finite entries")
        if not np.issubdtype(y.dtype, np.integer):
            yf = np.asarray(y, dtype=np.float64)
            if np.any(yf != np.round(yf)):
                raise ValidationError("labels must be integers")
            y = yf.astype(np.int64)
        if np.any(y < 0):
            raise ValidationError("labels must be non-negative class indices")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y.astype(np.int64))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def num_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def take(self, n: int) -> "LabeledDataset":
        """First n samples."""
        return LabeledDataset(self.inputs[:n], self.labels[:n])


@dataclass(frozen=True, eq=False)
class ActivationMatrix:
    """Activations of one layer over an input set: rows = neurons, cols = inputs."""

    layer: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValidationError(f"activation matrix must be 2-d, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def num_neurons(self) -> int:
        return self.values.shape[0]


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file while reading {what}: wanted {count} bytes, got {len(data)}")
    return data


def load_idx(images_path, labels_path, max_rows: int | None = None) -> LabeledDataset:
    """Load an image/label pair in the big-endian IDX format.

    Pixel values are scaled to [0, 1] and images flattened row-major. Files
    ending in .gz are decompressed on the fly. Both headers are checked, and
    their counts must match; then only the first ``max_rows`` images and
    labels (all of them if None) are read.
    """
    if max_rows is not None:
        check_int(max_rows, "max_rows", 1)
    with _open_maybe_gzip(images_path) as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "image header"))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        n = count if max_rows is None else min(count, max_rows)
        raw = _read_exact(fh, n * rows * cols, "image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    with _open_maybe_gzip(labels_path) as fh:
        magic, lcount = struct.unpack(">II", _read_exact(fh, 8, "label header"))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        if count != lcount:
            raise ValidationError(f"{count} images but {lcount} labels")
        labels = np.frombuffer(_read_exact(fh, n, "label data"), dtype=np.uint8)
    return LabeledDataset(images.astype(np.float64) / 255.0, labels.astype(np.int64))


def _open_csv(path):
    opener = gzip.open if str(path).endswith(".gz") else open
    return opener(path, "rt", encoding="utf-8")


# numpy's loadtxt errors name the failing data row, 0-based for a bad value
# and 1-based for a changed field count; blank lines and a header are not rows
_BAD_VALUE = re.compile(r"could not convert string (.*) to float64 at row (\d+), column (\d+)")
_RAGGED = re.compile(r"the number of columns changed from (\d+) to (\d+) at row (\d+)")


def _csv_line_of_row(path, header: bool, row: int) -> int:
    """1-based file line of the 0-based data row that numpy counts."""
    with _open_csv(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if (header and lineno == 1) or line.isspace():
                continue
            if row == 0:
                return lineno
            row -= 1
    return lineno


def load_csv(path, n_inputs: int | None = None, max_rows: int | None = None) -> LabeledDataset:
    """Load rows of ``label, v1, ..., vn``. A non-numeric first token marks a header.

    Blank lines are skipped. Only the first ``max_rows`` data rows (all of
    them if None) are read; the header and blank lines do not count, and the
    lines after those rows are never parsed. A ragged or non-numeric row that
    is read raises :class:`FormatError` naming its 1-based line.
    """
    if max_rows is not None:
        check_int(max_rows, "max_rows", 1)
    with _open_csv(path) as fh:
        first = fh.readline()
        try:
            float(first.strip().split(",")[0])
            header = False
        except ValueError:
            header = True  # a blank first line, too, holds no data
        if not header:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                data = np.loadtxt(
                    (line for line in fh if not line.isspace()),
                    delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                    max_rows=max_rows,
                )
        except ValueError as exc:
            if match := _BAD_VALUE.search(str(exc)):
                value, row, field = match.groups()
                lineno = _csv_line_of_row(path, header, int(row))
                raise FormatError(
                    f"line {lineno}: non-numeric value {value} in field {field}"
                ) from exc
            if match := _RAGGED.search(str(exc)):
                expected, got, row = match.groups()
                lineno = _csv_line_of_row(path, header, int(row) - 1)
                raise FormatError(f"line {lineno}: expected {expected} fields, got {got}") from exc
            raise FormatError(str(exc)) from exc
    if data.size == 0:
        raise FormatError("no data rows")
    if n_inputs is not None and data.shape[1] != n_inputs + 1:
        raise ValidationError(f"expected label + {n_inputs} values per row, got {data.shape[1]}")
    return LabeledDataset(data[:, 1:], data[:, 0])


def split_dataset(ds: LabeledDataset, fraction: float, seed: int = 0):
    """Deterministic seeded split into (1 - fraction, fraction) parts.

    Returns (main, held_out). The same seed always yields the same permutation.
    """
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"fraction must be in (0, 1), got {fraction}")
    order = seeded_rng(seed).permutation(len(ds))
    n_held = max(1, int(round(len(ds) * fraction)))
    if n_held >= len(ds):
        raise ValidationError("split leaves no samples in the main part")
    held = order[:n_held]
    main = order[n_held:]
    return (
        LabeledDataset(ds.inputs[main], ds.labels[main]),
        LabeledDataset(ds.inputs[held], ds.labels[held]),
    )


def accuracy(net: Network, ds: LabeledDataset) -> float:
    """Fraction of samples whose argmax output matches the label."""
    predicted = net.classify(ds.inputs)
    return float(np.mean(predicted == ds.labels))


def collect_activations(net: Network, X: np.ndarray, layer: int) -> ActivationMatrix:
    """Post-activation values of one hidden layer over the input set X.

    ``layer`` is 1-based; only hidden layers (2..L-1) are accepted. The result
    has one row per neuron and one column per input. The forward pass stops at
    ``layer``, with the same arithmetic as the full pass up to there.
    """
    if not 2 <= check_int(layer, "layer") <= net.num_layers - 1:
        raise ValidationError(
            f"layer must be hidden (2..{net.num_layers - 1}), got {layer}"
        )
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"X must be a non-empty (n, d) array, got shape {X.shape}")
    depth = layer - 1
    h = _forward_output(
        net.weights[:depth], net.biases[:depth], net._check_input(X), relu_output=True
    )
    return ActivationMatrix(layer=layer, values=h.T.copy())
