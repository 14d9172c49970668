"""Dataset loading, splitting, accuracy, and activation collection."""

import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from abstractnet import (
    FormatError,
    LabeledDataset,
    Network,
    ValidationError,
    accuracy,
    collect_activations,
    load_csv,
    load_idx,
    make_synthetic_digits,
    split_dataset,
)
from helpers import toy_abstract_network

IMAGES_MAGIC = 0x803
LABELS_MAGIC = 0x801


def write_idx_pair(tmp_path, pixels, labels, rows, cols, gz=False):
    """pixels: list of per-image byte lists."""
    img = struct.pack(">IIII", IMAGES_MAGIC, len(pixels), rows, cols)
    img += bytes(b for image in pixels for b in image)
    lab = struct.pack(">II", LABELS_MAGIC, len(labels)) + bytes(labels)
    suffix = ".gz" if gz else ".bin"
    ipath = tmp_path / f"images{suffix}"
    lpath = tmp_path / f"labels{suffix}"
    writer = gzip.open if gz else open
    with writer(ipath, "wb") as fh:
        fh.write(img)
    with writer(lpath, "wb") as fh:
        fh.write(lab)
    return ipath, lpath


def test_idx_single_pixel_scaling(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [[255]], [7], rows=1, cols=1)
    ds = load_idx(ipath, lpath)
    assert ds.inputs.shape == (1, 1)
    assert ds.inputs[0, 0] == 1.0
    assert ds.labels[0] == 7


def test_idx_layout_row_major(tmp_path):
    ipath, lpath = write_idx_pair(
        tmp_path, [[0, 51, 102, 153, 204, 255]], [3], rows=2, cols=3
    )
    ds = load_idx(ipath, lpath)
    assert ds.inputs.shape == (1, 6)
    assert np.allclose(ds.inputs[0], np.array([0, 51, 102, 153, 204, 255]) / 255.0)


def test_idx_gzip_round_trip(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [[10, 20], [30, 40]], [1, 2], 1, 2, gz=True)
    ds = load_idx(ipath, lpath)
    assert len(ds) == 2
    assert list(ds.labels) == [1, 2]


def test_idx_truncated_images(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [[1, 2, 3]], [0], rows=1, cols=3)
    ipath.write_bytes(ipath.read_bytes()[:-2])
    with pytest.raises(FormatError):
        load_idx(ipath, lpath)


def test_idx_bad_magic(tmp_path):
    ipath, lpath = write_idx_pair(tmp_path, [[1]], [0], 1, 1)
    raw = bytearray(ipath.read_bytes())
    raw[3] = 0x99
    ipath.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_idx(ipath, lpath)


def test_idx_count_mismatch(tmp_path):
    ipath, _ = write_idx_pair(tmp_path, [[1], [2]], [0, 1], 1, 1)
    lpath = tmp_path / "short_labels.bin"
    lpath.write_bytes(struct.pack(">II", LABELS_MAGIC, 1) + bytes([0]))
    with pytest.raises(ValidationError):
        load_idx(ipath, lpath)


@pytest.mark.parametrize("gz", [False, True])
def test_idx_row_limit_reads_the_first_rows(tmp_path, gz):
    pixels = [[0, 255], [1, 2], [3, 4]]
    ipath, lpath = write_idx_pair(tmp_path, pixels, [7, 8, 9], 1, 2, gz=gz)
    full = load_idx(ipath, lpath)
    for k in (1, 2, 3, 10):
        head = load_idx(ipath, lpath, max_rows=k)
        assert head.inputs.tobytes() == full.inputs[:k].tobytes()
        assert head.labels.tobytes() == full.labels[:k].tobytes()


def test_idx_row_limit_leaves_later_images_unread(tmp_path):
    # the header promises 3 images but the data stops after 2
    ipath, lpath = write_idx_pair(tmp_path, [[1], [2], [3]], [0, 1, 2], 1, 1)
    ipath.write_bytes(ipath.read_bytes()[:-1])
    assert load_idx(ipath, lpath, max_rows=2).labels.tolist() == [0, 1]
    with pytest.raises(FormatError):
        load_idx(ipath, lpath, max_rows=3)


def test_idx_row_limit_still_checks_the_counts(tmp_path):
    ipath, _ = write_idx_pair(tmp_path, [[1], [2]], [0, 1], 1, 1)
    lpath = tmp_path / "short_labels.bin"
    lpath.write_bytes(struct.pack(">II", LABELS_MAGIC, 1) + bytes([0]))
    with pytest.raises(ValidationError):
        load_idx(ipath, lpath, max_rows=1)


def test_csv_basic_and_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("label,a,b\n1,0.5,0.25\n0,-1,2\n")
    ds = load_csv(path)
    assert len(ds) == 2
    assert np.array_equal(ds.labels, np.array([1, 0]))
    assert np.array_equal(ds.inputs, np.array([[0.5, 0.25], [-1.0, 2.0]]))


def test_csv_without_header(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5\n0,0.75\n")
    assert len(load_csv(path)) == 2


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5,0.25\n0,-1\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_non_numeric_data_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5\n0,oops\n")
    with pytest.raises(FormatError):
        load_csv(path)


def test_csv_values_bit_identical_to_float(tmp_path):
    # every value reads as the float Python's float() makes of its token
    rng = np.random.default_rng(0)
    values = (rng.uniform(-1.0, 1.0, 600) * 10.0 ** rng.integers(-320, 309, 600)).tolist()
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
               1.7976931348623157e308, 1e-5, 123456789.0, 1 / 3]
    tokens = [repr(v) for v in values]
    tokens += ["1E5", "+3", ".5", "5.", " 7 ", "-0", "1e-400", "2.5e+10"]
    width = 7
    tokens += ["0.0"] * (-len(tokens) % width)
    rows = [tokens[i : i + width] for i in range(0, len(tokens), width)]
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{i % 10}," + ",".join(row) + "\n" for i, row in enumerate(rows)))
    ds = load_csv(path)
    reference = np.array([[float(t) for t in row] for row in rows])
    assert ds.inputs.tobytes() == reference.tobytes()
    assert ds.labels.tolist() == [i % 10 for i in range(len(rows))]


CSV_LAYOUTS = [
    "1,0.5,0.25\n0,-1,2e-3\n",
    "label,a,b\n1,0.5,0.25\n0,-1,2e-3\n",  # header row
    "\n1,0.5,0.25\n\n  \n0,-1,2e-3\n\n",  # blank lines
    "label,a,b\r\n1,0.5,0.25\r\n\r\n0,-1,2e-3\r\n",  # CRLF line ends
    "1,0.5,0.25\n0,-1,2e-3",  # no final newline
    "1, 0.5 ,0.25\n0,\t-1,2e-3 \n",  # spaces around values
]


def write_text(tmp_path, text, gz):
    path = tmp_path / ("d.csv.gz" if gz else "d.csv")
    with (gzip.open if gz else open)(path, "wb") as fh:
        fh.write(text.encode())
    return path


@pytest.mark.parametrize("text", CSV_LAYOUTS)
@pytest.mark.parametrize("gz", [False, True])
def test_csv_layouts_read_the_same_rows(tmp_path, text, gz):
    ds = load_csv(write_text(tmp_path, text, gz))
    assert ds.labels.tolist() == [1, 0]
    assert ds.inputs.tolist() == [[0.5, 0.25], [-1.0, 0.002]]


@pytest.mark.parametrize("text", CSV_LAYOUTS)
@pytest.mark.parametrize("gz", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_csv_row_limit_reads_the_first_rows(tmp_path, text, gz, k):
    # headers and blank lines do not count; a limit past the end reads every row
    path = write_text(tmp_path, text, gz)
    full = load_csv(path)
    head = load_csv(path, max_rows=k)
    assert head.inputs.tobytes() == full.inputs[:k].tobytes()
    assert head.labels.tobytes() == full.labels[:k].tobytes()


@pytest.mark.parametrize("gz", [False, True])
def test_csv_row_limit_leaves_later_rows_unread(tmp_path, gz):
    # data rows 1-3 are on lines 3, 4 and 6; row 4 (line 7) is malformed
    path = write_text(tmp_path, "label,a\n\n1,0.5\n0,0.25\n\n1,0.75\n0,oops\n1,1.0\n", gz)
    assert load_csv(path, max_rows=3).labels.tolist() == [1, 0, 1]
    for k in (4, 5, None):
        with pytest.raises(FormatError, match="^line 7: "):
            load_csv(path, max_rows=k)
    path = write_text(tmp_path, "1,0.5\n0,0.25\n1,0.75,3\n", gz)  # ragged row 3
    assert len(load_csv(path, max_rows=2)) == 2
    with pytest.raises(FormatError, match="^line 3: "):
        load_csv(path, max_rows=3)


@pytest.mark.parametrize("k", [0, -1, 1.5, True])
def test_row_limit_must_be_a_positive_count(tmp_path, k):
    path = write_text(tmp_path, CSV_LAYOUTS[0], False)
    with pytest.raises(ValidationError):
        load_csv(path, max_rows=k)
    ipath, lpath = write_idx_pair(tmp_path, [[1], [2]], [0, 1], 1, 1)
    with pytest.raises(ValidationError):
        load_idx(ipath, lpath, max_rows=k)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,0.5\n0,oops\n", 2),
        ("label,a\n1,0.5\n0,oops\n", 3),
        ("label,a\n\n1,0.5\n\n \n0,0.5\n0,oops\n", 7),
        ("1,0.5\r\n\r\n0,0.5,1\r\n", 3),  # ragged, more fields
        ("label,a,b\n1,0.5,0.25\n\n0,-1", 4),  # ragged, fewer fields
        ("1,0.5\n#,0.5\n", 2),  # no comment lines
        ("1,0.5\n# note\n", 2),
        ("1,0.5\n1_0,0.5\n", 2),  # float() read this as 10
        ("1,0.5\n0,0.5,\n", 2),  # trailing comma
        ("1,0.5\n0,,0.5\n", 2),
        ("1,0.5\n0,0x10\n", 2),
    ],
)
def test_csv_errors_name_the_line(tmp_path, text, line):
    for name, opener in (("d.csv", open), ("d.csv.gz", gzip.open)):
        path = tmp_path / name
        with opener(path, "wb") as fh:
            fh.write(text.encode())
        with pytest.raises(FormatError, match=f"^line {line}: "):
            load_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n", "label,a,b\n", "label,a,b\n\n  \n"])
def test_csv_without_data_rows(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match="no data rows"):
        load_csv(path)


def test_csv_feature_count_check(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0.5,0.25\n")
    with pytest.raises(ValidationError):
        load_csv(path, n_inputs=3)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        LabeledDataset(np.zeros((2, 3)), np.zeros(5))
    with pytest.raises(ValidationError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, -1]))


def test_split_deterministic_partition():
    ds = make_synthetic_digits(50, seed=3)
    a1, b1 = split_dataset(ds, 0.2, seed=9)
    a2, b2 = split_dataset(ds, 0.2, seed=9)
    assert np.array_equal(a1.inputs, a2.inputs)
    assert np.array_equal(b1.labels, b2.labels)
    assert len(a1) + len(b1) == len(ds)
    assert len(b1) == 10
    # different seed shuffles differently
    a3, _ = split_dataset(ds, 0.2, seed=10)
    assert not np.array_equal(a1.inputs, a3.inputs)


def test_split_rejects_degenerate_fractions():
    ds = make_synthetic_digits(10, seed=0)
    with pytest.raises(ValidationError):
        split_dataset(ds, 0.0)
    with pytest.raises(ValidationError):
        split_dataset(ds, 1.0)


def test_accuracy_on_toy():
    # toy net classifies everything as 0 unless z < -5-ish; craft half/half labels
    net = toy_abstract_network()
    inputs = np.array([[1.0, 1.0], [2.0, 0.5]])
    ds = LabeledDataset(inputs, np.array([0, 1]))
    assert accuracy(net, ds) == 0.5
    ds_all = LabeledDataset(inputs, np.array([0, 0]))
    assert accuracy(net, ds_all) == 1.0


def test_accuracy_feature_mismatch():
    net = toy_abstract_network()
    ds = LabeledDataset(np.zeros((1, 3)), np.array([0]))
    with pytest.raises(ValidationError):
        accuracy(net, ds)


def test_collect_activations_golden():
    net = toy_abstract_network()
    X = np.array([[1.0, 1.0], [-1.0, -1.0]])
    act = collect_activations(net, X, 2)
    # neuron rows, input columns: neuron 0 gives (2, 0), neuron 1 gives (0, 0)
    assert act.values.shape == (2, 2)
    assert np.array_equal(act.values, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert act.layer == 2


def test_collect_activations_stops_at_its_layer_bit_for_bit():
    # the pass stops at the requested layer; every hidden layer still equals
    # the full forward trace exactly, whatever the output activation
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 5))
    for output_activation in ("identity", "relu"):
        sizes = (5, 9, 7, 8, 3)
        ws = tuple(rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:]))
        bs = tuple(rng.normal(size=o) for o in sizes[1:])
        net = Network(ws, bs, output_activation=output_activation)
        trace = net.forward_trace(X)
        for layer in net.hidden_layers:
            act = collect_activations(net, X, layer)
            assert np.array_equal(act.values, trace.activations[layer - 1].T)
        # the output-only pass keeps one layer at a time, with the same arithmetic
        assert net.forward(X).tobytes() == trace.output.tobytes()
        assert net.forward(X[0]).tobytes() == net.forward_trace(X[0]).output.tobytes()
    with pytest.raises(ValidationError):  # inputs are still checked against the net
        collect_activations(net, X[:, :4], 2)
    with pytest.raises(ValidationError):
        collect_activations(net, np.full((2, 5), np.nan), 2)


def test_classify_keeps_one_layer_alive():
    # a 3x100 net on 2000 rows: the pass holds at most two 2000x100 layers at once
    rng = np.random.default_rng(5)
    sizes = (64, 100, 100, 100, 10)
    ws = tuple(rng.normal(size=(o, i)) for i, o in zip(sizes[:-1], sizes[1:]))
    net = Network(ws, tuple(np.zeros(o) for o in sizes[1:]))
    X = rng.uniform(size=(2000, 64))
    tracemalloc.start()
    try:
        net.classify(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2000 * 100 * 8


def test_collect_activations_rejects_non_hidden():
    net = toy_abstract_network()
    X = np.array([[1.0, 1.0]])
    for layer in (1, 4, 0):
        with pytest.raises(ValidationError):
            collect_activations(net, X, layer)


def test_synthetic_digits_deterministic():
    a = make_synthetic_digits(30, seed=5)
    b = make_synthetic_digits(30, seed=5)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)
    assert a.inputs.shape == (30, 64)
    assert a.inputs.min() >= 0.0 and a.inputs.max() <= 1.0
    assert set(np.unique(a.labels)) <= set(range(10))
    c = make_synthetic_digits(30, seed=6)
    assert not np.array_equal(a.inputs, c.inputs)


def test_take_returns_prefix():
    ds = make_synthetic_digits(20, seed=1)
    head = ds.take(5)
    assert len(head) == 5
    assert np.array_equal(head.inputs, ds.inputs[:5])
