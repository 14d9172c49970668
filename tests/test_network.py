"""Forward semantics, serialization round-trips, and input validation."""

import json

import numpy as np
import pytest

from abstractnet import FormatError, Network, RobustnessQuery, ValidationError, collect_activations
from helpers import (
    MALFORMED_ARRAYS, as_number_lists, decoded, encoded, random_network, toy_abstract_network,
)

# finite floats a text layout could misread: subnormals, both zeros, the extremes
SPECIAL_VALUES = np.array([
    5e-324, -5e-324, np.finfo(float).tiny / 3, -0.0, 0.0, np.finfo(float).max,
    -np.finfo(float).max, np.finfo(float).tiny, 1 / 3, -np.pi * 1e-300,
])


def test_toy_forward_golden():
    net = toy_abstract_network()
    out = net.forward(np.array([1.0, 1.0]))
    assert np.array_equal(out, np.array([9.0, 2.0]))


def test_toy_trace_layers():
    # layer by layer on the shipped passes: one column per input for hidden layers
    net = toy_abstract_network()
    X = np.array([[1.0, 1.0]])
    assert np.array_equal(collect_activations(net, X, 2).values[:, 0], np.array([2.0, 0.0]))
    assert np.array_equal(collect_activations(net, X, 3).values[:, 0], np.array([2.0]))
    assert np.array_equal(net.forward(X[0]), np.array([9.0, 2.0]))


def test_relu_clamps_hidden_layers():
    # layer 2 computes (-2, 0) before ReLU and (0, 0) after it
    net = toy_abstract_network()
    X = np.array([[-1.0, -1.0]])
    assert np.array_equal(collect_activations(net, X, 2).values[:, 0], np.array([0.0, 0.0]))
    assert np.array_equal(collect_activations(net, X, 3).values[:, 0], np.array([0.0]))
    # output layer is identity here, so negatives may pass through
    assert np.array_equal(net.forward(X[0]), np.array([5.0, 0.0]))


def test_batched_forward_matches_loop():
    rng = np.random.default_rng(7)
    net = toy_abstract_network()
    xs = rng.normal(0, 1, (17, 2))
    batched = net.forward(xs)
    single = np.stack([net.forward(x) for x in xs])
    assert np.array_equal(batched, single)


def test_classify_breaks_ties_toward_lowest_index():
    w = np.array([[1.0], [1.0]])
    net = Network((w,), (np.zeros(2),), output_activation="identity")
    assert int(net.classify(np.array([3.0]))) == 0


def test_classify_batch():
    net = toy_abstract_network()
    xs = np.array([[1.0, 1.0], [-1.0, -1.0]])
    labels = net.classify(xs)
    assert labels.shape == (2,)
    assert list(labels) == [0, 0]


def test_relu_output_activation():
    w = np.array([[1.0]])
    net = Network((w,), (np.array([-2.0]),), output_activation="relu")
    assert net.forward(np.array([1.0]))[0] == 0.0


def test_layer_accessors():
    net = toy_abstract_network()
    assert net.layer_sizes == (2, 2, 1, 2)
    assert net.num_layers == 4
    assert net.width(1) == 2 and net.width(3) == 1
    assert list(net.hidden_layers) == [2, 3]
    with pytest.raises(ValidationError):
        net.width(0)
    with pytest.raises(ValidationError):
        net.width(5)


def test_json_round_trip_bit_exact():
    net = toy_abstract_network()
    clone = Network.from_json(net.to_json())
    assert clone.layer_sizes == net.layer_sizes
    assert clone.output_activation == net.output_activation
    for a, b in zip(clone.weights, net.weights):
        assert np.array_equal(a, b)
    for a, b in zip(clone.biases, net.biases):
        assert np.array_equal(a, b)


def test_save_load_round_trip(tmp_path):
    net = toy_abstract_network()
    path = tmp_path / "net.json"
    net.save(path)
    clone = Network.load(path)
    assert np.array_equal(clone.weights[2], net.weights[2])


@pytest.mark.parametrize("seed", range(6))
def test_random_nets_round_trip_bit_exact(seed, tmp_path):
    # depths 1..4, widths 1..10 including 1-wide layers, special values planted
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(1, 11)) for _ in range(seed % 4 + 2)]
    sizes[rng.integers(len(sizes))] = 1
    net = random_network(rng, sizes)
    ws = [w.copy() for w in net.weights]
    bs = [b.copy() for b in net.biases]
    for arr in (*ws, *bs):
        arr.flat[: SPECIAL_VALUES.size] = rng.permutation(SPECIAL_VALUES)[: arr.size]
    net = Network(tuple(ws), tuple(bs), output_activation=("identity", "relu")[seed % 2])
    clone = Network.from_json(net.to_json())
    assert clone.layer_sizes == net.layer_sizes == tuple(sizes)
    assert clone.output_activation == net.output_activation
    for got, want in zip((*clone.weights, *clone.biases), (*net.weights, *net.biases)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here, not under ==
        assert not got.flags.writeable
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    net.save(first)
    Network.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()


def test_arrays_are_stored_as_exact_bytes():
    net = Network((SPECIAL_VALUES.reshape(2, 5),), (SPECIAL_VALUES[:2],))
    layer = net.to_dict()["layers"][0]
    assert layer["weights"]["dtype"] == "<f8"
    assert layer["weights"]["shape"] == [2, 5]
    assert decoded(layer["weights"]).tobytes() == SPECIAL_VALUES.astype("<f8").tobytes()
    assert layer["bias"] == encoded(SPECIAL_VALUES[:2])


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        Network.load(path)
    # a ragged row, a string and an object among the weights, restated on the
    # encoded array: an entry dropped under the declared shape, a character
    # outside the base64 alphabet, and an object where the payload belongs
    doc = toy_abstract_network().to_dict()
    w = doc["layers"][0]["weights"]
    for weights in (
        encoded(decoded(w).flat[:-1], w["shape"]),
        {**w, "data": w["data"][:5] + "a!" + w["data"][7:]},
        {**w, "data": {}},
    ):
        doc["layers"][0]["weights"] = weights
        with pytest.raises(FormatError):
            Network.from_dict(doc)


def test_number_list_layout_is_rejected():
    # the layout that stored arrays as JSON number lists is not read
    doc = as_number_lists(toy_abstract_network().to_dict())
    assert doc["layers"][0]["weights"] == [[1.0, 1.0], [1.0, -1.0]]
    with pytest.raises(FormatError, match="no longer read"):
        Network.from_dict(doc)


@pytest.mark.parametrize(
    "edit, error", [pytest.param(e, err, id=i) for i, e, err in MALFORMED_ARRAYS]
)
@pytest.mark.parametrize("field", ["weights", "bias"])
def test_malformed_arrays_rejected(field, edit, error):
    doc = random_network(np.random.default_rng(3), (3, 4, 2)).to_dict()
    doc["layers"][0][field] = edit(doc["layers"][0][field])
    with pytest.raises(error):
        Network.from_json(json.dumps(doc))


def test_from_json_rejects_inconsistent_sizes():
    net = toy_abstract_network()
    doc = json.loads(net.to_json())
    doc["layer_sizes"][1] = 5
    with pytest.raises(ValidationError):
        Network.from_dict(doc)


def test_constructor_validates_shapes():
    w1 = np.zeros((3, 2))
    w2 = np.zeros((1, 4))  # expects width 3 input
    with pytest.raises(ValidationError):
        Network((w1, w2), (np.zeros(3), np.zeros(1)), output_activation="identity")
    with pytest.raises(ValidationError):
        Network((w1,), (np.zeros(2),), output_activation="identity")


def test_constructor_rejects_non_finite():
    w = np.array([[np.inf, 0.0]])
    with pytest.raises(ValidationError):
        Network((w,), (np.zeros(1),), output_activation="identity")


def test_forward_rejects_wrong_width():
    net = toy_abstract_network()
    with pytest.raises(ValidationError):
        net.forward(np.array([1.0, 2.0, 3.0]))


def test_weights_are_read_only():
    net = toy_abstract_network()
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 99.0


def test_output_bias_shifts_output():
    # adding c to an output bias entry shifts exactly that logit by c
    net = toy_abstract_network()
    ws = net.weights
    bs = list(net.biases)
    bs[-1] = bs[-1] + np.array([0.0, 3.0])
    bumped = Network(ws, tuple(bs), output_activation="identity")
    x = np.array([0.3, -0.2])
    assert np.allclose(bumped.forward(x) - net.forward(x), [0.0, 3.0])


def test_query_normalizes_scalar_delta():
    q = RobustnessQuery(np.array([1.0, 2.0]), 0.25)
    assert q.delta.shape == (2,)
    assert np.array_equal(q.delta, np.array([0.25, 0.25]))


def test_query_rejects_negative_delta():
    with pytest.raises(ValidationError):
        RobustnessQuery(np.array([1.0]), -0.1)
