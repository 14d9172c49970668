"""Merging clusters, abstraction records, and cluster-count search."""

import hashlib
import json
from collections import Counter, defaultdict

import numpy as np
import pytest

from abstractnet import (
    AbstractionRecord,
    FormatError,
    LabeledDataset,
    LayerClustering,
    Network,
    ValidationError,
    abstract,
    accuracy,
    identify_clusters,
    reduction_rate,
    search_abstraction,
)
import abstractnet.abstraction
import abstractnet.clustering
from helpers import (
    MALFORMED_ARRAYS,
    as_number_lists,
    decoded,
    encoded,
    merge_one_cluster,
    random_network,
    toy_abstract_network,
    toy_original_network,
    toy_record,
)


def test_merge_weight_surgery():
    net = Network(
        (
            np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            np.array([[7.0, 8.0, 9.0]]),
        ),
        (np.array([0.1, 0.2, 0.3]), np.array([1.0])),
    )
    clustering = LayerClustering(2, ((0, 2), (1,)), (0, 1), np.zeros(3))
    merged = AbstractionRecord(net, (clustering,)).abstract_net
    # non-representative rows and bias entries go away
    assert np.array_equal(merged.weights[0], np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(merged.biases[0], np.array([0.1, 0.2]))
    # representative's outgoing column absorbs every member's column
    assert np.array_equal(merged.weights[1], np.array([[16.0, 8.0]]))
    assert np.array_equal(merged.biases[1], np.array([1.0]))
    assert merged.layer_sizes == (2, 2, 1)


def test_merge_duplicate_neurons_is_exact():
    original = toy_original_network()
    merged = merge_one_cluster(original, 3, (0, 1))
    target = toy_abstract_network()
    for got, want in zip(merged.weights, target.weights):
        assert np.array_equal(got, want)
    for got, want in zip(merged.biases, target.biases):
        assert np.array_equal(got, want)


def test_merge_planted_duplicates_preserves_outputs():
    rng = np.random.default_rng(4)
    for trial in range(25):
        net = random_network(rng)
        layer = int(rng.integers(2, net.num_layers))
        width = net.width(layer)
        if width < 2:
            continue
        i, j = sorted(rng.choice(width, size=2, replace=False).tolist())
        ws = [w.copy() for w in net.weights]
        bs = [b.copy() for b in net.biases]
        ws[layer - 2][j] = ws[layer - 2][i]
        bs[layer - 2][j] = bs[layer - 2][i]
        planted = Network(tuple(ws), tuple(bs), net.output_activation)
        merged = merge_one_cluster(planted, layer, (i, j))
        assert merged.width(layer) == width - 1
        X = rng.normal(size=(16, net.layer_sizes[0]))
        # summation order changes (a*c1 + a*c2 vs a*(c1+c2)), so allow rounding
        assert np.allclose(planted.forward(X), merged.forward(X), rtol=1e-9, atol=1e-12)


def test_merge_validation():
    net = toy_original_network()
    keep2, keep3 = LayerClustering.identity(2, 2), LayerClustering.identity(3, 2)
    pair = ((0, 1),)
    with pytest.raises(ValidationError):  # input layer
        AbstractionRecord(net, (LayerClustering(1, pair, (0,), np.zeros(2)), keep3))
    with pytest.raises(ValidationError):  # output layer
        AbstractionRecord(net, (keep2, LayerClustering(4, pair, (0,), np.zeros(2))))
    with pytest.raises(ValidationError):  # one clustering too many
        AbstractionRecord(net, (keep2, keep3, LayerClustering(4, pair, (0,), np.zeros(2))))
    with pytest.raises(ValidationError):  # empty cluster
        LayerClustering(3, ((0, 1), ()), (0, 1), np.zeros(2))
    with pytest.raises(ValidationError):  # rep not a member
        LayerClustering(3, pair, (2,), np.zeros(2))
    with pytest.raises(ValidationError):  # index out of range
        LayerClustering(3, ((0, 5),), (0,), np.zeros(2))
    wide = LayerClustering(3, ((0, 5), (1,), (2,), (3,), (4,)), (0, 1, 2, 3, 4), np.zeros(6))
    with pytest.raises(ValidationError):  # more neurons than the layer has
        AbstractionRecord(net, (keep2, wide))


def test_singleton_merge_is_identity():
    net = toy_original_network()
    keep2, keep3 = LayerClustering.identity(2, 2), LayerClustering.identity(3, 2)
    same = AbstractionRecord(net, (keep2, keep3)).abstract_net
    layer_pass = abstractnet.abstraction._merge_layer(net, 2, keep2)
    for merged in (same, layer_pass):
        for got, want in zip(merged.weights + merged.biases, net.weights + net.biases):
            assert np.array_equal(got, want)


def test_toy_record_abstract_net_is_the_hand_built_merge():
    # the record derives its abstract net; for the toy record it is the
    # hand-built 2-2-1-2 net bit for bit, whatever the recorded radius
    target = toy_abstract_network()
    for e in (0.0, 0.25):
        net = toy_record(e).abstract_net
        assert net.layer_sizes == target.layer_sizes
        assert net.output_activation == target.output_activation
        for got, want in zip(net.weights + net.biases, target.weights + target.biases):
            assert np.array_equal(got, want)


def test_abstract_identity_when_k_omitted():
    net = toy_original_network()
    X = np.array([[1.0, 1.0], [0.5, -0.5]])
    record = abstract(net, X)
    assert record.abstract_net.layer_sizes == net.layer_sizes
    for got, want in zip(record.abstract_net.weights, net.weights):
        assert np.array_equal(got, want)
    assert reduction_rate(record) == 0.0
    for cl in record.clusterings:
        assert cl.num_clusters == cl.num_neurons
        assert np.all(cl.epsilons == 0.0)


def test_abstract_merges_duplicates_exactly():
    net = toy_original_network()
    X = np.array([[1.0, 1.0], [0.5, -0.5], [2.0, 0.0]])
    record = abstract(net, X, k_l={3: 1}, seed=0)
    target = toy_abstract_network()
    for got, want in zip(record.abstract_net.weights, target.weights):
        assert np.array_equal(got, want)
    cl = record.clustering_for(3)
    assert cl.clusters == ((0, 1),)
    assert np.all(cl.epsilons == 0.0)  # duplicates are zero distance apart
    assert record.num_inputs == 3
    assert record.input_fingerprint.startswith("sha256:")


def test_epsilons_measured_on_partially_merged_network():
    # layer 2 has near-duplicates; after merging them, layer 3 activations
    # differ from the original network's, and the layer-3 epsilon must be
    # measured on the merged (running) network.
    net = Network(
        (
            np.array([[1.0], [1.1]]),
            np.array([[1.0, 0.0], [0.0, 2.0]]),
            np.array([[1.0, 1.0]]),
        ),
        (np.zeros(2), np.zeros(2), np.zeros(1)),
    )
    X = np.array([[1.0], [2.0]])
    record = abstract(net, X, k_l={2: 1, 3: 1}, seed=0)
    # merged layer 2 rep is neuron 0, so layer-3 rows over X become
    # (1, 2) and (2, 4); their largest gap is 2
    cl3 = record.clustering_for(3)
    assert cl3.clusters == ((0, 1),)
    rep = cl3.representatives[0]
    other = 1 - rep
    assert cl3.epsilons[other] == pytest.approx(2.0, rel=1e-12)
    # the original network's rows (1, 2) and (2.2, 4.4) would have given 2.4
    assert cl3.epsilons[other] != pytest.approx(2.4, rel=1e-6)


def test_abstract_is_seed_deterministic():
    rng = np.random.default_rng(9)
    net = random_network(rng, sizes=(3, 8, 8, 2))
    X = rng.normal(size=(12, 3))
    a = abstract(net, X, k_l={2: 4, 3: 5}, seed=17)
    b = abstract(net, X, k_l={2: 4, 3: 5}, seed=17)
    assert a.to_json() == b.to_json()


def test_abstract_validation():
    net = toy_original_network()
    X = np.array([[1.0, 1.0]])
    with pytest.raises(ValidationError):
        abstract(net, np.zeros((1, 3)))  # wrong feature count
    with pytest.raises(ValidationError):
        abstract(net, X, k_l={1: 1})  # input layer not mergeable
    with pytest.raises(ValidationError):
        abstract(net, X, k_l={2: 0})
    with pytest.raises(ValidationError):
        abstract(net, X, k_l={2: 3})  # exceeds width


def test_reduction_rate_examples():
    rng = np.random.default_rng(2)
    net = random_network(rng, sizes=(4, 15, 15, 3))
    X = rng.normal(size=(10, 4))
    record = abstract(net, X, k_l={2: 13, 3: 13}, seed=0)
    # 4 of 30 hidden neurons removed
    assert reduction_rate(record) == pytest.approx(4 / 30)
    assert f"{reduction_rate(record) * 100:.2f}" == "13.33"


def test_record_json_round_trip():
    record = toy_record(0.25)
    doc = json.loads(record.to_json())
    assert doc["schema"] == 1
    back = AbstractionRecord.from_json(record.to_json())
    for got, want in zip(back.abstract_net.weights, record.abstract_net.weights):
        assert np.array_equal(got, want)
    for got, want in zip(back.original_net.weights, record.original_net.weights):
        assert np.array_equal(got, want)
    assert back.k_l == record.k_l
    for a, b in zip(back.clusterings, record.clusterings):
        assert a.clusters == b.clusters
        assert a.representatives == b.representatives
        assert np.array_equal(a.epsilons, b.epsilons)
    assert (back.seed, back.num_inputs) == (record.seed, record.num_inputs)
    assert back.input_fingerprint == record.input_fingerprint


def test_record_json_bytes_are_pinned():
    # the bytes a record is saved as: the original network, the clusterings and
    # the provenance; the abstract network is derived on load, not stored. Each
    # array is its little-endian float64 bytes in base64: "AAAAAAAA8D8" is 1.0,
    # "AAAAAAAA8L8" -1.0, "AAAAAAAAFEA" 5.0 and "AAAAAAAA0D8" 0.25
    record = toy_record(0.25)
    zeros = '{"dtype": "<f8", "shape": [2], "data": "AAAAAAAAAAAAAAAAAAAAAA=="}'
    original_net = (
        '"original_network": {"layer_sizes": [2, 2, 2, 2], "layers": [{"weights": '
        '{"dtype": "<f8", "shape": [2, 2], '
        '"data": "AAAAAAAA8D8AAAAAAADwPwAAAAAAAPA/AAAAAAAA8L8="}, "bias": ' + zeros + '}, '
        '{"weights": {"dtype": "<f8", "shape": [2, 2], '
        '"data": "AAAAAAAA8D8AAAAAAADwPwAAAAAAAPA/AAAAAAAA8D8="}, "bias": ' + zeros + '}, '
        '{"weights": {"dtype": "<f8", "shape": [2, 2], '
        '"data": "AAAAAAAA8D8AAAAAAADwPwAAAAAAAAAAAAAAAAAA8D8="}, "bias": '
        '{"dtype": "<f8", "shape": [2], "data": "AAAAAAAAFEAAAAAAAAAAAA=="}}], '
        '"output_activation": "identity"}, "layers": [{"layer": 2, "clusters": [[0], [1]], '
        '"representatives": [0, 1], "epsilon": ' + zeros + '}, {"layer": 3, '
        '"clusters": [[0, 1]], "representatives": [0], "epsilon": '
        '{"dtype": "<f8", "shape": [2], "data": "AAAAAAAAAAAAAAAAAADQPw=="}}], '
        '"provenance": {"k_l": {"2": 2, "3": 1}, "seed": 0, "input_fingerprint": '
        '"sha256:bc4a99bf0583c9b2ca22ff043820c4a78cb0c9099abe8a7ae350e00d601503a7", '
        '"num_inputs": 2}}'
    )
    assert record.to_json() == '{"schema": 1, ' + original_net
    # the layout that also stored the abstract network is rejected, not read
    legacy = (
        '{"schema": 1, "abstract_network": {"layer_sizes": [2, 2, 1, 2], "layers": [{"weights": '
        '{"dtype": "<f8", "shape": [2, 2], '
        '"data": "AAAAAAAA8D8AAAAAAADwPwAAAAAAAPA/AAAAAAAA8L8="}, "bias": ' + zeros + '}, '
        '{"weights": {"dtype": "<f8", "shape": [1, 2], "data": "AAAAAAAA8D8AAAAAAADwPw=="}, '
        '"bias": {"dtype": "<f8", "shape": [1], "data": "AAAAAAAAAAA="}}, {"weights": '
        '{"dtype": "<f8", "shape": [2, 1], "data": "AAAAAAAAAEAAAAAAAADwPw=="}, "bias": '
        '{"dtype": "<f8", "shape": [2], "data": "AAAAAAAAFEAAAAAAAAAAAA=="}}], '
        '"output_activation": "identity"}, ' + original_net
    )
    with pytest.raises(FormatError, match="abstract_network"):
        AbstractionRecord.from_json(legacy)
    assert json.loads(record.to_json())["original_network"] == record.original_net.to_dict()
    net = record.abstract_net
    assert legacy.startswith('{"schema": 1, "abstract_network": ' + net.to_json()[:-1])
    assert Network.from_dict(net.to_dict()).to_json() == net.to_json()
    # the layout that stored arrays as number lists is rejected, not read
    with pytest.raises(FormatError, match="no longer read"):
        AbstractionRecord.from_json(json.dumps(as_number_lists(json.loads(record.to_json()))))
    doc = json.loads(record.to_json())
    doc["layers"][1]["epsilon"] = [0.0, 0.25]
    with pytest.raises(FormatError, match="no longer read"):
        AbstractionRecord.from_json(json.dumps(doc))


def test_record_save_load(tmp_path):
    record = toy_record(0.5)
    path = tmp_path / "record.json"
    record.save(path)
    back = AbstractionRecord.load(path)
    assert back.to_json() == record.to_json()


@pytest.mark.parametrize("seed", range(4))
def test_record_epsilons_round_trip_bit_exact(seed, tmp_path):
    # epsilons holding subnormals, -0.0 and the largest finite float, on random
    # nets of several depths; save -> load -> save rewrites the same bytes
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    special = np.array([5e-324, np.finfo(float).tiny / 7, -0.0, 0.0, np.finfo(float).max, 0.1])
    clusterings = []
    for layer in net.hidden_layers:
        cl = LayerClustering.identity(layer, net.width(layer))
        eps = rng.choice(special, size=cl.num_neurons)
        clusterings.append(LayerClustering(layer, cl.clusters, cl.representatives, eps))
    record = AbstractionRecord(net, tuple(clusterings), seed=seed, num_inputs=3)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    record.save(first)
    back = AbstractionRecord.load(first)
    for got, want in zip(back.clusterings, record.clusterings):
        assert got.epsilons.tobytes() == want.epsilons.tobytes()
        assert not got.epsilons.flags.writeable
    for got, want in zip(back.original_net.weights, record.original_net.weights):
        assert got.tobytes() == want.tobytes()
    back.save(second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "edit, error", [pytest.param(e, err, id=i) for i, e, err in MALFORMED_ARRAYS]
)
def test_malformed_epsilon_arrays_rejected(edit, error):
    doc = json.loads(toy_record(0.25).to_json())
    doc["layers"][1]["epsilon"] = edit(doc["layers"][1]["epsilon"])
    with pytest.raises(error):
        AbstractionRecord.from_json(json.dumps(doc))


def test_record_from_json_errors():
    with pytest.raises(FormatError):
        AbstractionRecord.from_json("{not json")
    with pytest.raises(FormatError):
        AbstractionRecord.from_json(json.dumps({"schema": 1, "layers": []}))
    good = json.loads(toy_record(0.25).to_json())

    def drop_last(arr_doc):
        return encoded(decoded(arr_doc).flat[:-1], arr_doc["shape"])

    for edit in (
        lambda doc: doc["layers"][1]["clusters"][0].__setitem__(1, 1.5),
        lambda doc: doc["layers"][1]["clusters"][0].__setitem__(1, "1"),
        lambda doc: doc["layers"][0]["representatives"].__setitem__(0, True),
        # a non-numeric epsilon and a ragged weight row, restated on the encoded
        # arrays: a payload outside the base64 alphabet, and an entry dropped
        # under the declared shape
        lambda doc: doc["layers"][1]["epsilon"].__setitem__("data", "wide?"),
        lambda doc: doc["original_network"]["layers"][0].update(
            weights=drop_last(doc["original_network"]["layers"][0]["weights"])
        ),
        lambda doc: doc["provenance"].__setitem__("seed", "x"),
        lambda doc: doc["provenance"].__setitem__("seed", 1.5),
        lambda doc: doc["provenance"].__setitem__("seed", "7"),
        lambda doc: doc["provenance"].__setitem__("seed", True),
        lambda doc: doc["provenance"].__setitem__("seed", -7),
        lambda doc: doc["provenance"].__setitem__("input_fingerprint", 5),
        lambda doc: doc["provenance"].__setitem__("num_inputs", "-3"),
        lambda doc: doc["provenance"].__setitem__("num_inputs", -3),
        lambda doc: doc["provenance"].__setitem__("num_inputs", 2.0),
        lambda doc: doc["provenance"].__setitem__("num_inputs", False),
        # a record that names its epsilon norm predates the one epsilon, and may hold l2 ones
        *(
            lambda doc, v=v: doc["provenance"].__setitem__("epsilon_norm", v)
            for v in ("l2", "linf", "l3", 5)
        ),
        lambda doc: doc["provenance"]["k_l"].__setitem__("3", 2),
        lambda doc: doc["provenance"]["k_l"].__setitem__("3", True),
        lambda doc: doc["provenance"]["k_l"].__setitem__("4", 1),
        lambda doc: doc["provenance"]["k_l"].pop("2"),
        lambda doc: doc["provenance"].__setitem__("k_l", [2, 1]),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        with pytest.raises(FormatError):
            AbstractionRecord.from_json(json.dumps(doc))
    # epsilons decoded, edited and re-encoded: negative, NaN, a scalar, one too many
    for eps, shape in (([0.0, -0.25], [2]), ([0.0, np.nan], [2]), ([0.25], []),
                       ([0.0, 0.25, 0.0], [3])):
        doc = json.loads(json.dumps(good))
        doc["layers"][1]["epsilon"] = encoded(eps, shape)
        with pytest.raises(ValidationError):
            AbstractionRecord.from_json(json.dumps(doc))
    # the unedited document, and each field at another valid value, still load
    for field, value in (("seed", 7), ("num_inputs", 0)):
        doc = json.loads(json.dumps(good))
        doc["provenance"][field] = value
        assert getattr(AbstractionRecord.from_json(json.dumps(doc)), field) == value


def test_record_accessors():
    e = 0.75
    record = toy_record(e)
    assert record.k_l == {2: 2, 3: 1}
    assert record.neuron_map(1).tolist() == [0, 1]
    assert record.neuron_map(3).tolist() == [0, 0]
    assert record.neuron_map(4).tolist() == [0, 1]
    eps = record.layer_epsilons()
    assert [v.tolist() for v in eps] == [[0.0, 0.0], [0.0, 0.0], [e], [0.0, 0.0]]
    orig_eps = record.original_epsilons()
    assert orig_eps[2].tolist() == [0.0, e]
    with pytest.raises(ValidationError):
        record.clustering_for(1)
    with pytest.raises(ValidationError):
        record.neuron_map(5)
    first, c2, c3, last = record.layers
    assert (c2, c3) == record.clusterings
    for cl, layer in ((first, 1), (last, 4)):
        assert cl.layer == layer and cl.clusters == ((0,), (1,)) and cl.representatives == (0, 1)
    assert record.removed_neurons == 1


def test_record_validation_rejects_mismatch():
    record = toy_record(0.0)
    with pytest.raises(ValidationError):
        AbstractionRecord(
            original_net=record.original_net,
            clusterings=record.clusterings[:1],  # one clustering missing
        )


def separable_pairs_dataset():
    """Classify sign(x0) with a net whose hidden layer holds two duplicate pairs."""
    net = Network(
        (
            np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]),
            np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
        ),
        (np.zeros(4), np.zeros(2)),
    )
    inputs = np.array([[1.0, 0.3], [2.0, -0.4], [-1.0, 0.9], [-2.0, 0.1]])
    ds = LabeledDataset(inputs, np.array([0, 0, 1, 1]))
    return net, ds


def test_identify_clusters_finds_smallest_admissible_k():
    net, ds = separable_pairs_dataset()
    assert accuracy(net, ds) == 1.0
    k_l = identify_clusters(net, ds, alpha=0.9, seed=0, val=ds)
    # the duplicate pairs merge losslessly; one single cluster would collapse
    # the two classes and fail the accuracy bar
    assert k_l == {2: 2}
    record = abstract(net, ds.inputs, k_l=k_l, seed=0)
    assert accuracy(record.abstract_net, ds) == 1.0


def test_identify_clusters_alpha_above_accuracy_rejected():
    net, ds = separable_pairs_dataset()
    with pytest.raises(ValidationError):
        identify_clusters(net, ds, alpha=1.01, val=ds)


def test_search_rejects_non_finite_alpha():
    # NaN fails every accuracy comparison, so it would merge nothing; -inf
    # would admit a single cluster on every layer
    net, ds = separable_pairs_dataset()
    for alpha in (np.nan, -np.inf, np.inf):
        with pytest.raises(ValidationError, match="alpha must be finite"):
            search_abstraction(net, ds, alpha, val=ds)


def test_identify_clusters_strict_guard_keeps_width():
    # alpha equal to the network's accuracy: the outer guard demands strictly
    # better, so no merging is attempted and every layer keeps its width
    net, ds = separable_pairs_dataset()
    k_l = identify_clusters(net, ds, alpha=1.0, val=ds)
    assert k_l == {2: 4}


def test_identify_clusters_admissibility_property():
    rng = np.random.default_rng(21)
    for trial in range(5):
        net = random_network(rng, sizes=(3, 9, 7, 2))
        inputs = rng.normal(size=(40, 3))
        labels = np.asarray(net.classify(inputs))
        ds = LabeledDataset(inputs, labels)  # net is perfect on its own labels
        alpha = 0.6
        k_l = identify_clusters(net, ds, alpha=alpha, seed=trial, val=ds)
        assert set(k_l) == {2, 3}
        record = abstract(net, ds.inputs, k_l=k_l, seed=trial)
        assert accuracy(record.abstract_net, ds) >= alpha


def test_search_record_equals_abstract_at_its_k_l():
    # the search keeps the clustering it tried at each committed k, so its
    # record is the one abstract() builds from the committed counts
    rng = np.random.default_rng(8)
    merged = 0
    for trial in range(120):
        net = random_network(rng)
        X = rng.normal(size=(int(rng.integers(8, 40)), net.layer_sizes[0]))
        ds = LabeledDataset(X, np.asarray(net.classify(X)))
        alpha = float(rng.uniform(0.3, 0.95))
        record = search_abstraction(net, ds, alpha, seed=trial, val=ds)
        again = abstract(net, X, record.k_l, seed=trial)
        assert record.to_json() == again.to_json()
        assert record.k_l == identify_clusters(net, ds, alpha, trial, val=ds)
        merged += reduction_rate(record) > 0
    assert merged >= 60


def integer_search_case():
    """A small net, inputs and labels with integer values, so activations are exact."""
    rng = np.random.default_rng(5)
    sizes = [4, 12, 10, 3]
    ws = tuple(rng.integers(-2, 3, (o, i)).astype(float) for i, o in zip(sizes[:-1], sizes[1:]))
    bs = tuple(rng.integers(-1, 2, o).astype(float) for o in sizes[1:])
    net = Network(ws, bs)
    X, V = rng.integers(0, 4, (2, 40, 4)).astype(float)
    return net, LabeledDataset(X, net.classify(X)), LabeledDataset(V, net.classify(V))


def test_search_record_bytes_are_pinned():
    # the record this seeded search writes; a change to k-means, its seeding or
    # the search that moves any byte fails here, even when abstract() moves
    # with it. The arrays are those of the record and merged net written when
    # a record also named its epsilon norm, under "linf" with that one
    # provenance entry removed; the digests are of their base64 encoding.
    net, ds, val = integer_search_case()
    record = search_abstraction(net, ds, 0.9, seed=3, val=val)
    assert record.k_l == {2: 7, 3: 6}
    assert hashlib.sha256(record.to_json().encode()).hexdigest() == (
        "f4682f2e3dd67d8891938d413fe21203b562936e5868389bba6589f305ded5f2"
    )
    # the merged network the record derives, which no record file stores
    assert hashlib.sha256(record.abstract_net.to_json().encode()).hexdigest() == (
        "8385cbbe04b1b25233f36ac7e4500181b15814fe4560aad96285dc340923c2b2"
    )


def float_search_case():
    """A Gaussian-weight net (6-24-20-4) with real-valued inputs and activations."""
    rng = np.random.default_rng(17)
    sizes = [6, 24, 20, 4]
    ws = tuple(rng.normal(0.0, 1.0 / np.sqrt(i), (o, i)) for i, o in zip(sizes[:-1], sizes[1:]))
    bs = tuple(rng.normal(0.0, 0.1, o) for o in sizes[1:])
    net = Network(ws, bs)
    X, V = rng.normal(size=(2, 60, 6))
    return net, LabeledDataset(X, net.classify(X)), LabeledDataset(V, net.classify(V))


def test_float_search_record_bytes_are_pinned():
    # Gram-matrix arithmetic is exact on integer activations, so the integer
    # case above cannot see a change to k-means that moves real-valued bytes;
    # this record holds the arrays written by row-by-row seeding distances and
    # a Lloyd loop run one cluster at a time (the "linf" record of that code,
    # with its epsilon_norm provenance entry removed), base64-encoded
    net, ds, val = float_search_case()
    record = search_abstraction(net, ds, 0.8, seed=4, val=val)
    assert record.k_l == {2: 19, 3: 11}
    assert hashlib.sha256(record.to_json().encode()).hexdigest() == (
        "bd72aed69a2656af99cbcded8e4ba90ccd068b9c8cb6784eb88bd94402eb565c"
    )


def test_search_builds_each_layer_gram_matrix_once(monkeypatch):
    # one Gram matrix per layer k-means ran on, shared by the seeding and
    # every Lloyd step of every k the search tried there
    rng = np.random.default_rng(8)
    net = random_network(rng, [5, 14, 12, 10, 3])
    X, V = rng.normal(size=(2, 50, 5))
    ds, val = LabeledDataset(X, net.classify(X)), LabeledDataset(V, net.classify(V))
    grams = Counter()  # layer width -> Gram matrices built
    real_gram = abstractnet.clustering._gram_matrix
    monkeypatch.setattr(
        abstractnet.clustering,
        "_gram_matrix",
        lambda points: grams.update([points.shape[0]]) or real_gram(points),
    )
    tried = defaultdict(list)  # layer width -> k tried
    real_cluster_layer = abstractnet.abstraction.cluster_layer

    def cluster_layer(act, k, **kwargs):
        tried[act.num_neurons].append(k)
        return real_cluster_layer(act, k, **kwargs)

    monkeypatch.setattr(abstractnet.abstraction, "cluster_layer", cluster_layer)
    search_abstraction(net, ds, 0.6, seed=1, val=val)
    assert len(tried) == 3 and all(len(ks) > 1 for ks in tried.values())
    assert grams == {width: 1 for width in tried}


def test_search_measures_each_net_accuracy_once(monkeypatch):
    # the base net and each candidate merge; a committed or kept layer reuses
    # the accuracy already measured
    net, ds, val = integer_search_case()
    measured = []
    real_accuracy = abstractnet.abstraction.accuracy
    monkeypatch.setattr(
        abstractnet.abstraction,
        "accuracy",
        lambda net, data: measured.append(net.layer_sizes) or real_accuracy(net, data),
    )
    tried = []
    real_cluster_layer = abstractnet.abstraction.cluster_layer
    monkeypatch.setattr(
        abstractnet.abstraction,
        "cluster_layer",
        lambda act, k, **kwargs: tried.append(k) or real_cluster_layer(act, k, **kwargs),
    )
    record = search_abstraction(net, ds, 0.9, seed=3, val=val)
    assert len(measured) == 1 + len(tried)
    assert record.k_l == {2: 7, 3: 6}


def test_search_draws_each_layer_seeding_once(monkeypatch):
    # one k-means++ draw per centre of the largest k tried on a layer, not one
    # per centre of every k tried
    net, ds, val = integer_search_case()
    draws = Counter()  # rng seed -> centres drawn
    real_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.seed, self.rng = seed, real_rng(seed)

        def integers(self, *args, **kwargs):
            draws[self.seed] += 1
            return self.rng.integers(*args, **kwargs)

        def choice(self, *args, **kwargs):
            draws[self.seed] += 1
            return self.rng.choice(*args, **kwargs)

    tried = defaultdict(list)  # layer -> k tried
    real_cluster_layer = abstractnet.abstraction.cluster_layer

    def cluster_layer(act, k, **kwargs):
        tried[act.layer].append(k)
        return real_cluster_layer(act, k, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    monkeypatch.setattr(abstractnet.abstraction, "cluster_layer", cluster_layer)
    search_abstraction(net, ds, 0.9, seed=3, val=val)
    assert tried == {2: [6, 9, 8, 7], 3: [5, 8, 7, 6]}
    assert draws == {3 + layer: max(ks) for layer, ks in tried.items()}
