"""Seeds, counts, widths, layer indices, radii and partitions from a caller are rejected
with ValidationError."""

import numpy as np
import pytest

from abstractnet import (
    LabeledDataset, LayerClustering, RobustnessQuery, ValidationError, abstract,
    collect_activations,
    epsilon_vector, falsify, init_network, kmeans, make_synthetic_digits, search_abstraction,
    split_dataset,
)

NET = init_network((4, 6, 5, 3), seed=0)
X = np.random.default_rng(1).uniform(size=(30, 4))
DS = LabeledDataset(X, NET.classify(X))
POINTS = np.random.default_rng(2).normal(size=(8, 3))
QUERY = RobustnessQuery(X[0], 0.1)
RECORD = abstract(NET, X, {2: 3}, seed=0)


def search(seed):
    return search_abstraction(NET, DS, 0.0, seed=seed, val=DS)


REJECTED = [
    pytest.param(lambda: split_dataset(DS, 0.2, seed=-1), id="split_dataset-seed"),
    pytest.param(lambda: init_network((4, 6, 3), seed=-1), id="init_network-seed"),
    pytest.param(lambda: kmeans(POINTS, 3, seed=-1), id="kmeans-seed"),
    *(
        pytest.param(lambda s=s: abstract(NET, X, {2: 3}, seed=s), id=f"abstract-seed-{s}")
        for s in (-1, -3, 1.5)
    ),
    *(pytest.param(lambda s=s: search(s), id=f"search-seed-{s}") for s in (-1, -3, 1.5)),
    pytest.param(lambda: falsify(NET, QUERY, seed=-1), id="falsify-seed"),
    pytest.param(lambda: kmeans(POINTS, True), id="kmeans-k-bool"),
    pytest.param(lambda: kmeans(POINTS, 2.0), id="kmeans-k-float"),
    pytest.param(lambda: abstract(NET, X, {2: True}), id="abstract-k-bool"),
    pytest.param(lambda: abstract(NET, X, {2: 4.0}), id="abstract-k-float"),
    pytest.param(lambda: abstract(NET, X, {2.5: 3}), id="abstract-k-layer-float"),
    pytest.param(lambda: make_synthetic_digits(2.5), id="synthetic-n-float"),
    pytest.param(lambda: falsify(NET, QUERY, samples=2.5), id="falsify-samples-float"),
    pytest.param(lambda: RobustnessQuery(np.zeros(0), 0.1), id="query-zero-features"),
    *(
        pytest.param(lambda w=w: init_network((4, w, 3)), id=f"init_network-width-{w}")
        for w in (6.7, True)
    ),
    *(
        pytest.param(call, id=f"{name}-layer-{layer}")
        for layer in (2.0, True)
        for name, call in (
            ("width", lambda layer=layer: NET.width(layer)),
            ("collect_activations", lambda layer=layer: collect_activations(NET, X, layer)),
            ("neuron_map", lambda layer=layer: RECORD.neuron_map(layer)),
            ("clustering_for", lambda layer=layer: RECORD.clustering_for(layer)),
        )
    ),
    # a clustering's epsilons are one finite, non-negative entry per neuron
    *(
        pytest.param(lambda e=e: LayerClustering(2, ((0, 1),), (0,), e), id=f"epsilons-{name}")
        for name, e in (
            ("scalar", 0.5), ("null", None), ("2-d", [[0.0, 0.5]]), ("empty", []),
            ("negative", [0.0, -0.5]), ("nan", [0.0, np.nan]),
        )
    ),
    # epsilon_vector needs a partition of the rows, each representative in its own cluster
    *(
        pytest.param(lambda c=c, r=r: epsilon_vector(POINTS[:3], c, r), id=f"epsilon_vector-{name}")
        for name, c, r in (
            ("uncovered", [(0, 1)], [0]),
            ("rep-outside", [(0, 1), (2,)], [2, 2]),
            ("rep-range", [(0, 1, 2)], [5]),
        )
    ),
]


@pytest.mark.parametrize("call", REJECTED)
def test_rejected_inputs_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_numpy_integers_are_python_integers_in_a_record():
    # a numpy seed or count is accepted, and the record holds plain ints
    want = abstract(NET, X, {2: 3, 3: 2}, seed=4).to_json()
    got = abstract(NET, X, {np.int64(2): np.int32(3), 3: np.int64(2)}, seed=np.int64(4))
    assert got.to_json() == want


def test_clustering_keeps_its_own_read_only_epsilons():
    # the caller's array is copied: writing to it afterwards changes nothing
    e = np.array([0.0, 0.5])
    cl = LayerClustering(2, ((0, 1),), (0,), e)
    e[0] = -5.0
    assert cl.epsilons.tolist() == [0.0, 0.5]
    with pytest.raises(ValueError):
        cl.epsilons[0] = -5.0
