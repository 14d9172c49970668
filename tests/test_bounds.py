"""Abstraction error recurrence and the combined error budget."""

import numpy as np
import pytest

from abstractnet import (
    Network,
    ValidationError,
    abstract,
    clustering_error,
    total_error,
)
from helpers import random_k_l, random_network, toy_record


def test_clustering_error_hand_unrolled():
    e = 0.3
    record = toy_record(e)
    bounds = clustering_error(record)
    # original coordinates: F1=(0,0), F2=(0,0), F3=(0,e), F4=|W3|(0,e)=(e,e)
    assert bounds.original_per_layer[0].tolist() == [0.0, 0.0]
    assert bounds.original_per_layer[1].tolist() == [0.0, 0.0]
    assert bounds.original_per_layer[2].tolist() == [0.0, e]
    assert bounds.original_per_layer[3].tolist() == [e, e]
    # abstract coordinates: merged layer reports the worst member
    assert bounds.per_layer[2].tolist() == [e]
    assert np.array_equal(bounds.output, np.array([e, e]))


def test_total_error_toy_formula():
    # perturbation flows through the abstract weights: 8d and 4d at the two
    # outputs, plus the clustering error e at each
    e, d = 0.25, 0.125
    record = toy_record(e)
    assert total_error(record, d).tolist() == [8 * d + e, 4 * d + e]
    assert total_error(record, 0.0).tolist() == [e, e]


def test_total_error_vector_delta():
    e = 0.5
    record = toy_record(e)
    got = total_error(record, np.array([0.1, 0.0]))
    assert got == pytest.approx([0.4 + e, 0.2 + e])


def test_total_error_chain_network():
    net = Network(
        (np.array([[-3.0]]), np.array([[2.0]])),
        (np.zeros(1), np.zeros(1)),
    )
    record = abstract(net, np.array([[1.0]]))
    assert total_error(record, 0.5).tolist() == [6.0 * 0.5]


def test_error_recurrence_uses_original_weights():
    # members with opposite-sign outgoing weights: the abstract column sums to
    # zero, and a bound propagated through it would vanish. The recurrence must
    # instead charge each original member's |weight|.
    net = Network(
        (np.array([[1.0], [1.2]]), np.array([[1.0, -1.0]])),
        (np.zeros(2), np.zeros(1)),
    )
    X = np.array([[1.0], [2.0]])
    record = abstract(net, X, k_l={2: 1}, seed=0)
    assert record.abstract_net.weights[1].tolist() == [[0.0]]
    eps = record.clustering_for(2).epsilons.max()
    assert eps == pytest.approx(0.4)  # rows (1, 2) and (1.2, 2.4) over X: largest gap 0.4
    assert clustering_error(record).output[0] == pytest.approx(eps)
    # the abstract net itself is constant, so perturbation adds nothing
    assert total_error(record, 10.0)[0] == pytest.approx(eps)


def test_error_bound_covers_observed_gaps():
    # the output bound dominates |abstract(x) - original(x)| for every x in X,
    # and per layer the abstract value covers each represented member
    rng = np.random.default_rng(14)
    for trial in range(30):
        net = random_network(rng)
        X = rng.normal(size=(10, net.layer_sizes[0]))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=trial)
        bounds = clustering_error(record)
        slack = 1e-9
        for x in X:
            orig_trace = record.original_net.forward_trace(x)
            abst_trace = record.abstract_net.forward_trace(x)
            for layer in range(1, net.num_layers + 1):
                mapping = record.neuron_map(layer)
                gap = np.abs(
                    abst_trace.activations[layer - 1][mapping]
                    - orig_trace.activations[layer - 1]
                )
                assert np.all(gap <= bounds.original_per_layer[layer - 1] + slack)


def test_total_error_covers_perturbed_outputs():
    rng = np.random.default_rng(15)
    for trial in range(20):
        net = random_network(rng)
        X = rng.normal(size=(8, net.layer_sizes[0]))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=trial)
        delta = float(rng.uniform(0.0, 0.2))
        T = total_error(record, delta)
        for x in X[:4]:
            y_orig = record.original_net.forward(x)
            shifts = rng.uniform(-delta, delta, size=(50, x.shape[0]))
            y_abst = record.abstract_net.forward(x + shifts)
            assert np.all(np.abs(y_abst - y_orig) <= T + 1e-9)


def test_total_error_validation():
    record = toy_record(0.0)
    with pytest.raises(ValidationError):
        total_error(record, -0.1)
    with pytest.raises(ValidationError):
        total_error(record, np.array([0.1, 0.1, 0.1]))
    for bad in (np.nan, np.inf, np.array([0.1, np.nan])):
        with pytest.raises(ValidationError):
            total_error(record, bad)


def test_naive_check_margins():
    # toy outputs at (1,1) are (9, 2): output 0 keeps its lead over output 1
    # under the error budget T iff 9 - T0 > 2 + T1, i.e. T0 + T1 < 7
    y = toy_record(0.0).abstract_net.forward(np.array([1.0, 1.0]))
    assert y.tolist() == [9.0, 2.0]

    def margin(e, delta):
        T = total_error(toy_record(e), delta)
        return (y[0] - T[0]) - (y[1] + T[1])

    assert margin(3.4, 0.0) > 0
    assert margin(3.5, 0.0) <= 0
    assert margin(3.6, 0.0) <= 0
    # with e = 0 the budget is 12*delta
    assert margin(0.0, 0.5) > 0
    assert margin(0.0, 0.6) <= 0
