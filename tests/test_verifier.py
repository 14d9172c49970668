"""Interval bound propagation and the three-valued robustness verdict."""

import numpy as np
import pytest

from abstractnet import (
    LayerBounds,
    RobustnessQuery,
    ValidationError,
    Verdict,
    check_robust,
    falsify,
    ibp_bounds,
    robust_mask,
)
from helpers import layer_values, random_network, toy_abstract_network


def test_ibp_toy_golden():
    net = toy_abstract_network()
    bounds = ibp_bounds(net, np.zeros(2), np.ones(2))
    assert bounds.output_lower == pytest.approx([5.0, 0.0], abs=1e-12)
    assert bounds.output_upper == pytest.approx([13.0, 4.0], abs=1e-12)
    assert check_robust(bounds, 0) is Verdict.ROBUST


def test_ibp_intermediate_layers_toy():
    net = toy_abstract_network()
    bounds = ibp_bounds(net, np.zeros(2), 1.0)
    # layer 2: z = (x0+x1, x0-x1) ranges [-2, 2] then ReLU
    assert bounds.lower[1] == pytest.approx([0.0, 0.0])
    assert bounds.upper[1] == pytest.approx([2.0, 2.0])
    # layer 3: sum of layer-2 activations, [0, 4]
    assert bounds.lower[2] == pytest.approx([0.0])
    assert bounds.upper[2] == pytest.approx([4.0])


def test_ibp_zero_delta_collapses_to_forward():
    rng = np.random.default_rng(6)
    for trial in range(20):
        net = random_network(rng)
        x = rng.normal(size=net.layer_sizes[0])
        bounds = ibp_bounds(net, x, 0.0)
        y = net.forward(x)
        assert np.allclose(bounds.output_lower, y, atol=1e-12)
        assert np.allclose(bounds.output_upper, y, atol=1e-12)


def test_ibp_encloses_sampled_points():
    rng = np.random.default_rng(8)
    for trial in range(20):
        net = random_network(rng)
        d = net.layer_sizes[0]
        x = rng.normal(size=d)
        delta = float(rng.uniform(0.0, 0.5))
        bounds = ibp_bounds(net, x, delta)
        points = rng.uniform(x - delta, x + delta, size=(200, d))
        for layer_idx, acts in enumerate(layer_values(net, points)):
            assert np.all(acts >= bounds.lower[layer_idx] - 1e-9)
            assert np.all(acts <= bounds.upper[layer_idx] + 1e-9)


def test_ibp_monotone_in_delta():
    net = toy_abstract_network()
    x = np.array([1.0, 1.0])
    small = ibp_bounds(net, x, 0.1)
    large = ibp_bounds(net, x, 0.3)
    assert np.all(large.output_lower <= small.output_lower + 1e-12)
    assert np.all(large.output_upper >= small.output_upper - 1e-12)


def test_ibp_batched_matches_single():
    net = toy_abstract_network()
    X = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]])
    batched = ibp_bounds(net, X, 0.25)
    for i, x in enumerate(X):
        single = ibp_bounds(net, x, 0.25)
        assert np.array_equal(batched.output_lower[i], single.output_lower)
        assert np.array_equal(batched.output_upper[i], single.output_upper)


def test_ibp_batch_accepts_shared_and_per_row_delta():
    net = toy_abstract_network()
    X = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]])
    D = np.array([[0.1, 0.0], [0.2, 0.3], [0.0, 0.05]])
    shared = ibp_bounds(net, X, D[1])
    per_row = ibp_bounds(net, X, D)
    for i, x in enumerate(X):
        for batched, d in ((shared, D[1]), (per_row, D[i])):
            single = ibp_bounds(net, x, d)
            assert np.array_equal(batched.output_lower[i], single.output_lower)
            assert np.array_equal(batched.output_upper[i], single.output_upper)


def test_ibp_relu_output_activation():
    net = toy_abstract_network()
    relu_net = type(net)(net.weights, net.biases, "relu")
    # push the box low enough that output 1 goes negative pre-clamp
    bounds = ibp_bounds(relu_net, np.array([-10.0, 0.0]), 0.0)
    assert np.all(bounds.output_lower >= 0.0)


def test_ibp_validation():
    net = toy_abstract_network()
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros(3), 0.1)
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros(2), -0.1)
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros(2), np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros((2, 2, 2)), 0.1)  # neither (d,) nor (n, d)
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros(2), np.zeros((3, 2)))  # per-row delta for one input
    with pytest.raises(ValidationError):
        ibp_bounds(net, np.zeros((3, 2)), np.zeros((2, 2)))
    for bad in (np.nan, np.inf, np.array([0.1, np.nan])):  # non-finite delta
        with pytest.raises(ValidationError):
            ibp_bounds(net, np.zeros(2), bad)
    with pytest.raises(ValidationError):  # non-finite input
        ibp_bounds(net, np.array([[0.0, 0.0], [np.inf, 0.0]]), 0.1)


def test_check_robust_strictness():
    bounds = LayerBounds(
        (np.array([1.0, 0.0]),), (np.array([2.0, 1.0]),)
    )
    # target lower equals rival upper: not strictly separated
    assert check_robust(bounds, 0) is Verdict.UNKNOWN
    better = LayerBounds((np.array([1.5, 0.0]),), (np.array([2.0, 1.0]),))
    assert check_robust(better, 0) is Verdict.ROBUST
    assert check_robust(better, 1) is Verdict.UNKNOWN


def test_check_robust_single_output_and_validation():
    one = LayerBounds((np.array([3.0]),), (np.array([4.0]),))
    assert check_robust(one, 0) is Verdict.ROBUST
    with pytest.raises(ValidationError):
        check_robust(one, 1)
    batched = LayerBounds((np.zeros((2, 2)),), (np.ones((2, 2)),))
    with pytest.raises(ValidationError):
        check_robust(batched, 0)


def test_check_robust_rejects_non_integer_targets():
    bounds = LayerBounds((np.array([3.0, 0.0, 0.0]),), (np.array([4.0, 1.0, 1.0]),))
    for bad in (2.7, True, np.float64(1.0), np.True_, "1"):
        with pytest.raises(ValidationError):
            check_robust(bounds, bad)
    assert check_robust(bounds, np.int64(1)) is Verdict.UNKNOWN
    assert check_robust(bounds, np.int32(0)) is Verdict.ROBUST


def test_robust_mask_matches_scalar_check():
    rng = np.random.default_rng(12)
    net = random_network(rng, sizes=(3, 6, 4))
    X = rng.normal(size=(15, 3))
    targets = np.asarray(net.classify(X))
    batched = ibp_bounds(net, X, 0.05)
    mask = robust_mask(batched, targets)
    for i, x in enumerate(X):
        single = check_robust(ibp_bounds(net, x, 0.05), int(targets[i]))
        assert mask[i] == (single is Verdict.ROBUST)
    with pytest.raises(ValidationError):
        robust_mask(ibp_bounds(net, X[0], 0.05), targets[:1])


def test_robust_mask_toy():
    net = toy_abstract_network()
    X = np.zeros((1, 2))
    targets = net.classify(X)
    assert robust_mask(ibp_bounds(net, X, 1.0), targets).tolist() == [True]
    # a wide box lets output 1 overtake: 5 + 4d < 0 + ... needs big d
    assert robust_mask(ibp_bounds(net, X, 10.0), targets).tolist() == [False]


def test_robust_mask_rejects_bad_targets():
    bounds = LayerBounds((np.array([[3.0, 0.0, 0.0]]),), (np.array([[4.0, 1.0, 1.0]]),))
    assert robust_mask(bounds, np.array([0])).tolist() == [True]
    for bad in (np.array([-3]), np.array([0, 0]), np.array([3]), np.array([2.7])):
        with pytest.raises(ValidationError):
            robust_mask(bounds, bad)


def test_falsify_finds_witness_near_boundary():
    net = toy_abstract_network()
    # outputs are (2a+5, a) with a = relu(...) >= 0; label flips when a > 5,
    # i.e. never: craft instead a net with a genuine flip
    flip = type(net)(
        (np.array([[1.0, 0.0]]), np.array([[1.0], [-1.0]])),
        (np.zeros(1), np.array([0.0, 0.5])),
    )
    x = np.array([0.4, 0.0])
    # outputs (a, 0.5 - a) with a = relu(x0): label 0 here, flips once a < 0.25
    assert int(flip.classify(x)) == 0
    witness = falsify(flip, RobustnessQuery(x, 0.5), samples=500, seed=0)
    assert witness is not None
    assert np.all(np.abs(witness - x) <= 0.5 + 1e-12)
    assert int(flip.classify(witness)) != 0
    # tiny box: prediction is stable, sampling finds nothing
    assert falsify(flip, RobustnessQuery(x, 0.01), samples=200, seed=0) is None
    with pytest.raises(ValidationError):
        falsify(flip, RobustnessQuery(x, 0.01), samples=0)


def test_layer_bounds_validation():
    with pytest.raises(ValidationError):
        LayerBounds((np.array([1.0]),), (np.array([0.5]),))
    with pytest.raises(ValidationError):
        LayerBounds((np.array([0.0]),), (np.array([0.0]), np.array([1.0])))
