"""Lifted interval certificates and the end-to-end pipeline report."""

from dataclasses import replace

import numpy as np
import pytest

from abstractnet import (
    EPSILON_SCOPE_NOTE,
    LabeledDataset,
    Network,
    RobustnessQuery,
    ValidationError,
    Verdict,
    abstract,
    ibp_bounds,
    check_robust,
    lift_proof,
    lifted_bounds,
    pipeline,
    robust_mask,
    verify_and_lift,
)
from abstractnet.lifting import _lift_operator
from helpers import random_k_l, random_network, toy_record


def test_lifted_toy_goldens():
    # the merged toy neurons are exact duplicates, so whatever epsilon the
    # record carries, the lift adds nothing to the abstract net's own bounds
    x = np.zeros(2)
    d = np.ones(2)
    for e in (0.0, 0.1, 1.0):
        bounds = lifted_bounds(toy_record(e), x, d)
        assert bounds.output_upper == pytest.approx([13, 4], abs=1e-12)
        assert bounds.output_lower == pytest.approx([5, 0], abs=1e-12)


def test_lifted_verdict_threshold():
    # on the abstract toy net at x = 0, label 0's lower bound is 5 and label
    # 1's upper bound is 4 delta, so interval proofs hold for delta < 5/4; at
    # 5/4 the two bounds are float-equal and the strict comparison refuses.
    # The lift flips at the same point, whatever epsilon the record carries.
    x = np.zeros(2)
    for e in (0.0, 0.5, 1.0):
        record = toy_record(e)
        for delta in (0.5, 1.0, 1.2, 1.24, 1.25, 1.26, 1.3, 2.0):
            bounds = ibp_bounds(record.abstract_net, x, delta)
            assert (check_robust(bounds, 0) is Verdict.ROBUST) == (delta < 5 / 4)
            lifted = lift_proof(record, RobustnessQuery(x, delta))
            assert (lifted is Verdict.ROBUST) == (delta < 5 / 4)


def test_lifted_zero_epsilon_matches_plain_ibp():
    # with nothing merged the record's epsilons are zero, no layer has
    # merged-away members, and the grouped sign sums are exactly the abstract
    # net's split weights: the lift is plain IBP, bit for bit, at every layer
    rng = np.random.default_rng(23)
    for trial in range(10):
        net = random_network(rng)
        d = net.layer_sizes[0]
        record = abstract(net, rng.normal(size=(6, d)))  # identity abstraction
        for x in (rng.normal(size=d), rng.normal(size=(5, d))):
            lifted = lifted_bounds(record, x, 0.1)
            plain = ibp_bounds(net, x, 0.1)
            assert len(lifted.lower) == len(plain.lower) == net.num_layers
            for got, want in zip(lifted.lower + lifted.upper, plain.lower + plain.upper):
                assert np.array_equal(got, want)


def test_sign_sums_add_up_to_abstract_weights():
    rng = np.random.default_rng(31)
    records = [toy_record(0.25)]
    for trial in range(10):
        net = random_network(rng)
        X = rng.normal(size=(6, net.layer_sizes[0]))
        records.append(abstract(net, X, k_l=random_k_l(rng, net), seed=trial))
    for record in records:
        assert _lift_operator(record) is _lift_operator(record)  # built once per record
        # one row per original neuron, one column per source cluster; the
        # representatives' rows add up to the abstract weights
        for step, w, dst in zip(
            _lift_operator(record), record.abstract_net.weights, record.layers[1:]
        ):
            assert step.wp.shape == (dst.num_neurons, w.shape[1])
            assert np.all(step.wp >= 0.0) and np.all(step.wn <= 0.0)
            reps = list(dst.representatives)
            assert np.allclose(step.wp[reps] + step.wn[reps], w, atol=1e-12)


def test_mixed_sign_members_keep_slack():
    # two merged neurons feed the output with weights +1 and -1: the abstract
    # column sums to zero, but the lifted recurrence splits signs per member,
    # so the members' spread still reaches the output interval. At x = 1 they
    # are 1.0 and 1.2, so the cluster's hull is [1.0, 1.2] whichever is the
    # representative, and the output interval is [1.0 - 1.2, 1.2 - 1.0]. The
    # recorded epsilon, the gap 0.4 at x = 2, plays no part.
    net = Network(
        (np.array([[1.0], [1.2]]), np.array([[1.0, -1.0]])),
        (np.zeros(2), np.zeros(1)),
    )
    X = np.array([[1.0], [2.0]])
    record = abstract(net, X, k_l={2: 1}, seed=0)
    assert record.abstract_net.weights[1].tolist() == [[0.0]]
    assert float(record.clustering_for(2).epsilons.max()) == pytest.approx(0.4)
    bounds = lifted_bounds(record, np.array([1.0]), 0.0)
    assert bounds.lower[1].tolist() == [1.0]
    assert bounds.upper[1].tolist() == [1.2]
    assert bounds.output_upper[0] == pytest.approx(0.2)
    assert bounds.output_lower[0] == pytest.approx(-0.2)
    # the original output at x sits inside that interval
    y = float(net.forward(np.array([1.0]))[0])
    assert bounds.output_lower[0] - 1e-12 <= y <= bounds.output_upper[0] + 1e-12


def test_member_coverage_gap_documented():
    # Recorded epsilons are measured on the activation-collection set, so a
    # member's true range over a perturbation box can exceed the
    # representative's lifted bound plus the recorded epsilon. Two neurons
    # that agree on X = {(0.5, 0.5)} but scale different coordinates drift
    # apart inside the box; the lift's hull over the members covers that drift.
    net = Network(
        (np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[1.0, 1.0]])),
        (np.zeros(2), np.zeros(1)),
    )
    X = np.array([[0.5, 0.5]])
    record = abstract(net, X, k_l={2: 1}, seed=0)
    cl = record.clustering_for(2)
    assert cl.clusters == ((0, 1),)
    assert cl.representatives == (0,)
    assert cl.epsilons.tolist() == [0.0, 0.5]

    x = np.array([0.5, 0.5])
    delta = 0.1
    bounds = lifted_bounds(record, x, delta)
    rep_upper = float(ibp_bounds(record.abstract_net, x, delta).upper[1][0])
    assert rep_upper == pytest.approx(0.6)
    rep_upper_plus_eps = rep_upper + 0.5
    # member neuron 1 really reaches relu(2 * 0.6) = 1.2 inside the box
    member_true_max = float(
        net.forward_trace(np.array([0.5, 0.6])).activations[1][1]
    )
    assert member_true_max == pytest.approx(1.2)
    assert rep_upper_plus_eps == pytest.approx(1.1)
    assert member_true_max > rep_upper_plus_eps
    # the lifted cluster is the hull of [0.4, 0.6] and [0.8, 1.2]
    assert float(bounds.lower[1][0]) == pytest.approx(0.4)
    assert float(bounds.upper[1][0]) == pytest.approx(1.2)
    assert float(bounds.upper[1][0]) >= member_true_max


def test_lift_is_the_member_hull_at_first_hidden_layer():
    # Layer 2 sees the exact input box, through the original rows and biases:
    # each cluster's lifted interval is exactly the hull of its members'
    # intervals under plain IBP on the original network
    rng = np.random.default_rng(41)
    for trial in range(30):
        net = random_network(rng)
        X = rng.normal(size=(8, net.layer_sizes[0]))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=trial)
        x = rng.normal(size=net.layer_sizes[0])
        delta = float(rng.uniform(0.0, 0.2))
        lb = lifted_bounds(record, x, delta)
        ob = ibp_bounds(net, x, delta)
        members = record.clustering_for(2).clusters
        assert lb.upper[1].tolist() == [max(ob.upper[1][list(c)]) for c in members]
        assert lb.lower[1].tolist() == [min(ob.lower[1][list(c)]) for c in members]


def test_lift_of_exact_duplicates_is_the_abstract_ibp():
    # the toy's merged neurons are exact duplicates with same-sign outgoing
    # columns: whatever epsilon the record carries, their hull is their one
    # interval, and the lift is the abstract net's own interval bounds
    rng = np.random.default_rng(43)
    for e in (0.0, 0.1, 1 / 3, 1.0):
        record = toy_record(e)
        for x, delta in ((np.zeros(2), np.ones(2)), (rng.normal(size=(4, 2)), 0.3)):
            lb = lifted_bounds(record, x, delta)
            plain = ibp_bounds(record.abstract_net, x, delta)
            for got, want in zip(lb.lower + lb.upper, plain.lower + plain.upper):
                assert np.array_equal(got, want)


def test_lifted_bounds_contain_the_abstract_ibp():
    # the representatives' rows of the lift are the abstract net's rows, so at
    # every layer the lifted interval contains the abstract net's own interval
    # bound, and a query proved by the lift is proved on the abstract net too
    rng = np.random.default_rng(54)
    for trial in range(60):
        net = random_network(rng)
        if trial % 2:
            net = Network(net.weights, net.biases, "relu")
        d = net.layer_sizes[0]
        record = abstract(net, rng.normal(size=(8, d)), k_l=random_k_l(rng, net), seed=trial)
        Q = rng.normal(size=(4, d))
        labels = record.abstract_net.classify(Q)
        for delta in (float(rng.uniform(0.0, 0.2)), rng.uniform(0.0, 0.2, size=d)):
            lifted = lifted_bounds(record, Q, delta)
            plain = ibp_bounds(record.abstract_net, Q, delta)
            for lo, up, want_lo, want_up in zip(
                lifted.lower, lifted.upper, plain.lower, plain.upper
            ):
                assert lo.shape == want_lo.shape
                assert np.all(lo <= want_lo + 1e-9) and np.all(want_up <= up + 1e-9)
            assert not np.any(robust_mask(lifted, labels) & ~robust_mask(plain, labels))


def test_lifted_output_bounds_cover_samples_off_collection_set():
    # query points are drawn apart from X, where recorded epsilons say
    # nothing: sampled original outputs must still stay inside the lifted
    # output bounds
    rng = np.random.default_rng(20251018)
    escapes = []
    for i in range(300):
        net = random_network(rng)
        d = net.layer_sizes[0]
        X = rng.normal(size=(int(rng.integers(2, 33)), d))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=i)
        x = rng.normal(size=d)
        delta = float(rng.uniform(0.0, 0.1))
        lb = lifted_bounds(record, x, delta)
        y = net.forward(rng.uniform(x - delta, x + delta, size=(200, d)))
        out = (y > lb.output_upper + 1e-9) | (y < lb.output_lower - 1e-9)
        if np.any(out):
            escapes.append(i)
    assert escapes == []


def test_lifted_bounds_ignore_recorded_epsilon():
    # the lift is a function of the networks and the box: scaling every
    # recorded epsilon by 1e6 leaves the lower and upper bounds bit-identical
    rng = np.random.default_rng(37)
    for trial in range(20):
        net = random_network(rng, sizes=(3, 7, 5, 2))
        X = rng.normal(size=(8, 3))
        record = abstract(net, X, k_l={2: 4, 3: 3}, seed=trial)
        huge = replace(
            record,
            clusterings=tuple(replace(cl, epsilons=1e6 * cl.epsilons) for cl in record.clusterings),
        )
        assert max(float(e.max()) for e in huge.layer_epsilons()) > 1e5
        for x in (rng.normal(size=3), rng.normal(size=(4, 3))):
            want = lifted_bounds(record, x, 0.05)
            got = lifted_bounds(huge, x, 0.05)
            for g, w in zip(got.lower + got.upper, want.lower + want.upper):
                assert np.array_equal(g, w)


def test_lifted_relu_output_clamps():
    record = toy_record(0.0)
    # label 1's output bias is -2 here, so its pre-activation can go negative
    out_bias = np.array([5.0, -2.0])
    relu_abstract = Network(
        record.abstract_net.weights, (*record.abstract_net.biases[:2], out_bias), "relu"
    )
    # the merged-away layer-3 neuron reads 1.5 times the representative's
    # first input, so over the layer-2 interval [0, 2] x [0, 2] at x = 0,
    # delta = 1 it reaches 5 where the representative reaches 4; the merge
    # keeps the representative's row, so the abstract net is unchanged
    w1, w2, w3 = record.original_net.weights
    relu_original = Network(
        (w1, np.array([[1.0, 1.0], [1.5, 1.0]]), w3),
        (*record.original_net.biases[:2], out_bias),
        "relu",
    )
    c2, c3 = record.clusterings
    relu_record = type(record)(
        original_net=relu_original,
        clusterings=(c2, replace(c3, epsilons=np.array([0.0, 0.25]))),
    )
    derived = relu_record.abstract_net
    assert derived.output_activation == "relu"
    assert derived.layer_sizes == relu_abstract.layer_sizes
    for got, want in zip(
        derived.weights + derived.biases, relu_abstract.weights + relu_abstract.biases
    ):
        assert np.array_equal(got, want)
    assert [e.tolist() for e in relu_record.layer_epsilons()] == [
        [0.0, 0.0], [0.0, 0.0], [0.25], [0.0, 0.0]
    ]
    bounds = lifted_bounds(relu_record, np.zeros(2), np.ones(2))
    # layer 3's cluster is the hull of [0, 4] and [0, 5]; label 1 reads it
    # with weight 1 and bias -2, so its lower bound -2 is clamped to 0
    assert bounds.lower[2].tolist() == [0.0]
    assert bounds.upper[2].tolist() == [5.0]
    assert bounds.output_lower == pytest.approx([5.0, 0.0])
    assert bounds.output_upper == pytest.approx([15.0, 3.0])
    assert np.all(bounds.output_lower >= 0.0)


def test_lift_proof_label_disagreement_is_unknown():
    # lossy merge flips the abstract prediction at x = -1: the lifted proof
    # cannot speak for the original network there
    net = Network(
        (np.array([[1.0], [-1.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])),
        (np.zeros(2), np.zeros(2)),
    )
    record = abstract(net, np.array([[1.0]]), k_l={2: 1}, seed=0)
    x = np.array([-1.0])
    assert int(net.classify(x)) == 1
    assert int(record.abstract_net.classify(x)) == 0
    assert lift_proof(record, RobustnessQuery(x, 0.0)) is Verdict.UNKNOWN


def test_lifted_bounds_validation():
    record = toy_record(0.1)
    with pytest.raises(ValidationError):
        lifted_bounds(record, np.zeros((2, 2, 2)), 0.1)  # neither (d,) nor (n, d)
    with pytest.raises(ValidationError):
        lifted_bounds(record, np.zeros(3), 0.1)
    with pytest.raises(ValidationError):
        lifted_bounds(record, np.zeros(2), -0.5)
    with pytest.raises(ValidationError):
        lifted_bounds(record, np.zeros(2), np.zeros(3))


def test_batched_lifted_bounds_match_per_row_calls():
    rng = np.random.default_rng(52)
    for trial in range(60):
        net = random_network(rng)
        d = net.layer_sizes[0]
        X = rng.normal(size=(8, d))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=trial)
        Q = rng.normal(size=(5, d))
        per_row = rng.uniform(0.0, 0.1, size=Q.shape)
        for delta in (per_row, per_row[0], 0.05):
            batched = lifted_bounds(record, Q, delta)
            for i, x in enumerate(Q):
                single = lifted_bounds(record, x, delta[i] if np.ndim(delta) == 2 else delta)
                for g, w in zip(batched.lower + batched.upper, single.lower + single.upper):
                    np.testing.assert_allclose(g[i], w, rtol=1e-9, atol=1e-12)


def test_verify_and_lift_matches_per_query_proofs():
    rng = np.random.default_rng(53)
    cases = [(toy_record(e), np.zeros((1, 2)), 1.0) for e in (0.0, 0.3, 0.5)]
    for trial in range(40):
        net = random_network(rng)
        d = net.layer_sizes[0]
        # merge at most one neuron per layer so that some lifts go through
        k_l = {layer: max(1, net.width(layer) - 1) for layer in net.hidden_layers}
        record = abstract(net, rng.normal(size=(8, d)), k_l=k_l, seed=trial)
        cases.append((record, rng.normal(size=(6, d)), rng.uniform(0.0, 0.02, size=(6, d))))
    n_lifted = n_not_lifted = 0
    for record, X, delta in cases:
        run = verify_and_lift(record, X, delta)
        for i, x in enumerate(X):
            q = RobustnessQuery(x, delta[i] if np.ndim(delta) == 2 else delta)
            label = int(record.abstract_net.classify(x))
            abstract_verdict = check_robust(ibp_bounds(record.abstract_net, q.x, q.delta), label)
            lifted = abstract_verdict is Verdict.ROBUST and lift_proof(record, q) is Verdict.ROBUST
            assert run.labels[i] == label
            assert run.abstract_robust[i] == (abstract_verdict is Verdict.ROBUST)
            assert run.lifted_robust[i] == lifted
            n_lifted += lifted
            n_not_lifted += bool(run.abstract_robust[i]) and not lifted
    assert n_lifted > 0 and n_not_lifted > 0


def test_pipeline_accepts_no_queries():
    net = Network(
        (np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [-1.0, -1.0]])),
        (np.zeros(2), np.zeros(2)),
    )
    inputs = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 1.0], [-2.0, 1.0], [0.5, 0.5]])
    ds = LabeledDataset(inputs, (inputs[:, 0] < 0).astype(int))
    report = pipeline(net, ds, alpha=0.5, queries=[], seed=0)
    assert report["count"] == report["queries_run"] == 0
    assert report["results"] == []
    assert report["original_robust"] == report["abstract_robust"] == report["lifted_robust"] == 0
    assert report["timed_out"] is False


def test_pipeline_report_shape():
    net = Network(
        (
            np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]),
            np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
        ),
        (np.zeros(4), np.zeros(2)),
    )
    rng = np.random.default_rng(0)
    x0 = np.concatenate([rng.uniform(0.5, 2.0, 10), rng.uniform(-2.0, -0.5, 10)])
    inputs = np.stack([x0, rng.normal(size=20)], axis=1)
    ds = LabeledDataset(inputs, (x0 < 0).astype(int))
    queries = [RobustnessQuery(inputs[i], 0.01) for i in range(5)]
    report = pipeline(net, ds, alpha=0.9, queries=queries, seed=0)
    assert report["schema"] == 1
    assert "command" not in report and "delta" not in report
    assert report["count"] == report["queries_run"] == 5
    assert len(report["results"]) == 5
    assert set(report["results"][0]) == {"query", "original", "abstract", "lifted"}
    assert 0 <= report["lifted_robust"] <= report["abstract_robust"] <= 5
    assert report["images_verified"] == report["lifted_robust"]
    assert report["notes"]["epsilon_scope"] == EPSILON_SCOPE_NOTE
    assert all(isinstance(k, str) for k in report["k_l"])
    assert set(report["accuracy"]) == {"original", "abstract"}
    assert 0.0 <= report["reduction_rate"] < 1.0
    assert report["removed_neurons"] == 2
    assert set(report["timings"]) == {
        "abstract_s", "original_verify_s", "abstract_verify_s", "lift_s"
    }
    # duplicate pairs merge, so the report shows a real reduction
    assert report["reduction_rate"] >= 0.5
    assert report["original_robust"] == report["abstract_robust"] == 5
    assert report["lifted_robust"] == 5
