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
        for step, w in zip(_lift_operator(record), record.abstract_net.weights):
            assert step.wp.shape == w.shape
            assert np.all(step.wp >= 0.0) and np.all(step.wn <= 0.0)
            assert np.allclose(step.wp + step.wn, w, atol=1e-12)


def test_mixed_sign_members_keep_slack():
    # two merged neurons feed the output with weights +1 and -1: the abstract
    # column sums to zero, but the lifted recurrence splits signs per member,
    # so the members' drift still widens the output interval. At x = 1 they
    # are 1.0 and 1.2, so the box epsilon is |1.2 - 1.0| * 1 = 0.2 whichever
    # is the representative, and the output interval is +-2 * 0.2. The
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
    assert bounds.widening[1] == pytest.approx([0.2])
    assert bounds.output_upper[0] == pytest.approx(0.4)
    assert bounds.output_lower[0] == pytest.approx(-0.4)
    # the original output at x sits inside that interval
    y = float(net.forward(np.array([1.0]))[0])
    assert bounds.output_lower[0] - 1e-12 <= y <= bounds.output_upper[0] + 1e-12


def test_member_coverage_gap_documented():
    # Recorded epsilons are measured on the activation-collection set, so a
    # member's true range over a perturbation box can exceed the
    # representative's lifted bound plus the recorded epsilon. Two neurons
    # that agree on X = {(0.5, 0.5)} but scale different coordinates drift
    # apart inside the box; the lift's box epsilon covers that drift.
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
    rep_upper_plus_eps = float(bounds.upper[1][0]) + 0.5
    # member neuron 1 really reaches relu(2 * 0.6) = 1.2 inside the box
    member_true_max = float(
        net.forward_trace(np.array([0.5, 0.6])).activations[1][1]
    )
    assert member_true_max == pytest.approx(1.2)
    assert rep_upper_plus_eps == pytest.approx(1.1)
    assert member_true_max > rep_upper_plus_eps
    # the box epsilon: |(-1, 2) . x| + |(-1, 2)| . delta = 0.5 + 0.3
    widening = float(bounds.widening[1][0])
    assert widening == pytest.approx(0.8)
    assert float(bounds.upper[1][0]) == pytest.approx(0.6)
    assert float(bounds.upper[1][0]) + widening >= member_true_max


def test_widening_tight_at_first_hidden_layer():
    # Layer 2 sees the exact input box, so the box epsilon of member m is
    # |D_m x + db_m| + |D_m| . delta with D_m = W_m - W_rep, db_m = b_m - b_rep;
    # the lift widens each cluster by the largest of those over its members
    rng = np.random.default_rng(41)
    for trial in range(30):
        net = random_network(rng)
        X = rng.normal(size=(8, net.layer_sizes[0]))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=trial)
        x = rng.normal(size=net.layer_sizes[0])
        delta = float(rng.uniform(0.0, 0.2))
        lb = lifted_bounds(record, x, delta)
        w, b = net.weights[0], net.biases[0]
        cl = record.clustering_for(2)
        expect = np.zeros(cl.num_clusters)
        for c, (rep, members) in enumerate(zip(cl.representatives, cl.clusters)):
            for m in members:
                diff = w[m] - w[rep]
                box = abs(diff @ x + b[m] - b[rep]) + np.abs(diff).sum() * delta
                expect[c] = max(expect[c], box)
        np.testing.assert_allclose(lb.widening[1], expect, rtol=1e-12, atol=1e-12)


def test_widening_of_exact_duplicates_is_zero():
    # the toy's merged neurons are exact duplicates with same-sign outgoing
    # columns: the lift widens by exactly 0, whatever epsilon the record
    # carries, and its bounds are the abstract net's own interval bounds
    rng = np.random.default_rng(43)
    for e in (0.0, 0.1, 1 / 3, 1.0):
        record = toy_record(e)
        for x, delta in ((np.zeros(2), np.ones(2)), (rng.normal(size=(4, 2)), 0.3)):
            lb = lifted_bounds(record, x, delta)
            assert all(np.all(w == 0.0) for w in lb.widening)
            plain = ibp_bounds(record.abstract_net, x, delta)
            for got, want in zip(lb.lower + lb.upper, plain.lower + plain.upper):
                assert np.array_equal(got, want)


def test_widening_equals_the_scatter_max_over_members():
    # the lift reduces member gaps run by run, over members sorted by cluster
    # once per lift operator; max is exact, so the widening has the bits of a
    # scatter max over each member's cluster, for one query and for a batch
    rng = np.random.default_rng(44)
    widened = 0
    for trial in range(40):
        net = random_network(rng)
        d = net.layer_sizes[0]
        record = abstract(net, rng.normal(size=(8, d)), k_l=random_k_l(rng, net), seed=trial)
        for x in (rng.normal(size=d), rng.normal(size=(5, d))):
            lb = lifted_bounds(record, x, 0.05)
            for j, (step, dst) in enumerate(zip(_lift_operator(record), record.layers[1:])):
                if step.owner is None:
                    continue
                hi, lo = lb.upper[j] + lb.widening[j], lb.lower[j] - lb.widening[j]
                gap = np.maximum(
                    np.abs(hi @ step.dp.T + lo @ step.dn.T + step.db),
                    np.abs(lo @ step.dp.T + hi @ step.dn.T + step.db),
                )
                others = np.flatnonzero(dst.rep_of() != np.arange(dst.num_neurons))
                expect = np.zeros(lb.upper[j + 1].shape)
                np.maximum.at(expect.T, dst.neuron_map()[others], gap.T)
                assert lb.widening[j + 1].tobytes() == expect.tobytes()
                widened += 1
    assert widened > 40


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
    # recorded epsilon by 1e6 leaves the lower, upper and widening bit-identical
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
            for g, w in zip(got.lower + got.upper + got.widening,
                            want.lower + want.upper + want.widening):
                assert np.array_equal(g, w)


def test_lifted_relu_output_clamps():
    record = toy_record(0.0)
    relu_abstract = Network(
        record.abstract_net.weights, record.abstract_net.biases, "relu"
    )
    # the merged-away layer-3 neuron reads 1.5 times the representative's
    # first input, so over the layer-2 interval [0, 2] x [0, 2] at x = 0,
    # delta = 1 its box epsilon is 0.5 * 2 = 1; the merge keeps the
    # representative's row, so the abstract net is unchanged
    w1, w2, w3 = record.original_net.weights
    relu_original = Network(
        (w1, np.array([[1.0, 1.0], [1.5, 1.0]]), w3), record.original_net.biases, "relu"
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
    assert bounds.widening[2].tolist() == [1.0]
    # layer 3's [0, 4] widens to [-1, 5]; label 1 reads it with weight 1, so
    # its lower bound -1 is clamped to 0
    assert bounds.output_lower == pytest.approx([3.0, 0.0])
    assert bounds.output_upper == pytest.approx([15.0, 5.0])
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
                for got, want in (
                    (batched.lower, single.lower),
                    (batched.upper, single.upper),
                    (batched.widening, single.widening),
                ):
                    for g, w in zip(got, want):
                        row = g[i] if g.ndim == 2 else g
                        np.testing.assert_allclose(row, w, rtol=1e-9, atol=1e-12)


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
