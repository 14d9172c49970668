"""Lifting interval certificates from the abstract network to the original.

The abstract network's own interval bounds say nothing about the deleted
neurons. To recover bounds that also enclose the original network, the
recurrence widens each merged layer's interval by a per-cluster radius and
propagates through per-cluster sums of the positive parts and of the negative
parts of the original outgoing columns. Summing before splitting signs would
let a +w/-w pair cancel to zero and erase the slack, so the split happens per
member column.

The radius of a cluster is the larger of two numbers. The recorded epsilon is
measured on the activation-collection input set X. The box epsilon bounds, by
interval arithmetic over the previous layer's widened interval, how far any
member's pre-activation can move from its representative's inside the query
box. ReLU is monotone and 1-Lipschitz, so by induction every original neuron's
interval bound lies inside its cluster's widened interval, at query points on
or off X. Exact duplicates have box epsilon 0.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionRecord, reduction_rate, search_abstraction
from .data import LabeledDataset, accuracy, split_dataset
from .errors import ValidationError
from .network import Network, RobustnessQuery
from .verifier import (
    LayerBounds, Verdict, _box, _verdict_value, check_robust, ibp_bounds, robust_mask
)

log = logging.getLogger(__name__)

EPSILON_SCOPE_NOTE = (
    "recorded epsilons are measured on the activation-collection input set; "
    "lifted bounds widen each merged cluster by the larger of that epsilon and "
    "an interval bound on its members' drift over the query box, so lifted "
    "verdicts also hold at inputs outside the set"
)


@dataclass(frozen=True, eq=False)
class _LiftStep:
    """One layer transition of the lift, abstract layer j+1 to abstract layer j+2.

    ``wp``/``wn``: original weight columns sign-split, then summed per source
    cluster; rows restricted to the destination layer's representatives.
    ``dp``/``dn``/``db``: the same for the difference rows W_m - W_rep and the
    bias differences b_m - b_rep, one row per non-representative member m of
    the destination layer. ``owner`` is the abstract cluster index of each
    difference row.
    """

    wp: np.ndarray
    wn: np.ndarray
    dp: np.ndarray
    dn: np.ndarray
    db: np.ndarray
    owner: np.ndarray


@dataclass(frozen=True, eq=False)
class _LiftOperator:
    steps: tuple[_LiftStep, ...]
    epsilons: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class LiftedBounds(LayerBounds):
    """Lifted bounds plus the widening the lift applied at each layer.

    ``lower`` and ``upper`` follow the abstract network. ``widening`` holds one
    abstract-indexed entry per layer 1..L: every original neuron's interval
    bound lies inside ``[lower - widening, upper + widening]`` of its cluster.
    For a batch, an entry is one row per query where the lift added a box
    epsilon, and the shared (width,) vector where it did not.
    """

    widening: tuple[np.ndarray, ...] = ()


def _sum_per_group(m: np.ndarray, groups) -> np.ndarray:
    return np.stack([m[:, list(g)].sum(axis=1) for g in groups], axis=1)


def _lift_operator(record: AbstractionRecord) -> _LiftOperator:
    """Everything the lift needs from a record, built once; records are immutable."""
    op = record._memo.get("lift")
    if op is not None:
        return op
    orig = record.original_net
    L = orig.num_layers
    steps = []
    for j, (w, b) in enumerate(zip(orig.weights, orig.biases)):
        src_layer = j + 1
        dst_layer = j + 2
        reps = slice(None)
        others: list[int] = []
        others_rep: list[int] = []
        owner: list[int] = []
        if 2 <= dst_layer <= L - 1:
            cl = record.clustering_for(dst_layer)
            reps = list(cl.representatives)
            for c, (rep, members) in enumerate(zip(cl.representatives, cl.clusters)):
                for m in members:
                    if m != rep:
                        others.append(m)
                        others_rep.append(rep)
                        owner.append(c)
        d = w[others, :] - w[others_rep, :]
        wp, wn = np.maximum(w, 0.0), np.minimum(w, 0.0)
        dp, dn = np.maximum(d, 0.0), np.minimum(d, 0.0)
        if 2 <= src_layer <= L - 1:
            groups = record.clustering_for(src_layer).clusters
            wp, wn = _sum_per_group(wp, groups), _sum_per_group(wn, groups)
            if others:
                dp, dn = _sum_per_group(dp, groups), _sum_per_group(dn, groups)
        steps.append(
            _LiftStep(
                wp=wp[reps, :],
                wn=wn[reps, :],
                dp=dp,
                dn=dn,
                db=b[others] - b[others_rep],
                owner=np.asarray(owner, dtype=np.int64),
            )
        )
    epsilons = record.layer_epsilons()
    for e in epsilons:
        e.setflags(write=False)  # returned as widening where nothing is added
    op = record._memo["lift"] = _LiftOperator(tuple(steps), epsilons)
    return op


def lifted_bounds(
    record: AbstractionRecord, x, delta, epsilon_override=None
) -> LiftedBounds:
    """Interval bounds on the abstract network that also enclose the original.

    ``x`` and ``delta`` are taken as by :func:`ibp_bounds`: one query (d,) or
    a batch (n, d). Shapes follow the abstract network. At each merged layer
    the interval of every cluster is widened by max(recorded epsilon, box
    epsilon), where the box epsilon bounds |(W_m - W_rep) a + (b_m - b_rep)|
    over the members m and over the previous layer's widened interval a. The
    widening applied at each layer is returned as ``widening`` (one
    abstract-indexed entry per layer 1..L), and every original neuron's
    interval bound over the box lies inside its cluster's
    ``[lower - widening, upper + widening]``.

    ``epsilon_override`` replaces the record's recorded epsilons (one
    abstract-indexed vector per layer 1..L); the box epsilon is still added
    on top. Larger epsilons only widen the bounds.
    """
    abstract_net = record.abstract_net
    lo, up = _box(abstract_net, x, delta)
    op = _lift_operator(record)
    if epsilon_override is None:
        eps = op.epsilons
    else:
        eps = tuple(np.asarray(e, dtype=np.float64) for e in epsilon_override)
        sizes = abstract_net.layer_sizes
        if len(eps) != len(sizes) or any(
            e.shape != (s,) for e, s in zip(eps, sizes)
        ):
            raise ValidationError("epsilon_override must give one vector per layer")
        if any(np.any(e < 0) for e in eps):
            raise ValidationError("epsilons must be non-negative")
    lows = [lo]
    ups = [up]
    widening = [eps[0]]
    last = len(abstract_net.weights) - 1
    for j, (step, b) in enumerate(zip(op.steps, abstract_net.biases)):
        e_src = widening[-1]
        hi = ups[-1] + e_src
        lo = lows[-1] - e_src
        new_up = hi @ step.wp.T + lo @ step.wn.T + b
        new_lo = lo @ step.wp.T + hi @ step.wn.T + b
        if j < last or abstract_net.output_activation == "relu":
            new_up = np.maximum(new_up, 0.0)
            new_lo = np.maximum(new_lo, 0.0)
        e_dst = eps[j + 1]
        if step.owner.size:
            gap_up = hi @ step.dp.T + lo @ step.dn.T + step.db
            gap_lo = lo @ step.dp.T + hi @ step.dn.T + step.db
            gap = np.maximum(np.abs(gap_up), np.abs(gap_lo))
            e_dst = np.broadcast_to(e_dst, new_up.shape).copy()
            np.maximum.at(e_dst.T, step.owner, gap.T)
        lows.append(new_lo)
        ups.append(new_up)
        widening.append(e_dst)
    return LiftedBounds(tuple(lows), tuple(ups), tuple(widening))


def lift_proof(record: AbstractionRecord, query: RobustnessQuery) -> Verdict:
    """Prove the original network's prediction stable using only lifted bounds.

    The target label is the abstract network's prediction at x; if the original
    network disagrees there (possible after a lossy merge), the proof cannot
    speak for the original and the verdict is UNKNOWN.
    """
    target = int(record.abstract_net.classify(query.x))
    original_label = int(record.original_net.classify(query.x))
    if original_label != target:
        log.info(
            "lift_proof: abstract predicts %d but original predicts %d at x; unknown",
            target,
            original_label,
        )
        return Verdict.UNKNOWN
    bounds = lifted_bounds(record, query.x, query.delta)
    return check_robust(bounds, target)


@dataclass(frozen=True, eq=False)
class VerifyLiftResult:
    """Per-query outcome of :func:`verify_and_lift`, one entry per row of X.

    ``labels`` are the abstract network's predictions, the targets of both
    proofs. ``lifted_robust`` implies ``abstract_robust``. ``verify_s`` and
    ``lift_s`` are the wall times of the two stages.
    """

    labels: np.ndarray
    abstract_robust: np.ndarray
    lifted_robust: np.ndarray
    verify_s: float
    lift_s: float


def verify_and_lift(record: AbstractionRecord, X, delta) -> VerifyLiftResult:
    """Interval-verify a batch of queries on the abstract network and lift the proofs.

    ``X`` is (n, d); ``delta`` a scalar, a (d,) vector or an (n, d) array.
    A query is lifted only when the abstract network proves its label, the
    original network predicts the same label at x, and the lifted bounds prove
    it too.
    """
    abstract_net = record.abstract_net
    X = np.asarray(X, dtype=np.float64)
    t0 = time.perf_counter()
    labels = abstract_net.classify(X)
    proven = robust_mask(ibp_bounds(abstract_net, X, delta), labels)
    t1 = time.perf_counter()
    rows = np.flatnonzero(proven)
    agree = record.original_net.classify(X[rows]) == labels[rows]
    if not agree.all():
        log.info(
            "verify_and_lift: the original net predicts another label on %d proven queries",
            int((~agree).sum()),
        )
    rows = rows[agree]
    lifted = np.zeros_like(proven)
    if rows.size:
        d = np.asarray(delta, dtype=np.float64)
        bounds = lifted_bounds(record, X[rows], d[rows] if d.ndim == 2 else d)
        lifted[rows] = robust_mask(bounds, labels[rows])
    t2 = time.perf_counter()
    return VerifyLiftResult(labels, proven, lifted, t1 - t0, t2 - t1)


def pipeline(
    net: Network,
    ds: LabeledDataset,
    alpha: float,
    queries,
    seed: int = 0,
    epsilon_norm: str = "l2",
    val_fraction: float = 0.2,
) -> dict:
    """Abstract, verify, and lift in one pass; returns a JSON-ready report.

    Splits ``ds`` deterministically, sizes each layer with the validation-split
    search, abstracts on the larger split's inputs, then verifies all queries
    at once on the abstract network and lifts the proven ones to the original
    network (:func:`verify_and_lift`). Queries may differ in x and delta.
    """
    queries = list(queries)
    width = net.layer_sizes[0]
    if any(q.x.shape != (width,) for q in queries):
        raise ValidationError(f"every query must have {width} features")
    points = np.array([q.x for q in queries], dtype=np.float64).reshape(len(queries), width)
    deltas = np.array([q.delta for q in queries], dtype=np.float64).reshape(points.shape)
    train_part, val_part = split_dataset(ds, val_fraction, seed)

    t0 = time.perf_counter()
    record = search_abstraction(
        net, train_part, alpha, seed=seed, epsilon_norm=epsilon_norm, val=val_part
    )
    t_abstract = time.perf_counter() - t0

    run = verify_and_lift(record, points, deltas)
    results = []
    for i, (label, proven, lifted) in enumerate(
        zip(run.labels, run.abstract_robust, run.lifted_robust)
    ):
        entry = {"query": i, "label": int(label), "abstract": _verdict_value(proven)}
        if proven:
            entry["lifted"] = _verdict_value(lifted)
        results.append(entry)

    eps_max = {
        str(cl.layer): (float(cl.epsilons.max()) if cl.epsilons.size else 0.0)
        for cl in record.clusterings
    }
    report = {
        "schema": 1,
        "seed": seed,
        "alpha": alpha,
        "k_l": {str(k): v for k, v in sorted(record.k_l.items())},
        "reduction_rate": reduction_rate(record),
        "removed_neurons": [
            int(o - a)
            for o, a in zip(
                net.layer_sizes[1:-1], record.abstract_net.layer_sizes[1:-1]
            )
        ],
        "validation_accuracy": {
            "original": accuracy(net, val_part),
            "abstract": accuracy(record.abstract_net, val_part),
        },
        "queries": len(queries),
        "abstract_robust": int(run.abstract_robust.sum()),
        "lifted_robust": int(run.lifted_robust.sum()),
        "results": results,
        "epsilon_max_per_layer": eps_max,
        "notes": {"epsilon_scope": EPSILON_SCOPE_NOTE},
        "timings": {
            "abstract_s": t_abstract,
            "verify_s": run.verify_s,
            "lift_s": run.lift_s,
        },
    }
    return report
