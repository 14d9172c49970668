"""Lifting interval certificates from the abstract network to the original.

The abstract network's own interval bounds say nothing about the deleted
neurons. To recover bounds that also enclose the original network, the lift
runs the verifier's interval loop over every original neuron: its interval
comes from its source clusters' intervals, through per-cluster sums of the
positive parts and of the negative parts of its original weights. Summing
before splitting signs would let a +w/-w pair cancel to zero and erase the
slack, so the split happens per member column. Each merged cluster's interval
is then the join (hull) of its members' intervals. This module builds that
lift operator from a record; the loop itself is
:func:`abstractnet.verifier._interval_pass`.

Interval arithmetic and ReLU are monotone, so by induction every original
neuron's interval bound lies inside its cluster's lifted interval, at query
points on or off the activation-collection set X. The representatives' rows
are the abstract network's, so the lifted interval also contains the abstract
network's own. The epsilons a record stores are measured on X alone, so they
add no soundness off X; the lift does not read them, and they feed only the
error bound of :mod:`abstractnet.bounds` and the reports.

The module also holds the one abstract -> verify -> lift run behind the
``bench`` command and :func:`pipeline`, and the report both print.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .abstraction import VAL_FRACTION, AbstractionRecord, reduction_rate, search_abstraction
from .data import LabeledDataset, accuracy, split_dataset
from .errors import ValidationError
from .network import Network, RobustnessQuery, _as_delta
from .verifier import (
    LayerBounds, Verdict, _box, _interval_pass, _IntervalStep, _verdict_value, check_robust,
    ibp_bounds, robust_mask,
)

log = logging.getLogger(__name__)

# abstract_verify_lift verifies, and checks its deadline, in batches of this many queries
BENCH_BATCH = 100

EPSILON_SCOPE_NOTE = (
    "recorded epsilons are the largest activation gaps measured on the "
    "activation-collection input set, and lifted bounds do not use them: the "
    "lift bounds each merged cluster by the hull of its members' intervals over "
    "the query box, so lifted verdicts also hold at inputs outside the set"
)


def _lift_operator(record: AbstractionRecord) -> tuple[_IntervalStep, ...]:
    """The lift's interval step per layer, built once per record; records are immutable.

    A step has one row per original neuron of its layer: the original weights,
    sign-split and summed per source cluster, and the original bias. It joins
    the rows per cluster where its layer is merged.
    """
    steps = record._memo.get("lift")
    if steps is None:
        layers = record.layers
        steps = record._memo["lift"] = tuple(
            _IntervalStep(
                src.sum_columns(np.maximum(w, 0.0)),
                src.sum_columns(np.minimum(w, 0.0)),
                b,
                dst if dst.num_clusters < dst.num_neurons else None,
            )
            for w, b, src, dst in zip(
                record.original_net.weights, record.original_net.biases, layers, layers[1:]
            )
        )
    return steps


def lifted_bounds(record: AbstractionRecord, x, delta) -> LayerBounds:
    """Interval bounds on the abstract network that also enclose the original.

    ``x`` and ``delta`` are taken as by :func:`ibp_bounds`: one query (d,) or
    a batch (n, d). Shapes follow the abstract network. At each merged layer
    a cluster's interval is the hull of its members' intervals, each taken
    over the previous layer's lifted intervals, so every original neuron's
    interval bound over the box lies inside its cluster's, and so does the
    abstract network's own. The recorded epsilons are not read: the bounds
    are a function of the networks and the box alone.
    """
    abstract_net = record.abstract_net
    lo, up = _box(abstract_net, x, delta)
    relu_output = abstract_net.output_activation == "relu"
    lows, ups = _interval_pass(_lift_operator(record), relu_output, lo, up)
    return LayerBounds(tuple(lows), tuple(ups))


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
        bounds = lifted_bounds(record, X[rows], _as_delta(delta, X.shape)[rows])
        lifted[rows] = robust_mask(bounds, labels[rows])
    t2 = time.perf_counter()
    return VerifyLiftResult(labels, proven, lifted, t1 - t0, t2 - t1)


@dataclass(frozen=True, eq=False)
class PipelineRun:
    """Outcome of :func:`abstract_verify_lift`, read by :func:`run_report`.

    ``val`` is the validation split the search used and ``count`` the number
    of queries asked for. The verdict arrays have one entry per query run,
    which is every query unless the run timed out. ``total_s`` is the wall
    time from the split to the last batch.
    """

    record: AbstractionRecord
    val: LabeledDataset
    alpha: float
    count: int
    original_robust: np.ndarray
    abstract_robust: np.ndarray
    lifted_robust: np.ndarray
    timings: dict
    total_s: float

    @property
    def timed_out(self) -> bool:
        return self.lifted_robust.size < self.count


def abstract_verify_lift(
    net: Network,
    ds: LabeledDataset,
    alpha: float,
    X,
    delta,
    seed: int = 0,
    timeout_s: float | None = None,
) -> PipelineRun:
    """Abstract ``net``, verify the original and the abstract net on X, and lift.

    Splits ``ds`` by ``(VAL_FRACTION, seed)`` and sizes each layer with the
    validation-split search. Then, in batches of ``BENCH_BATCH`` rows, it
    interval-verifies the original net and runs :func:`verify_and_lift` on
    the abstract one. ``delta`` is taken as by :func:`verify_and_lift`. Once
    ``timeout_s`` seconds have passed since the split, no further batch starts;
    it must be finite and >= 0, or None for no deadline.
    """
    if timeout_s is not None and not 0 <= timeout_s < np.inf:
        raise ValidationError(f"timeout_s must be finite and >= 0, got {timeout_s}")
    X = net._check_input(X)
    d = _as_delta(delta, X.shape)
    t_start = time.perf_counter()
    train_part, val_part = split_dataset(ds, VAL_FRACTION, seed)
    record = search_abstraction(net, train_part, alpha, seed=seed, val=val_part)
    timings = {
        "abstract_s": time.perf_counter() - t_start,
        "original_verify_s": 0.0,
        "abstract_verify_s": 0.0,
        "lift_s": 0.0,
    }
    deadline = None if timeout_s is None else t_start + timeout_s
    n = done = X.shape[0]
    original, proven, lifted = (np.zeros(n, dtype=bool) for _ in range(3))
    for pos in range(0, n, BENCH_BATCH):
        if deadline is not None and time.perf_counter() > deadline:
            log.warning("timeout after %d of %d queries", pos, n)
            done = pos
            break
        rows = slice(pos, pos + BENCH_BATCH)
        batch = X[rows]
        t0 = time.perf_counter()
        original[rows] = robust_mask(ibp_bounds(net, batch, d[rows]), net.classify(batch))
        timings["original_verify_s"] += time.perf_counter() - t0
        run = verify_and_lift(record, batch, d[rows])
        proven[rows], lifted[rows] = run.abstract_robust, run.lifted_robust
        timings["abstract_verify_s"] += run.verify_s
        timings["lift_s"] += run.lift_s
    return PipelineRun(
        record, val_part, alpha, n, original[:done], proven[:done], lifted[:done],
        timings, time.perf_counter() - t_start,
    )


def run_report(run: PipelineRun, command: str | None = None, delta=None) -> dict:
    """The JSON-ready report of a run, for ``bench`` and :func:`pipeline`.

    ``command`` and ``delta`` are left out when None: :func:`pipeline` is no
    command, and its queries may differ in delta.
    """
    record = run.record
    verdicts = (run.original_robust, run.abstract_robust, run.lifted_robust)
    report = {
        "schema": 1,
        "command": command,
        "removed_neurons": record.removed_neurons,
        "reduction_rate": reduction_rate(record),
        "images_verified": int(run.lifted_robust.sum()),
        "time": run.total_s,
        "queries_run": run.lifted_robust.size,
        "count": run.count,
        "timed_out": run.timed_out,
        "original_robust": int(run.original_robust.sum()),
        "abstract_robust": int(run.abstract_robust.sum()),
        "lifted_robust": int(run.lifted_robust.sum()),
        "k_l": {str(layer): k for layer, k in sorted(record.k_l.items())},
        "alpha": run.alpha,
        "delta": delta,
        "seed": record.seed,
        "accuracy": {
            "original": accuracy(record.original_net, run.val),
            "abstract": accuracy(record.abstract_net, run.val),
        },
        "results": [
            {
                "query": i,
                "original": _verdict_value(o),
                "abstract": _verdict_value(a),
                "lifted": _verdict_value(b),
            }
            for i, (o, a, b) in enumerate(zip(*verdicts))
        ],
        "notes": {"epsilon_scope": EPSILON_SCOPE_NOTE},
        "timings": run.timings,
    }
    for key in ("command", "delta"):
        if report[key] is None:
            del report[key]
    return report


def pipeline(
    net: Network,
    ds: LabeledDataset,
    alpha: float,
    queries,
    seed: int = 0,
) -> dict:
    """Abstract, verify, and lift in one pass; returns a JSON-ready report.

    Runs :func:`abstract_verify_lift` on the queries, which may differ in x
    and delta, and returns the report that ``bench`` prints, without its
    ``command`` and ``delta``.
    """
    queries = list(queries)
    width = net.layer_sizes[0]
    points = np.array([net._check_input(q.x) for q in queries]).reshape(len(queries), width)
    deltas = np.array([q.delta for q in queries], dtype=np.float64).reshape(points.shape)
    run = abstract_verify_lift(net, ds, alpha, points, deltas, seed)
    return run_report(run)
