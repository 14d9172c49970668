"""Interval bound propagation and robustness verdicts.

One loop, :func:`_interval_pass`, pushes an interval through each affine layer
and its activation, for the original, the abstract and the lifted networks.
Each affine layer is applied through the positive and the negative parts of
its weights; hidden layers are clamped at zero by ReLU, and the output layer
follows the network's output activation, so bounds always enclose the
network's actual outputs over the input box. A step may also join its
neurons' intervals per cluster into one hull each, which is how the lift
carries merged layers. Plain interval bound propagation (:func:`ibp_bounds`)
is the same loop with no joins.

Verdicts are deliberately three-valued: interval analysis can prove robustness
(strict margin between the target's lower bound and every competitor's upper
bound) but its failure proves nothing, so the negative verdict is reserved for
an explicit counterexample found by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .clustering import LayerClustering
from .errors import ValidationError, check_int, seeded_rng
from .network import Network, RobustnessQuery, _as_delta


class Verdict(Enum):
    ROBUST = "robust"
    NOT_ROBUST = "not_robust"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class LayerBounds:
    """Per-layer post-activation bounds. Arrays are (width,) or (n_queries, width)."""

    lower: tuple[np.ndarray, ...]
    upper: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValidationError("lower/upper layer counts differ")
        for lo, up in zip(self.lower, self.upper):
            if lo.shape != up.shape:
                raise ValidationError("lower/upper shapes differ")
            if np.any(lo > up + 1e-12):
                raise ValidationError("lower bound exceeds upper bound")

    @property
    def output_lower(self) -> np.ndarray:
        return self.lower[-1]

    @property
    def output_upper(self) -> np.ndarray:
        return self.upper[-1]


def _box(net: Network, x, delta):
    """Corners of the box [x - delta, x + delta], validated against the net's input.

    ``x`` is one input (d,) or a batch (n, d), checked by the net; ``delta``
    is a radius for it, checked by :func:`abstractnet.network._as_delta`.
    """
    x = net._check_input(x)
    d = _as_delta(delta, x.shape)
    return x - d, x + d


@dataclass(frozen=True, eq=False)
class _IntervalStep:
    """One affine layer: the positive and negative parts of its weights, its bias.

    ``join``, when set, is a clustering of the layer's neurons: after the
    activation each cluster's interval becomes the hull of its members'.
    """

    wp: np.ndarray
    wn: np.ndarray
    b: np.ndarray
    join: LayerClustering | None = None


def _interval_pass(steps, relu_output: bool, lo, up):
    """Lower and upper bounds per layer, from the box [lo, up] through ``steps``.

    Where a step has a ``join``, its layer's bounds are per cluster: the max
    of the members' upper bounds and the min of their lower bounds.
    """
    lows, ups = [lo], [up]
    last = len(steps) - 1
    for j, step in enumerate(steps):
        lo, up = lows[-1], ups[-1]
        new_up = up @ step.wp.T + lo @ step.wn.T + step.b
        new_lo = lo @ step.wp.T + up @ step.wn.T + step.b
        if j < last or relu_output:
            new_up = np.maximum(new_up, 0.0)
            new_lo = np.maximum(new_lo, 0.0)
        if step.join is not None:
            new_up = step.join.cluster_max(new_up)
            new_lo = -step.join.cluster_max(-new_lo)
        lows.append(new_lo)
        ups.append(new_up)
    return lows, ups


def ibp_bounds(net: Network, x, delta) -> LayerBounds:
    """Interval bounds for every layer over the box [x - delta, x + delta].

    ``x`` may be one input (d,) or a batch (n, d); ``delta`` a scalar, a (d,)
    vector shared by every row, or an array shaped like x. At delta = 0 the
    bounds collapse to the forward trace up to float round-off.
    """
    lo, up = _box(net, x, delta)
    steps = [
        _IntervalStep(np.maximum(w, 0.0), np.minimum(w, 0.0), b)
        for w, b in zip(net.weights, net.biases)
    ]
    relu_output = net.output_activation == "relu"
    lows, ups = _interval_pass(steps, relu_output, lo, up)
    return LayerBounds(tuple(lows), tuple(ups))


def check_robust(bounds: LayerBounds, target: int) -> Verdict:
    """ROBUST iff the target's lower bound strictly beats every other upper bound.

    Interval failure is never a counterexample, so the alternative is UNKNOWN.
    ``target`` is a Python or numpy integer (not a bool) in [0, m).
    """
    lo = bounds.output_lower
    up = bounds.output_upper
    if lo.ndim != 1:
        raise ValidationError("check_robust expects single-query bounds")
    if not check_int(target, "target") < lo.shape[0]:
        raise ValidationError(f"target {target} out of range for {lo.shape[0]} outputs")
    others = np.delete(up, target)
    if others.size == 0 or lo[target] > others.max():
        return Verdict.ROBUST
    return Verdict.UNKNOWN


def _verdict_value(proven) -> str:
    """The report string for one entry of robust_mask."""
    return (Verdict.ROBUST if proven else Verdict.UNKNOWN).value


def robust_mask(bounds: LayerBounds, targets: np.ndarray) -> np.ndarray:
    """Batched check_robust: boolean per query (True = proven robust).

    ``targets`` is a 1-D integer array with one class in [0, m) per query.
    """
    lo = bounds.output_lower
    up = bounds.output_upper
    if lo.ndim != 2:
        raise ValidationError("robust_mask expects batched bounds")
    n, m = up.shape
    targets = np.asarray(targets)
    if targets.shape != (n,) or not np.issubdtype(targets.dtype, np.integer):
        raise ValidationError(
            f"targets must be {n} integers, got {targets.dtype} array of shape {targets.shape}"
        )
    if n and not (targets.min() >= 0 and targets.max() < m):
        raise ValidationError(f"targets out of range for {m} outputs")
    if m == 1:
        return np.ones(n, dtype=bool)
    masked = up.copy()
    masked[np.arange(n), targets] = -np.inf
    return lo[np.arange(n), targets] > masked.max(axis=1)


def falsify(
    net: Network, query: RobustnessQuery, samples: int = 1000, seed: int = 0
) -> np.ndarray | None:
    """Search the box for an input classified differently from x.

    Returns the first counterexample found (a witness for NOT_ROBUST) or None.
    Sampling failure proves nothing.
    """
    check_int(samples, "samples", 1)
    rng = seeded_rng(seed)
    target = int(net.classify(query.x))
    points = rng.uniform(
        query.x - query.delta, query.x + query.delta, size=(samples, query.x.shape[0])
    )
    labels = net.classify(points)
    hits = np.flatnonzero(labels != target)
    if hits.size:
        return points[hits[0]].copy()
    return None
