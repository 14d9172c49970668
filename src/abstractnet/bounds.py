"""Worst-case output error of an abstraction over its input set.

The per-layer error recurrence runs in original coordinates: each original
neuron's bound is propagated through the absolute original weight matrix, and
the epsilon measured when its layer was merged is added on top. Summed abstract
columns must not be used here: members with opposite-sign outgoing weights
would cancel and hide real error. The public vectors are abstract-indexed by
taking, per surviving neuron, the worst bound over its cluster's members.

The perturbation term, by contrast, propagates through the abstract network
itself, so there the abstract matrices are the right ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractionRecord
from .network import _as_delta


@dataclass(frozen=True, eq=False)
class ErrorBounds:
    """Per-layer bounds on |abstract activation - original activation| over X.

    ``per_layer[i]`` has the abstract width of layer i+1 and bounds the gap
    between each surviving neuron's value and every original neuron it stands
    for. ``original_per_layer`` keeps the underlying per-original-neuron bounds.
    """

    per_layer: tuple[np.ndarray, ...]
    original_per_layer: tuple[np.ndarray, ...]

    @property
    def output(self) -> np.ndarray:
        return self.per_layer[-1]


def clustering_error(record: AbstractionRecord) -> ErrorBounds:
    """Accumulated abstraction error per layer, layer by layer.

    The input layer is exact. Each later layer inherits the previous layer's
    error through the absolute original weights and adds the epsilons the merge
    introduced there.
    """
    orig = record.original_net
    original = [np.zeros(orig.layer_sizes[0])]
    for w, cl in zip(orig.weights, record.layers[1:]):
        original.append(np.abs(w) @ original[-1] + cl.epsilons)
    per_layer = tuple(cl.cluster_max(vec) for cl, vec in zip(record.layers, original))
    return ErrorBounds(per_layer=per_layer, original_per_layer=tuple(original))


def total_error(record: AbstractionRecord, delta) -> np.ndarray:
    """Output error bound combining input perturbation and abstraction error.

    Valid for |x' - x| <= delta with x in the abstraction's input set: the
    abstract output at x' differs from the original output at x by at most this
    vector, element-wise.
    """
    abstract = record.abstract_net
    # a contiguous copy: matmul on a broadcast scalar skips BLAS and rounds differently
    acc = np.array(_as_delta(delta, abstract.layer_sizes[:1]))
    for w in abstract.weights:
        acc = np.abs(w) @ acc
    return acc + clustering_error(record).output
