"""Neuron clustering by activation similarity.

Neurons are points in R^d: one row of an activation matrix per neuron, one
column per input. Lloyd's algorithm with k-means++ seeding groups I/O-similar
neurons; both run on the layer's neuron-by-neuron Gram matrix, built once per
layer and shared by every k a search tries. Each cluster elects the member
closest to its centroid as the representative, and every member gets an
epsilon: the largest gap between its activation and the representative's
over the inputs, which is the per-neuron quantity the abstraction's error
bound needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ActivationMatrix
from .errors import AbstractnetError, ValidationError, check_int, seeded_rng
from .network import _frozen

KMEANS_MAX_ITER = 300


def _cluster_map(n: int, clusters, representatives) -> np.ndarray:
    """Neuron -> cluster index, for clusters that partition the n neurons.

    Raises ValidationError unless ``clusters`` partition range(n) and each
    cluster's representative is one of its members.
    """
    members = [i for c in clusters for i in c]
    if sorted(members) != list(range(n)):
        raise ValidationError("clusters must partition the layer's neuron indices")
    if len(representatives) != len(clusters):
        raise ValidationError("one representative per cluster required")
    for rep, cluster in zip(representatives, clusters):
        if rep not in cluster:
            raise ValidationError(f"representative {rep} is not a member of its cluster")
    cluster_of = np.empty(n, dtype=np.int64)
    cluster_of[members] = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
    return cluster_of


@dataclass(frozen=True, eq=False)
class LayerClustering:
    """A partition of one layer's neurons with representatives and epsilons.

    ``clusters[c]`` lists member neuron indices (sorted); ``representatives[c]``
    is a member of cluster c. Clusters are ordered by representative index, which
    is also the neuron order of the merged layer. ``epsilons[i]`` bounds how far
    neuron i's activation lies from its representative's (0 at the
    representative itself); :func:`cluster_layer` records the largest gap over
    the activation-collection inputs. Construction keeps a read-only copy of
    ``epsilons`` (a non-empty, finite, non-negative vector) and reads the
    partition once into a read-only neuron -> cluster array, which every
    per-cluster view uses.
    """

    layer: int
    clusters: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    epsilons: np.ndarray
    _cluster_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        eps = _frozen(self.epsilons, "epsilons", 1)
        object.__setattr__(self, "epsilons", eps)
        cluster_of = _cluster_map(eps.shape[0], self.clusters, self.representatives)
        if list(self.representatives) != sorted(self.representatives):
            raise ValidationError("clusters must be ordered by representative index")
        if np.any(eps < 0):
            raise ValidationError("epsilons must be non-negative")
        cluster_of.setflags(write=False)
        object.__setattr__(self, "_cluster_of", cluster_of)

    @classmethod
    def identity(cls, layer: int, width: int) -> "LayerClustering":
        """The clustering that keeps every neuron of a layer: singletons, epsilon 0."""
        return cls(layer, tuple((i,) for i in range(width)), tuple(range(width)), np.zeros(width))

    @property
    def num_neurons(self) -> int:
        return self.epsilons.shape[0]

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def neuron_map(self) -> np.ndarray:
        """Original neuron index -> index of its cluster in the merged layer."""
        return self._cluster_of.copy()

    def rep_of(self) -> np.ndarray:
        """Original neuron index -> index of its cluster's representative."""
        return np.asarray(self.representatives, dtype=np.int64)[self._cluster_of]

    def cluster_max(self, values: np.ndarray) -> np.ndarray:
        """Per cluster, the max of the per-neuron ``values`` over its members."""
        out = np.full(self.num_clusters, -np.inf)
        np.maximum.at(out, self._cluster_of, values)
        return out

    def abstract_epsilons(self) -> np.ndarray:
        """Per-cluster worst-case epsilon: max over the cluster's members."""
        return self.cluster_max(self.epsilons)

    def sum_columns(self, m: np.ndarray) -> np.ndarray:
        """Per cluster, the sum of ``m``'s columns over its members (merged outgoing weights)."""
        if self.num_clusters == self.num_neurons:
            return m.copy()  # singletons: a one-member sum is the column itself
        return np.stack([m[:, list(members)].sum(axis=1) for members in self.clusters], axis=1)


def _gram_matrix(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms and the Gram matrix ``points @ points.T``."""
    return np.sum(points * points, axis=1), points @ points.T


class KMeansSeeding:
    """k-means++ seeding of one point set under one seed, drawn lazily.

    Each centre is drawn given only the earlier ones, so the first k centres of
    a longer draw are exactly the centres a fresh draw of k picks. One seeding
    therefore serves every k that a cluster-count search tries on a layer: it
    draws up to the largest k asked for, once.

    The seeding also holds the points' Gram matrix ``points @ points.T``,
    built on first use, and :func:`kmeans` runs every Lloyd step of every k
    on it. Seeding distances are read off it, so each further centre costs
    O(n) instead of a pass over the points. Rows within the Gram form's
    round-off of a centre are measured directly, so exact duplicates (dead
    all-zero neurons among them) keep distance exactly 0. The matrix holds
    n² doubles and costs O(n²·d) to build whatever k is, so a small k on a
    very wide layer pays more than n·k distance rows would; layers up to 128
    neurons wide have been measured.
    """

    def __init__(self, points: np.ndarray, seed: int):
        self.points = points
        self._rng = seeded_rng(seed)
        self._chosen: list[int] = []
        self._d2 = None  # squared distance of each point to its nearest folded-in centre
        self._folded = 0  # how many chosen centres _d2 accounts for
        self._gram = None  # squared row norms and Gram matrix, built on first use

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """Squared row norms and Gram matrix of the points, built once."""
        if self._gram is None:
            self._gram = _gram_matrix(self.points)
        return self._gram

    def indices(self, k: int) -> list[int]:
        """Row indices of the first k centres, spread by squared-distance sampling."""
        chosen, rng = self._chosen, self._rng
        n = self.points.shape[0]
        while len(chosen) < k:
            d2 = self._nearest()
            if d2 is None:
                i = int(rng.integers(n))
            elif (total := d2.sum()) <= 0.0:
                # all remaining points coincide with a centroid; pick any unused index
                i = int(rng.choice([j for j in range(n) if j not in chosen]))
            else:
                i = int(rng.choice(n, p=d2 / total))
            chosen.append(i)
        return chosen[:k]

    def _nearest(self) -> np.ndarray | None:
        """Squared distance of each point to its nearest chosen centre; None before the first."""
        for i in self._chosen[self._folded :]:
            d2 = self._distances(i)
            self._d2 = d2 if self._d2 is None else np.minimum(self._d2, d2)
        self._folded = len(self._chosen)
        return self._d2

    def _distances(self, i: int) -> np.ndarray:
        """Squared distance of every point to point i."""
        points = self.points
        sq, gram = self.gram()
        scale = sq + sq[i]
        d2 = np.maximum(scale - 2.0 * gram[i], 0.0)
        # Each Gram distance is off by at most about d units of round-off of
        # |p|^2 + |p_i|^2. Rows that close to point i are measured directly,
        # so a row equal to it gets exactly 0.
        slack = 4.0 * (points.shape[1] + 2) * np.finfo(np.float64).eps
        near = np.flatnonzero(d2 <= slack * scale)
        d2[near] = np.sum((points[near] - points[i]) ** 2, axis=1)
        return d2


def _members(assign: np.ndarray, k: int) -> list[np.ndarray]:
    """Each cluster's row indices in ascending order, from one stable sort."""
    order = np.argsort(assign, kind="stable")
    return np.split(order, np.cumsum(np.bincount(assign, minlength=k))[:-1])


def _cluster_means(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's mean row, bit-equal to ``points[assign == c].mean(axis=0)``."""
    return np.stack([points[rows].mean(axis=0) for rows in _members(assign, k)])


def _wcss(points: np.ndarray, centroids: np.ndarray, assign: np.ndarray) -> float:
    diffs = points - centroids[assign]
    return float(np.sum(diffs * diffs))


def _objective(points: np.ndarray, assign: np.ndarray, k: int) -> float:
    """Within-cluster sum of squares of an assignment, against explicit member means."""
    return _wcss(points, _cluster_means(points, assign, k), assign)


def kmeans(points: np.ndarray, k: int, seed: int | KMeansSeeding = 0):
    """Lloyd's algorithm on rows of ``points``; returns k lists of row indices.

    Deterministic for a fixed seed. ``seed`` may also be a
    :class:`KMeansSeeding` drawn on these points, which gives the same clusters
    as its integer seed and shares its draws and its Gram matrix G across
    calls. Every step runs on G (kernel k-means): a centroid is held as
    averaging weights over points, one-hot for a seed centre and 1/|c| over
    the members after an update, so p.c is G's rows summed per cluster and
    |c|^2 is the mean of p.c over the members. Rows are assigned by
    ``|p|^2 - 2 p.c + |c|^2`` at O(n^2 + n·k) per step, against O(n·k·d)
    for explicit centroids, so the one O(n^2·d) Gram build pays off when
    d > n. A row whose nearest centroids lie within that form's round-off of
    each other measures them directly against their explicit member means.
    Stops when assignments no longer change or after ``KMEANS_MAX_ITER``
    iterations; once they alternate between two, it stops at once with the
    one the last iteration would keep. Empty clusters are repaired by
    stealing the point currently farthest from its own centroid. From the
    second update on, each update's objective is measured on explicit member
    means and must not rise past the previous one's (the first is measured
    only then: against +inf it cannot rise).
    Duplicate rows are fine: with more clusters than distinct rows, some
    clusters end up sharing a value.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValidationError(f"points must be a non-empty 2-d array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= check_int(k, "k") <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if not isinstance(seed, KMeansSeeding):
        seed = KMeansSeeding(points, seed)
    elif not (seed.points is points or np.array_equal(seed.points, points)):
        raise ValidationError("the seeding was drawn on other points")
    if k == n:
        return [[i] for i in range(n)]
    centres = seed.indices(k)
    sq, gram = seed.gram()
    ids = np.arange(n)
    cross = gram[centres]  # cross[c, i] = centroid c . point i
    norms = gram[centres, centres]  # |centroid c|^2
    owners = [[i] for i in centres]  # each centroid's members, listed when a near tie needs them
    size, mean_sq = np.ones(k), sq[centres]  # members per centroid and their mean |p|^2
    assign = prev = np.full(n, -1, dtype=np.int64)  # committed by the last step and the one before
    prev_obj = np.inf
    for step in range(KMEANS_MAX_ITER):
        d2 = sq[:, None] - 2.0 * cross.T + norms
        # Each Gram distance is off by at most about d + 2m units of round-off
        # of |p|^2 plus the members' mean |p_j|^2. Where that leaves a row more
        # than one candidate centroid, the candidates are measured directly
        # against their explicit member means and the rest ruled out, so near
        # ties (near-duplicate rows among them) are decided by exact distances.
        tol = (4.0 * (points.shape[1] + 2.0 * size + 3.0) * np.finfo(np.float64).eps) * (
            sq[:, None] + mean_sq
        )
        near = d2 - tol <= np.min(d2 + tol, axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
        if tied.size:
            if owners is None:
                owners = _members(assign, k)
            near = near[tied]
            exact = np.full(near.shape, np.inf)
            for c in np.flatnonzero(near.any(axis=0)):
                centroid = points[owners[c]].mean(axis=0)
                exact[near[:, c], c] = np.sum((points[tied[near[:, c]]] - centroid) ** 2, axis=1)
            d2[tied] = exact
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            # repair empty clusters in index order: each steals the point
            # farthest from its own centroid, never the last of a cluster (a
            # thief is then the last of its new one)
            dist_own = d2[ids, new_assign]
            for c in empty:
                thief = int(np.argmax(np.where(counts[new_assign] <= 1, -np.inf, dist_own)))
                counts[new_assign[thief]] -= 1
                counts[c] = 1
                new_assign[thief] = c
        if np.array_equal(new_assign, assign):
            break
        cycled = np.array_equal(new_assign, prev)
        prev, assign = assign, new_assign
        sums = np.zeros((k, n))
        np.add.at(sums, assign, gram)  # per cluster, its members' rows of G in index order
        cross = sums / counts[:, None]
        norms = np.bincount(assign, weights=cross[assign, ids], minlength=k) / counts
        owners, size, mean_sq = None, counts, np.bincount(assign, weights=sq, minlength=k) / counts
        if step:  # the first update's objective is only ever compared with +inf
            if step == 1:
                prev_obj = _objective(points, prev, k)
            obj = _objective(points, assign, k)
            if obj > prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
                raise AbstractnetError(f"k-means objective rose from {prev_obj} to {obj}")
            prev_obj = obj
        if cycled:
            # each step's assignment follows from the last one alone, so the
            # two now alternate up to the cap; return the one the cap ends on
            if (KMEANS_MAX_ITER - 1 - step) % 2:
                assign = prev
            break
    return [rows.tolist() for rows in _members(assign, k)]


def epsilon_vector(points: np.ndarray, clusters, representatives) -> np.ndarray:
    """Largest gap of each neuron's activation row to its representative's row.

    Row i of ``points`` is neuron i's activation over the inputs, so entry m is
    max over the inputs x of |a_m(x) - a_rep(x)| (0 at a representative).
    ``clusters`` must partition the rows, with each cluster's representative
    one of its members; otherwise ValidationError. Only the merged-away rows
    are compared, so no full-size temporary is built when few neurons merge.
    """
    points = np.asarray(points, dtype=np.float64)
    cluster_of = _cluster_map(points.shape[0], clusters, representatives)
    rep_of = np.asarray(representatives, dtype=np.int64)[cluster_of]
    others = np.flatnonzero(rep_of != np.arange(rep_of.size))
    eps = np.zeros(rep_of.size)
    eps[others] = np.abs(points[others] - points[rep_of[others]]).max(axis=1, initial=0.0)
    return eps


def cluster_layer(act: ActivationMatrix, k: int, seed: int | KMeansSeeding = 0) -> LayerClustering:
    """Cluster one layer's activation rows and package the result.

    ``seed`` is passed to :func:`kmeans`: an int, or a seeding drawn on ``act.values``.
    Each cluster's representative is the member whose row is closest to the
    cluster's mean row; ties pick the lowest index.
    """
    points = act.values
    raw = kmeans(points, k, seed=seed)
    assign = np.empty(points.shape[0], dtype=np.int64)
    assign[np.concatenate(raw)] = np.repeat(np.arange(k), [len(members) for members in raw])
    d2 = np.sum((points - _cluster_means(points, assign, k)[assign]) ** 2, axis=1)
    nearest_first = np.lexsort((d2, assign))  # per cluster; a stable sort, so ties keep index order
    leads = np.r_[True, np.diff(assign[nearest_first]) != 0]
    reps = nearest_first[leads]  # cluster c's representative at position c
    by_rep = np.argsort(reps)
    clusters = tuple(tuple(raw[c]) for c in by_rep)
    reps = tuple(reps[by_rep].tolist())
    eps = epsilon_vector(points, clusters, reps)
    return LayerClustering(layer=act.layer, clusters=clusters, representatives=reps, epsilons=eps)
