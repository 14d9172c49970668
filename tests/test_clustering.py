"""k-means, representative election, and epsilon measurement."""

import itertools

import numpy as np
import pytest

import abstractnet.clustering
from abstractnet import (
    AbstractnetError,
    ActivationMatrix,
    LayerClustering,
    ValidationError,
    cluster_layer,
    epsilon_vector,
    kmeans,
)
from abstractnet.clustering import KMeansSeeding
from helpers import fresh_kmeans_pp, reference_cluster_layer, reference_kmeans


def brute_force_best_wcss(points, k):
    """Minimum within-cluster sum of squares over all k-partitions."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        obj = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assign[i] == c]]
            centroid = members.mean(axis=0)
            obj += float(np.sum((members - centroid) ** 2))
        best = min(best, obj)
    return best


def wcss_of(points, clusters):
    obj = 0.0
    for members in clusters:
        rows = points[list(members)]
        obj += float(np.sum((rows - rows.mean(axis=0)) ** 2))
    return obj


def test_kmeans_finds_obvious_split():
    points = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 10.0], [10.0, 10.1]])
    clusters = kmeans(points, 2, seed=0)
    assert sorted(map(tuple, clusters)) == [(0, 1), (2, 3)]
    assert wcss_of(points, clusters) == pytest.approx(brute_force_best_wcss(points, 2))


def test_kmeans_matches_brute_force_on_random_points():
    rng = np.random.default_rng(7)
    for trial in range(20):
        points = rng.normal(size=(6, 3))
        k = int(rng.integers(2, 4))
        clusters = kmeans(points, k, seed=trial)
        got = wcss_of(points, clusters)
        best = brute_force_best_wcss(points, k)
        # Lloyd's can stop at a local optimum, but never beats the true best
        assert got >= best - 1e-9
        assert got <= best * 3 + 1e-9


def test_kmeans_k_equals_n_is_singletons():
    points = np.arange(8.0).reshape(4, 2)
    assert kmeans(points, 4) == [[0], [1], [2], [3]]


def test_kmeans_handles_duplicate_rows():
    points = np.zeros((5, 2))
    clusters = kmeans(points, 3, seed=1)
    assert sorted(i for c in clusters for i in c) == [0, 1, 2, 3, 4]
    assert len(clusters) == 3
    assert all(c for c in clusters)


def test_kmeans_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(30, 4))
    a = kmeans(points, 5, seed=42)
    b = kmeans(points, 5, seed=42)
    assert a == b


def test_kmeans_validates_k():
    points = np.zeros((3, 2))
    for bad in (0, 4, -1):
        with pytest.raises(ValidationError):
            kmeans(points, bad)
    with pytest.raises(ValidationError):
        kmeans(np.zeros((0, 2)), 1)


def test_kmeans_raises_when_objective_rises(monkeypatch):
    objectives = iter(range(1000))
    monkeypatch.setattr(abstractnet.clustering, "_wcss", lambda *args: float(next(objectives)))
    points = np.random.default_rng(5).normal(size=(60, 3))
    with pytest.raises(AbstractnetError, match="objective rose"):
        kmeans(points, 6, seed=0)


def test_shared_seeding_prefix_matches_fresh_draw():
    # the first k centres of one lazily extended seeding are the centres a
    # fresh draw of k picks, whatever order the k are asked for in
    rng = np.random.default_rng(3)
    random_points = rng.normal(size=(12, 3))
    duplicates = rng.normal(size=(4, 3))[rng.integers(0, 4, size=12)]
    assert len({tuple(r) for r in duplicates}) < 12  # large k reach the total <= 0 branch
    for points, seed in ((random_points, 5), (duplicates, 9)):
        n = points.shape[0]
        ks = list(range(1, n + 1))
        for order in (ks, ks[::-1], list(rng.permutation(ks))):
            seeding = KMeansSeeding(points, seed)
            for k in order:
                assert seeding.indices(k) == fresh_kmeans_pp(points, k, seed)
        shared = KMeansSeeding(points, seed)
        for k in ks:
            assert kmeans(points, k, seed=shared) == kmeans(points, k, seed=seed)
    with pytest.raises(ValidationError):  # a seeding serves only the points it was drawn on
        kmeans(random_points, 2, seed=KMeansSeeding(random_points + 1.0, 0))


def relu_like_points(rng, n, d):
    """Non-negative activation rows with dead (all-zero) neurons, exact
    duplicates and 1e-3-noise near-duplicates mixed in."""
    points = np.maximum(rng.normal(size=(n, d)) + rng.normal(size=(n, 1)), 0.0)
    rows = rng.permutation(n)
    dead, copies, near = np.split(rows[: int(n * rng.uniform(0.1, 0.9))], [n // 10, n // 3])
    points[dead] = 0.0
    points[copies] = points[rng.choice(rows[len(dead) :], copies.size)]
    noise = 1e-3 * rng.normal(size=(near.size, d))
    points[near] = np.maximum(points[rng.integers(0, n, near.size)] + noise, 0.0)
    return points


def oracle_cases():
    """About 40 seeded matrices, n in [8, 128] and d in [5, 600], plus single-
    and two-column ones, each with the k values to cluster it at. k = n - 1,
    and on the smaller matrices k one past the distinct row count, exceed the
    distinct rows: the seeding then places duplicate centres, which leave
    clusters empty for the repair. (One past the count can keep Lloyd's loop
    repairing until its iteration cap, hence only on small matrices.)"""
    rng = np.random.default_rng(2024)
    shapes = [(int(rng.integers(8, 129)), int(np.exp(rng.uniform(np.log(5), np.log(600)))))
              for _ in range(38)]
    for n, d in shapes + [(24, 1), (40, 2), (30, 1)]:
        points = relu_like_points(rng, n, d)
        distinct = len(np.unique(points, axis=0))
        ks = {1, 2, int(rng.integers(1, distinct + 1)), n - 1, n}
        if n <= 24:
            ks.add(min(distinct + 1, n))
        yield points, int(rng.integers(1000)), sorted(ks)


def test_gram_seeding_matches_direct_draws():
    # every k up to n: the draws pass through exact duplicates and all-zero
    # rows, and into the total <= 0 branch once only duplicates are left
    reached_exhaustion = 0
    for points, seed, _ in oracle_cases():
        n = points.shape[0]
        expected = fresh_kmeans_pp(points, n, seed)
        seeding = KMeansSeeding(points, seed)
        for k in np.random.default_rng(seed).permutation(np.arange(1, n + 1)):
            assert seeding.indices(int(k)) == expected[:k]
        reached_exhaustion += len(np.unique(points, axis=0)) < n
    assert reached_exhaustion >= 30


def test_kmeans_and_cluster_layer_match_reference():
    # identical clusters, representatives and epsilons to the loops written one
    # cluster (and one member) at a time, including k past the distinct row
    # count, where duplicate centres leave clusters empty and the repair runs
    for points, seed, ks in oracle_cases():
        act = ActivationMatrix(layer=2, values=points)
        seeding = KMeansSeeding(points, seed)
        for k in ks:
            raw = reference_kmeans(points, k, seed)
            assert kmeans(points, k, seed=seed) == raw
            clusters, reps, eps = reference_cluster_layer(points, raw)
            lc = cluster_layer(act, k, seed=seeding)
            assert lc.clusters == clusters and lc.representatives == reps
            assert np.array_equal(lc.epsilons, eps)


def duplicate_rows(seed, distinct, copies, d):
    """``distinct`` ReLU-like rows of d columns plus ``copies`` duplicates of
    some of them, shuffled."""
    rng = np.random.default_rng(seed)
    base = np.maximum(rng.normal(size=(distinct, d)) + rng.normal(size=(distinct, 1)), 0.0)
    points = np.concatenate([base, base[rng.choice(distinct, copies)]])
    return points[rng.permutation(distinct + copies)]


@pytest.mark.parametrize(
    "seed, distinct, copies, d, updates", [(1, 9, 3, 20, 3), (1, 8, 4, 40, 4)]
)
def test_kmeans_stops_on_a_two_step_cycle(monkeypatch, seed, distinct, copies, d, updates):
    # at k one past the distinct rows, a duplicate centre leaves a cluster
    # empty, the repair steals a duplicate and the next assignment gives it
    # back: Lloyd's loop alternates between two assignments up to its cap.
    # It stops once they repeat (after 3 and 4 mean updates here, one case of
    # each parity) and returns the clusters the capped loop returns. From the
    # second update on, each update measures its objective on explicit means.
    points = duplicate_rows(seed, distinct, copies, d)
    steps = []
    real = abstractnet.clustering._cluster_means
    monkeypatch.setattr(
        abstractnet.clustering,
        "_cluster_means",
        lambda *args: steps.append(1) or real(*args),
    )
    clusters = kmeans(points, distinct + 1, seed=seed)
    assert len(steps) == updates
    monkeypatch.undo()
    assert clusters == reference_kmeans(points, distinct + 1, seed)


def stress_points(seed):
    """n0 ReLU-like rows scaled to norms from 1 to 1e5, each kept once, plus
    near-duplicates of them (relative noise from 1e-12 to 1e-3), exact
    duplicates and dead all-zero rows, shuffled; returns (points, n0)."""
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(6, 21))
    d = int(rng.integers(2, 200))
    base = np.maximum(rng.normal(size=(n0, d)) + rng.normal(size=(n0, 1)), 0.0) + 1e-3
    base *= 10.0 ** rng.uniform(0, 5, size=(n0, 1)) / np.linalg.norm(base, axis=1, keepdims=True)
    near_of = rng.integers(0, n0, size=n0)
    rel = 10.0 ** rng.uniform(-12, -3, size=(n0, 1))
    near = base[near_of] * (1.0 + rel * rng.normal(size=(n0, d)))
    exact = base[rng.integers(0, n0, size=n0 // 2)]
    dead = np.zeros((int(rng.integers(1, 4)), d))
    points = np.concatenate([base, near, exact, dead])
    return points[rng.permutation(points.shape[0])], n0


def test_kmeans_objective_check_holds_under_stress():
    # The objective check stays explicit: member means, then the summed
    # squared gaps. Read off the Gram matrix as sum |p|^2 - sum n_c |mu_c|^2,
    # it subtracts two sums near sum |p|^2 (up to 1e10 here) to get
    # objectives as small as 1e-10: over these 200 cases it strayed from the
    # explicit value by more than the check's 1e-9 relative tolerance in 2,
    # and without the near-tie measuring below it even came out negative.
    # Gram distances carry the same round-off, so the loop measures near ties
    # directly: without that, these cases raised "objective rose" in 2 and
    # parted identical rows in 3, since BLAS need not give identical rows
    # bit-identical Gram entries (Lloyd's loop on explicit centroid rows
    # raised in 1 and parted identical rows in 2).
    for seed in range(40):
        points, n0 = stress_points(seed)
        _, group = np.unique(points, axis=0, return_inverse=True)
        seeding = KMeansSeeding(points, seed)
        for k in sorted({2, n0 // 2, n0, n0 + 1, 3 * n0 // 2}):
            clusters = kmeans(points, k, seed=seeding)
            cluster_of = np.empty(points.shape[0], dtype=np.int64)
            for c, members in enumerate(clusters):
                cluster_of[members] = c
            for g in range(group.max() + 1):
                assert len(set(cluster_of[group == g])) == 1, (seed, k, g)


def random_partition(rng, n, kind):
    """Sorted clusters of range(n), ordered by first member.

    ``kind`` is "singletons", "one" (a single cluster), "sizes" (sizes drawn
    from 1 to 20) or "few" (a random assignment to at most 12 clusters).
    """
    if kind == "few":
        k = int(rng.integers(1, min(n, 12) + 1))
        assign = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(assign)
        return sorted(tuple(np.flatnonzero(assign == c).tolist()) for c in range(k))
    perm = rng.permutation(n)
    if kind == "singletons":
        sizes = [1] * n
    elif kind == "one":
        sizes = [n]
    else:
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(1, 21)), n - sum(sizes)))
    bounds = np.cumsum([0, *sizes])
    return sorted(tuple(sorted(perm[a:b].tolist())) for a, b in zip(bounds, bounds[1:]))


KINDS = ("few", "singletons", "one", "sizes", "sizes", "sizes")  # 6 kinds against 5 widths d


def test_cluster_means_equal_per_cluster_means():
    # the size-grouped centroid update gives each cluster the bits of the
    # masked mean, for one column as for many: sizes 1-20 cross numpy's
    # 8-element pairwise-sum block, and -0.0 entries come out as the mean's
    rng = np.random.default_rng(6)
    for trial in range(240):
        n = int(rng.integers(1, 150))
        d = (1, 2, 3, 40, 700)[trial % 5]
        points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        points[rng.random((n, d)) < 0.2] = -0.0
        clusters = random_partition(rng, n, KINDS[trial % 6])
        assign = np.empty(n, dtype=np.int64)
        for c, members in enumerate(clusters):
            assign[list(members)] = c
        k = len(clusters)
        expected = np.stack([points[assign == c].mean(axis=0) for c in range(k)])
        means = abstractnet.clustering._cluster_means(points, clusters)
        assert means.tobytes() == expected.tobytes(), trial


def test_sum_columns_equal_per_cluster_sums():
    # one gather-and-sum per cluster size gives each cluster the bits of its
    # own column sum, -0.0 entries and all-singleton layers included
    rng = np.random.default_rng(8)
    for trial in range(120):
        n = int(rng.integers(1, 120))
        clusters = random_partition(rng, n, KINDS[trial % 6])
        lc = LayerClustering(2, tuple(clusters), tuple(c[0] for c in clusters), np.zeros(n))
        m = rng.normal(size=(int(rng.integers(1, 5)), n)) * 10.0 ** rng.uniform(-3, 3, size=(1, n))
        m[rng.random(m.shape) < 0.2] = -0.0
        expected = np.stack([m[:, list(c)].sum(axis=1) for c in clusters], axis=1)
        assert lc.sum_columns(m).tobytes() == expected.tobytes(), trial


def test_election_forms_means_only_for_multi_member_clusters(monkeypatch):
    # a singleton elects its one member; the mean is formed for the one
    # three-member cluster only, whose member 4 sits on it
    points = np.array([[0.0, 1.0], [5.0, 5.0], [0.2, 1.2], [9.0, 0.0], [0.1, 1.1]])
    sizes = []
    real = abstractnet.clustering._cluster_means
    clusters = [[0, 2, 4], [1], [3]]
    monkeypatch.setattr(abstractnet.clustering, "kmeans", lambda points, k, seed: clusters)
    monkeypatch.setattr(
        abstractnet.clustering,
        "_cluster_means",
        lambda points, clusters: sizes.append(np.shape(clusters)) or real(points, clusters),
    )
    lc = cluster_layer(ActivationMatrix(layer=2, values=points), 3)
    assert lc.clusters == ((1,), (3,), (0, 2, 4))
    assert lc.representatives == (1, 3, 4)
    assert sizes == [(1, 3)]


def test_pick_representative_middle_point():
    # centroid of {0, 1, 5} is 2; the middle point is nearest
    points = np.array([[0.0], [1.0], [5.0]])
    lc = cluster_layer(ActivationMatrix(layer=2, values=points), 1)
    assert lc.representatives == (1,)


def test_pick_representative_tie_takes_lowest_index():
    points = np.array([[0.0, 0.0], [3.0, 4.0]])
    lc = cluster_layer(ActivationMatrix(layer=2, values=points), 1)
    assert lc.representatives == (0,)
    with pytest.raises(ValidationError):  # a cluster with no member has no representative
        LayerClustering(2, ((0, 1), ()), (0, 1), np.zeros(2))


def test_epsilon_vector_euclidean_golden():
    # rows 5 apart in Euclidean distance: the recorded epsilon is the largest
    # gap over the inputs, 4, and 0 at each representative
    points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -2.0]])
    eps = epsilon_vector(points, [(0, 1), (2,)], [0, 2])
    assert np.array_equal(eps, np.array([0.0, 4.0, 0.0]))
    eps = epsilon_vector(points, [(0, 1, 2)], [2])
    assert np.array_equal(eps, np.array([2.0, 6.0, 0.0]))


def test_cluster_layer_end_to_end():
    values = np.array(
        [
            [1.0, 1.0, 0.0],
            [1.1, 0.9, 0.0],
            [5.0, 5.0, 5.0],
        ]
    )
    act = ActivationMatrix(layer=2, values=values)
    lc = cluster_layer(act, 2, seed=0)
    assert lc.layer == 2
    assert lc.clusters == ((0, 1), (2,))
    assert lc.representatives[1] == 2
    assert lc.epsilons[2] == 0.0
    assert lc.epsilons[lc.representatives[0]] == 0.0
    other = 1 - lc.representatives[0]
    assert lc.epsilons[other] == pytest.approx(0.1)  # the gap in each of the first two columns


def test_cluster_layer_orders_by_representative():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(9, 5))
    lc = cluster_layer(ActivationMatrix(layer=3, values=values), 4, seed=2)
    assert list(lc.representatives) == sorted(lc.representatives)
    assert lc.num_clusters == 4
    assert lc.num_neurons == 9


def test_layer_clustering_validation():
    eps = np.zeros(3)
    with pytest.raises(ValidationError):  # not a partition
        LayerClustering(2, ((0, 1),), (0,), eps)
    with pytest.raises(ValidationError):  # rep outside its cluster
        LayerClustering(2, ((0, 1), (2,)), (2, 2), eps)
    with pytest.raises(ValidationError):  # clusters out of rep order
        LayerClustering(2, ((2,), (0, 1)), (2, 0), eps)
    with pytest.raises(ValidationError):  # negative epsilon
        LayerClustering(2, ((0, 1), (2,)), (0, 2), np.array([0.0, -1.0, 0.0]))
    with pytest.raises(ValidationError):  # non-finite epsilon
        LayerClustering(2, ((0, 1), (2,)), (0, 2), np.array([0.0, np.nan, 0.0]))


def test_neuron_map_and_abstract_epsilons():
    lc = LayerClustering(
        2, ((0, 2), (1, 3)), (0, 1), np.array([0.0, 0.0, 0.5, 1.5])
    )
    assert lc.neuron_map().tolist() == [0, 1, 0, 1]
    assert lc.abstract_epsilons().tolist() == [0.5, 1.5]


def test_cluster_max_equals_the_scatter_max():
    # one pass per cluster size; max is exact, so the result has the bits of a
    # scatter max over each neuron's cluster, for one row and for a batch
    rng = np.random.default_rng(44)
    for trial in range(40):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        for assign in (labels, np.arange(n), np.zeros(n, dtype=np.int64)):
            members = [np.flatnonzero(assign == c) for c in np.unique(assign)]
            reps = [int(rng.choice(m)) for m in members]
            order = np.argsort(reps)
            cl = LayerClustering(
                2,
                tuple(tuple(members[c].tolist()) for c in order),
                tuple(reps[c] for c in order),
                np.zeros(n),
            )
            # small integers, so that members tie
            for values in (rng.integers(-3, 4, size=n) * 0.5, rng.normal(size=(5, n))):
                expect = np.full(values.shape[:-1] + (cl.num_clusters,), -np.inf)
                np.maximum.at(expect.T, cl.neuron_map(), values.T)
                got = cl.cluster_max(values)
                assert got.shape == expect.shape
                assert got.tobytes() == expect.tobytes()
