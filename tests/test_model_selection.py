"""Model-selection tests.

The Dunn oracle below enumerates every set partition of a small point set
(restricted growth strings, Bell(8) = 4140 partitions) and scores each one
with plain Python loops over the scalar distance function, independently of
the vectorized implementation under test.
"""

import concurrent.futures
import dataclasses
import functools
import math
import os
import tracemalloc
import types
import weakref
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sitepick.clustering import (
    DEFAULT_MAX_ITERATIONS,
    HaversineMetric,
    PlanarMetric,
    _MATRIX_BLOCK_ROWS,
    _distance_matrix,
    _objective_core,
    kmeans,
)
import sitepick.model_selection
from sitepick.errors import DegenerateClusteringError, SweepError, ValidationError
from sitepick.geo import EarthModel, coords_array, from_degrees, haversine
from sitepick.model_selection import (
    DunnScore,
    SweepResult,
    _dunn_bounds,
    _dunn_from_matrix,
    _pool_size,
    _spanning_tree,
    default_k_max,
    dunn_index,
    sweep,
    sweep_quadrants,
)
from sitepick.rng import derive_seed

# Two tight clusters on a meridian: diameters 0.01 deg of arc, gap 0.99 deg.
TWO_BAND_POINTS = [
    from_degrees(0.00, 0.0),
    from_degrees(0.01, 0.0),
    from_degrees(1.00, 0.0),
    from_degrees(1.01, 0.0),
]
TWO_BAND = coords_array(TWO_BAND_POINTS)
TWO_BAND_LABELS = np.array([0, 0, 1, 1])

# Four tight pairs, pairwise far apart.
FOUR_PAIR_POINTS = [
    from_degrees(0.00, 0.0),
    from_degrees(0.01, 0.0),
    from_degrees(1.00, 0.0),
    from_degrees(1.01, 0.0),
    from_degrees(0.00, 1.0),
    from_degrees(0.01, 1.0),
    from_degrees(1.00, 1.0),
    from_degrees(1.01, 1.0),
]
FOUR_PAIR_WEIGHTS = [0.6, 0.9, 0.75, 1.0, 0.8, 0.55, 0.95, 0.7]
FOUR_PAIR_PARTITION = {
    frozenset({0, 1}),
    frozenset({2, 3}),
    frozenset({4, 5}),
    frozenset({6, 7}),
}


def set_partitions(n):
    """Every partition of range(n) as a label tuple, one per partition."""

    def rec(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for value in range(top + 2):
            yield from rec(prefix + [value], max(top, value))

    yield from rec([0], 0)


def dunn_by_hand(points, labels):
    """Dunn ratio via scalar loops; None when no cluster has a diameter."""
    n = len(points)
    min_inter = math.inf
    max_intra = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = haversine(points[i], points[j])
            if labels[i] == labels[j]:
                max_intra = max(max_intra, d)
            else:
                min_inter = min(min_inter, d)
    if max_intra == 0.0 or not math.isfinite(min_inter):
        return None
    return min_inter / max_intra


# --- Dunn index ---


def test_dunn_two_band_reference():
    score = dunn_index(TWO_BAND, TWO_BAND_LABELS)
    assert isinstance(score, DunnScore)
    assert score.max_intra_km == pytest.approx(1.1119492664455874, abs=1e-9)
    assert score.min_inter_km == pytest.approx(110.08297737811314, abs=1e-9)
    assert score.value == pytest.approx(99.0, rel=1e-12)


def test_dunn_matches_hand_computation():
    labels = [0, 1, 1, 0]
    score = dunn_index(TWO_BAND, np.array(labels))
    assert score.value == pytest.approx(dunn_by_hand(TWO_BAND_POINTS, labels), rel=1e-12)


def test_dunn_coincident_singletons_degenerate():
    p = from_degrees(1.3, 103.8)
    with pytest.raises(DegenerateClusteringError):
        dunn_index(coords_array([p, p]), np.array([0, 1]))
    q = from_degrees(1.4, 103.9)
    with pytest.raises(DegenerateClusteringError):
        dunn_index(coords_array([p, p, q]), np.array([0, 0, 1]))


def test_dunn_needs_two_clusters():
    with pytest.raises(ValidationError):
        dunn_index(TWO_BAND, np.array([1, 1, 1, 1]))
    with pytest.raises(ValidationError):
        dunn_index(TWO_BAND[:3], TWO_BAND_LABELS)


def test_dunn_rejects_labels_that_are_not_flat():
    with pytest.raises(ValidationError, match="flat"):
        dunn_index(TWO_BAND, TWO_BAND_LABELS.reshape(2, 2))


def test_dunn_ratio_ignores_radius():
    big = dunn_index(TWO_BAND, TWO_BAND_LABELS)
    small = dunn_index(
        TWO_BAND,
        TWO_BAND_LABELS,
        metric=HaversineMetric(earth=EarthModel(radius_km=1.0)),
    )
    assert small.value == pytest.approx(big.value, rel=1e-12)
    assert small.min_inter_km * 6371.0 == pytest.approx(big.min_inter_km, rel=1e-12)


@settings(max_examples=40)
@given(st.data())
def test_dunn_invariant_under_relabeling_and_reordering(data):
    n = data.draw(st.integers(min_value=4, max_value=10))
    # Distinct grid points so every multi-member cluster has a real diameter.
    points = coords_array([from_degrees(0.05 * i, 0.03 * (i * i % 7)) for i in range(n)])
    k = data.draw(st.integers(min_value=2, max_value=n - 1))
    labels = [
        data.draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)
    ]
    labels[0] = 0
    labels[1] = 0
    labels[2] = 1
    base = dunn_index(points, np.array(labels))

    relabel = data.draw(st.permutations(list(range(k))))
    swapped = [relabel[v] for v in labels]
    after_relabel = dunn_index(points, np.array(swapped))
    assert after_relabel == base

    order = data.draw(st.permutations(list(range(n))))
    after_reorder = dunn_index(points[order], np.array([labels[i] for i in order]))
    assert after_reorder == base


def dunn_condensed(points, labels, metric):
    """(min_inter_km, max_intra_km) from the condensed upper triangle of one
    broadcast pairwise call; max_intra_km is 0.0 when no pair shares a label."""
    coords = coords_array(points)
    iu, iv = np.triu_indices(len(points), k=1)
    flat = metric.pairwise(coords, coords)[iu, iv]
    same = labels[iu] == labels[iv]
    intra = flat[same]
    max_intra = float(intra.max()) if intra.size else 0.0
    return float(flat[~same].min()), max_intra


@settings(max_examples=150)
@given(st.data())
def test_dunn_index_equals_condensed_reference_exactly(data):
    metric = data.draw(st.sampled_from([HaversineMetric(), PlanarMetric()]))
    k = data.draw(st.integers(min_value=2, max_value=6))
    n = data.draw(st.integers(min_value=2, max_value=40))
    labels = np.array(
        [0, 1] + data.draw(st.lists(st.integers(0, k - 1), min_size=n - 2, max_size=n - 2))
    )
    m = data.draw(st.integers(min_value=k, max_value=12))
    spots = data.draw(
        st.lists(
            st.builds(from_degrees, st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
            min_size=m,
            max_size=m,
        )
    )
    if data.draw(st.booleans()):
        # Every cluster a bundle of coincident points: zero diameters.
        points = [spots[label] for label in labels]
    else:
        # Few distinct spots, so coincident points within and across clusters.
        picks = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        points = [spots[i] for i in picks]
    min_inter, max_intra = dunn_condensed(points, labels, metric)
    if max_intra == 0.0:
        with pytest.raises(DegenerateClusteringError):
            dunn_index(coords_array(points), labels, metric=metric)
        return
    score = dunn_index(coords_array(points), labels, metric=metric)
    assert score.min_inter_km == min_inter
    assert score.max_intra_km == max_intra
    assert score.value == min_inter / max_intra


def _blob_coords(rng, n, k):
    """Points spread evenly over k discs of one radius from 1e-4 to 0.3 rad,
    about a third of them ten times smaller, labelled by disc: clusters of
    about equal diameter whose anchors sit anywhere in them, so the skip and
    the filter both decide, and small clusters to skip."""
    centers = np.column_stack([rng.uniform(-1.2, 1.2, k), rng.uniform(-np.pi, np.pi, k)])
    spreads = 10.0 ** (rng.uniform(-4.0, -0.5) - (rng.random(k) < 0.3))
    labels = np.arange(n) % k
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    offsets = np.column_stack([np.cos(angle), np.sin(angle)]) * np.sqrt(rng.random(n))[:, None]
    coords = centers[labels] + offsets * spreads[labels, None]
    coords[:, 0] = np.clip(coords[:, 0], -np.pi / 2, np.pi / 2)
    coords[:, 1] = np.remainder(coords[:, 1] + np.pi, 2 * np.pi) - np.pi
    return coords, labels


def _great_circle_coords(rng, n, k):
    """Points along a random great circle over an arc of about 180 degrees,
    in k runs along it with one point in five in a random cluster, and the
    two ends, 1e-9 to 1e-5 of pi short of antipodal, both in cluster 0."""
    e1 = rng.normal(size=3)
    e1 /= np.linalg.norm(e1)
    e2 = rng.normal(size=3)
    e2 -= (e2 @ e1) * e1
    e2 /= np.linalg.norm(e2)
    t = np.sort(rng.uniform(0.0, np.pi, n))
    t[[0, -1]] = 0.0, np.pi * (1.0 - 10.0 ** rng.uniform(-9.0, -5.0))
    xyz = np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2
    coords = np.column_stack([np.arcsin(np.clip(xyz[:, 2], -1.0, 1.0)),
                              np.arctan2(xyz[:, 1], xyz[:, 0])])
    labels = np.minimum((np.arange(n) * k) // n, k - 1)
    stray = rng.random(n) < 0.2
    labels[stray] = rng.integers(0, k, stray.sum())
    labels[[0, -1]] = 0
    return coords, labels


def _antimeridian_coords(rng, n, k):
    """Points within 1e-15 rad of (0, 180 degrees) on both sides of the
    antimeridian, where rounding breaks the triangle inequality of computed
    great-circle distances by up to about 1e-15 R: a relative slack alone
    gets about one case in six wrong."""
    lon = np.pi - rng.integers(0, 2, n) * 2.0**-51
    coords = np.column_stack([rng.integers(-16, 17, n) * 2.0**-55,
                              np.where(rng.random(n) < 0.5, lon, -lon)])
    return coords, rng.integers(0, k, n)


@settings(max_examples=120)
@given(
    metric=st.sampled_from([HaversineMetric(), PlanarMetric()]),
    shape=st.sampled_from([_blob_coords, _great_circle_coords, _antimeridian_coords]),
    k=st.integers(min_value=2, max_value=12),
    n=st.integers(min_value=12, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pruned_diameters_equal_all_pairs(metric, shape, k, n, seed):
    # Inputs where radii differ enough to skip whole clusters and to filter
    # members, including whole-sphere arcs and clusters a few ulp wide.
    coords, labels = shape(np.random.default_rng(seed), n, k)
    labels[:2] = 0, 1
    dist = metric.pairwise(coords, coords)
    same = labels[:, None] == labels[None, :]
    min_inter, max_intra = float(dist[~same].min()), float(dist[same].max())
    if max_intra == 0.0:
        with pytest.raises(DegenerateClusteringError):
            dunn_index(coords, labels, metric=metric)
        return
    score = dunn_index(coords, labels, metric=metric)
    assert score == DunnScore(min_inter / max_intra, min_inter, max_intra)


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
@pytest.mark.parametrize(
    "n", [63, 64, 65, *range(127, 137), 255, 256, 257, *range(511, 521)]
)
def test_half_built_distance_matrix_is_the_broadcast_matrix(metric, n):
    # Both sides of one and two blocks of _MATRIX_BLOCK_ROWS = 64 rows, and
    # of 256 and 512, with every residue mod 8: each block starts its
    # columns at its own first row.
    rng = np.random.default_rng(n)
    coords = np.column_stack([rng.uniform(-np.pi / 2, np.pi / 2, n), rng.uniform(-np.pi, np.pi, n)])
    assert np.array_equal(_distance_matrix(coords, metric), metric.pairwise(coords, coords))


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_distance_matrix_is_the_broadcast_matrix_and_symmetric(metric):
    # More rows than one block, with a ragged last block, over the whole
    # sphere, with duplicates and antipodes.
    rng = np.random.default_rng(3)
    lat = rng.uniform(-90.0, 90.0, 600)
    lon = rng.uniform(-180.0, 180.0, 600)
    points = [from_degrees(a, b) for a, b in zip(lat, lon)]
    points += points[:5] + [from_degrees(-a, b + 180.0) for a, b in zip(lat[:5], lon[:5])]
    coords = coords_array(points)
    dist = _distance_matrix(coords, metric)
    assert dist.shape == (len(points), len(points)) and dist.dtype == np.float64
    assert np.array_equal(dist, metric.pairwise(coords, coords))
    assert np.array_equal(dist, dist.T)
    assert not dist.diagonal().any()


def _lopsided(fillers):
    """Clusters 0.5 rad apart on the equator. Cluster c is its anchor (its
    first, lowest-index member) at the center and, at 0.01 / (c + 1) rad
    times these offsets: F 1 north, P 0.9 west, `fillers[c]` points 0.4 to
    0.8 east and Q 0.9 east. F reaches farthest, but its row holds only
    |FP| ~ 1.35, so every member but the anchor can still be in a wider pair
    and Dunn scoring reads their block. The widest pair of all, |PQ| = 1.8
    in cluster 0, has P in the block's first row chunk and Q, past more than
    a chunk of fillers, in a later one."""
    clusters = []
    for c, count in enumerate(fillers):
        east = np.linspace(0.4, 0.8, count)
        offsets = [(0.0, 0.0), (1.0, 0.0), (0.0, -0.9), *((0.0, x) for x in east), (0.0, 0.9)]
        clusters.append(np.asarray(offsets) * (0.01 / (c + 1)) + [0.0, 0.5 * c])
    labels = np.repeat(np.arange(len(fillers)), [count + 4 for count in fillers])
    return np.vstack(clusters), labels.astype(np.uint8)


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_dunn_over_clusters_wider_than_one_chunk_is_the_all_pairs_score(metric):
    coords, labels = _lopsided((2 * _MATRIX_BLOCK_ROWS + 5, _MATRIX_BLOCK_ROWS + 3))
    dist = metric.pairwise(coords, coords)
    same = labels[:, None] == labels[None, :]
    min_inter, max_intra = float(dist[~same].min()), float(dist[same].max())
    assert dunn_index(coords, labels, metric=metric) == DunnScore(
        min_inter / max_intra, min_inter, max_intra
    )


def _traced_peak(call):
    """What `call()` returns, and the peak of the memory it traced, numpy's
    buffers included, above what was allocated when it began."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_distance_matrix_scratch_is_a_few_row_blocks(metric):
    n = 1500
    rng = np.random.default_rng(4)
    coords = np.column_stack([rng.uniform(-np.pi / 2, np.pi / 2, n), rng.uniform(-np.pi, np.pi, n)])
    dist, peak = _traced_peak(lambda: _distance_matrix(coords, metric))
    assert peak - dist.nbytes <= 2 * _MATRIX_BLOCK_ROWS * n * 8


def test_dunn_scratch_is_a_few_row_blocks():
    # A two-cluster partition of 1500 points whose larger cluster's block of
    # members is 1199 x 1199 entries, 11.5 MB.
    metric = HaversineMetric()
    coords, labels = _lopsided((1196, 296))
    n = len(coords)
    dist = _distance_matrix(coords, metric)
    (min_inter,), (reach,) = _dunn_bounds(dist, _spanning_tree(dist), labels[None], 2)
    score, peak = _traced_peak(
        lambda: _dunn_from_matrix(dist, labels, float(min_inter), reach, metric.triangle_slack)
    )
    assert score is not None
    assert peak <= 2 * _MATRIX_BLOCK_ROWS * n * 8


# --- spanning tree ---


def test_spanning_tree_of_two_points():
    dist = _distance_matrix(TWO_BAND[:2], HaversineMetric())
    a, b, w = _spanning_tree(dist)
    assert (a.tolist(), b.tolist()) == ([0], [1])
    assert w.tolist() == [dist[0, 1]]


@settings(max_examples=150)
@given(st.data())
def test_spanning_tree_spans_and_holds_the_closest_inter_cluster_pair(data):
    n = data.draw(st.integers(min_value=2, max_value=30))
    # Points on a coarse integer grid under the planar metric: many equal
    # distances and, from repeated grid points, zero distances.
    side = data.draw(st.integers(min_value=1, max_value=4))
    cells = st.tuples(st.integers(0, side), st.integers(0, side))
    coords = 0.01 * np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    dist = _distance_matrix(coords, PlanarMetric())
    a, b, w = _spanning_tree(dist)

    assert a.size == b.size == w.size == n - 1
    assert np.array_equal(w, dist[a, b])
    # n - 1 edges that never close a cycle connect all n points.
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in zip(a.tolist(), b.tolist()):
        assert find(i) != find(j)
        root[find(i)] = find(j)
    # Every minimum spanning tree has the same multiset of weights as Kruskal's.
    iu, iv = np.triu_indices(n, k=1)
    kruskal = []
    root = list(range(n))
    for pair in np.argsort(dist[iu, iv], kind="stable").tolist():
        i, j = find(int(iu[pair])), find(int(iv[pair]))
        if i != j:
            root[i] = j
            kruskal.append(dist[iu[pair], iv[pair]])
    assert sorted(w.tolist()) == sorted(kruskal)

    # Label values with gaps and negatives, at least two of them in use.
    values = data.draw(st.lists(st.integers(-3, 9), min_size=2, max_size=min(n, 4), unique=True))
    rest = data.draw(st.lists(st.sampled_from(values), min_size=n - 2, max_size=n - 2))
    labels = np.array(data.draw(st.permutations(values[:2] + rest)))
    same = labels[iu] == labels[iv]
    min_inter = dist[iu, iv][~same].min()
    assert w[labels[a] != labels[b]].min() == min_inter
    intra = dist[iu, iv][same]
    max_intra = intra.max() if intra.size else 0.0
    if max_intra == 0.0:
        with pytest.raises(DegenerateClusteringError):
            dunn_index(coords, labels, metric=PlanarMetric())
    else:
        score = dunn_index(coords, labels, metric=PlanarMetric())
        assert score == DunnScore(min_inter / max_intra, min_inter, max_intra)


def test_dunn_index_reads_label_values_with_gaps():
    assert dunn_index(TWO_BAND, np.array([3, 3, 7, 7])) == dunn_index(TWO_BAND, TWO_BAND_LABELS)


def test_pool_size_clamps_to_cells_and_cpus():
    assert _pool_size(1, 37, 8) == 1
    assert _pool_size(2, 37, 8) == 2
    assert _pool_size(10**9, 37, 8) == 8
    assert _pool_size(10**9, 3, 8) == 3
    assert _pool_size(4, 1, 8) == 1
    assert _pool_size(4, 37, 1) == 1


@pytest.fixture
def pool_in_process(monkeypatch):
    """Puts a pool that runs each submitted task at once, in this process,
    in place of the ProcessPoolExecutor that the sweep imports from
    concurrent.futures when it starts a pool. Returns its record: the sizes
    of the pools started, every task's arguments, and `running`, the index
    of the task that runs now (None outside one)."""
    record = types.SimpleNamespace(started=[], tasks=[], running=None)

    class PoolInProcess:
        def __init__(self, max_workers):
            record.started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, function, *args):
            record.running = len(record.tasks)
            record.tasks.append(args)
            future = Future()
            future.set_result(function(*args))
            record.running = None
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolInProcess)
    return record


@pytest.fixture
def matrices(monkeypatch, pool_in_process):
    """(task running, n) of every `_distance_matrix` call the sweep makes,
    and a weak reference to each matrix it returns."""
    builds, refs = [], []

    def counted_matrix(coords, metric):
        builds.append((pool_in_process.running, len(coords)))
        dist = _distance_matrix(coords, metric)
        refs.append(weakref.ref(dist))
        return dist

    monkeypatch.setattr(sitepick.model_selection, "_distance_matrix", counted_matrix)
    return builds, refs


@pytest.mark.parametrize(
    "affinity, cpu_count, pools",
    [
        pytest.param({0}, 2, [], id="pinned-to-one-cpu"),
        pytest.param({0, 1}, 1, [2], id="two-cpus-allowed"),
        pytest.param(None, 1, [], id="no-affinity-one-cpu"),
        pytest.param(None, 4, [2], id="no-affinity-four-cpus"),
    ],
)
def test_sweep_pool_fits_the_cpus_this_process_may_run_on(
    monkeypatch, pool_in_process, affinity, cpu_count, pools
):
    # Like `taskset -c 0 sitepick sweep --workers 2`: the affinity set, not the
    # machine's CPU count, bounds the pool; without one the count does.
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    coords = coords_array(FOUR_PAIR_POINTS)
    result = sweep(coords, FOUR_PAIR_WEIGHTS, k_range=[2, 3], runs_per_k=2, workers=2)
    assert pool_in_process.started == pools
    serial = sweep(coords, FOUR_PAIR_WEIGHTS, k_range=[2, 3], runs_per_k=2)
    assert result.optimal_k == serial.optimal_k
    assert np.array_equal(result.best.labels, serial.best.labels)


def _scattered_quadrants(sizes, seed=31):
    """One (coords, weights) pair of scattered points per size."""
    rng = np.random.default_rng(seed)
    quadrants = []
    for n in sizes:
        lat, lon = rng.uniform(1.2, 1.5, n), rng.uniform(103.6, 104.0, n)
        points = coords_array([from_degrees(a, b) for a, b in zip(lat, lon)])
        quadrants.append((points, rng.uniform(0.5, 1.0, n)))
    return quadrants


def _assert_same_bits(result, expected):
    """Every field of every k's best run is equal, floats to the bit."""
    assert result.optimal_k == expected.optimal_k
    assert list(result.per_k) == list(expected.per_k)
    for k, best in result.per_k.items():
        other = expected.per_k[k]
        assert (best.run_index, best.seed, best.iterations, best.converged) == (
            other.run_index, other.seed, other.iterations, other.converged)
        assert _bits(best.dunn) == _bits(other.dunn)
        assert best.centers.tobytes() == other.centers.tobytes()
        assert np.array_equal(best.labels, other.labels)


def test_one_pool_runs_every_task_and_each_task_builds_its_matrix_once(
    monkeypatch, pool_in_process, matrices
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    quadrants = _scattered_quadrants([9, 10, 11])
    alone = [sweep(coords, weights, k_range=range(2, 5), runs_per_k=3) for coords, weights in quadrants]
    builds, refs = matrices
    del builds[:], refs[:]
    outcomes = sweep_quadrants(
        [(coords, weights, range(2, 5)) for coords, weights in quadrants], runs_per_k=3, workers=2
    )
    assert pool_in_process.started == [2]
    # Quadrant by quadrant, each quadrant's ks largest first, dealt into one
    # slice per process.
    submitted = [(next(q for q, (coords, _) in enumerate(quadrants) if args[0] is coords),
                  list(args[2])) for args in pool_in_process.tasks]
    assert submitted == [(q, ks) for q in range(3) for ks in ([4, 2], [3])]
    # One build per task, in the task; none in the parent.
    assert builds == [(task, n) for task, n in enumerate((9, 9, 10, 10, 11, 11))]
    assert len(refs) == 6 and all(ref() is None for ref in refs)
    for outcome, expected in zip(outcomes, alone):
        _assert_same_bits(outcome, expected)


def test_one_quadrant_splits_its_ks_over_the_pool(monkeypatch, pool_in_process, matrices):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (coords, weights), = _scattered_quadrants([30])
    serial = sweep(coords, weights, k_range=range(2, 10), runs_per_k=3, base_seed=7)
    assert pool_in_process.started == []
    pooled = sweep(coords, weights, k_range=range(2, 10), runs_per_k=3, base_seed=7, workers=2)
    assert pool_in_process.started == [2]
    assert [list(args[2]) for args in pool_in_process.tasks] == [[9, 7, 5, 3], [8, 6, 4, 2]]
    builds, refs = matrices
    assert builds == [(None, 30), (0, 30), (1, 30)]
    assert all(ref() is None for ref in refs)
    _assert_same_bits(pooled, serial)


def test_serial_sweep_builds_each_quadrant_matrix_once_and_keeps_none(matrices):
    quadrants = _scattered_quadrants([9, 10, 11])
    results = list(sweep_quadrants(
        [(coords, weights, range(2, 5)) for coords, weights in quadrants], runs_per_k=2
    ))
    builds, refs = matrices
    assert builds == [(None, 9), (None, 10), (None, 11)]
    assert len(refs) == 3 and all(ref() is None for ref in refs)
    # A view would keep its k's whole (runs_per_k, n) batch alive.
    assert all(best.centers.base is None and best.labels.base is None
               for result in results for best in result.per_k.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_quadrant_leaves_the_others_as_alone(monkeypatch, workers):
    # The quadrants before a degenerate one yield what `sweep` gives each of
    # them alone; the degenerate one then raises SweepError.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (first, first_w), (last, last_w) = _scattered_quadrants([9, 12])
    coincident = coords_array([from_degrees(1.3, 103.8)] * 5)
    quadrants = [(first, first_w, [2, 3]), (last, last_w, None), (coincident, [1.0] * 5, [2])]
    results = sweep_quadrants(quadrants, runs_per_k=4, base_seed=5, workers=workers)
    for coords, weights, k_range in quadrants[:2]:
        alone = sweep(coords, weights, k_range=k_range, runs_per_k=4, base_seed=5)
        outcome = next(results)
        assert outcome.optimal_k == alone.optimal_k
        assert np.array_equal(outcome.best.labels, alone.best.labels)
        assert outcome.best.dunn == alone.best.dunn
    with pytest.raises(SweepError):
        next(results)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("bad_at", [0, 1, 2])
@pytest.mark.parametrize(
    "n, k_range",
    [(12, [2, 20]), (12, [1, 2]), (12, []), (3, None)],
    ids=["above-n", "below-2", "empty", "too-few-points"],
)
def test_a_bad_k_range_in_any_quadrant_fails_before_any_matrix(
    monkeypatch, workers, bad_at, n, k_range
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []  # every pool or matrix the call begins to build

    def record(*args, **kwargs):
        started.append((args, kwargs))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    monkeypatch.setattr(sitepick.model_selection, "_distance_matrix", record)
    quadrants = [(coords, weights, [2, 3]) for coords, weights in _scattered_quadrants([9, 10])]
    coords, weights = _scattered_quadrants([n], seed=7)[0]
    quadrants.insert(bad_at, (coords, weights, k_range))
    with pytest.raises(ValidationError):
        sweep_quadrants(quadrants, runs_per_k=2, workers=workers)
    assert started == []


# --- candidate range ---


def test_default_k_max_is_isqrt():
    assert default_k_max(4) == 2
    assert default_k_max(16) == 4
    assert default_k_max(100) == 10
    assert default_k_max(402) == 20


def test_default_k_max_needs_four_points():
    with pytest.raises(ValidationError):
        default_k_max(3)
    with pytest.raises(ValidationError):
        default_k_max(0)


# --- sweep ---


def test_sweep_recovers_pair_structure_against_enumeration():
    best_by_k = {}
    best_value = -math.inf
    best_partition = None
    for labels in set_partitions(len(FOUR_PAIR_POINTS)):
        blocks = len(set(labels))
        if blocks < 2:
            continue
        value = dunn_by_hand(FOUR_PAIR_POINTS, labels)
        if value is None:
            continue
        if value > best_by_k.get(blocks, -math.inf):
            best_by_k[blocks] = value
        if value > best_value:
            best_value = value
            best_partition = {
                frozenset(i for i, v in enumerate(labels) if v == b)
                for b in set(labels)
            }
    assert best_partition == FOUR_PAIR_PARTITION

    result = sweep(
        coords_array(FOUR_PAIR_POINTS),
        FOUR_PAIR_WEIGHTS,
        k_range=[2, 3, 4, 5],
        runs_per_k=12,
        base_seed=0,
    )
    assert result.optimal_k == 4
    got = {
        frozenset(np.flatnonzero(result.best.labels == j).tolist())
        for j in range(4)
    }
    assert got == FOUR_PAIR_PARTITION
    assert result.best.dunn.value == pytest.approx(best_value, rel=1e-12)
    # No run can beat the exhaustive optimum for its own cluster count.
    for k in [2, 3, 4, 5]:
        kb = result.per_k[k]
        assert kb is not None
        assert kb.dunn.value <= best_by_k[k] * (1.0 + 1e-12)


def test_sweep_single_run_matches_direct_kmeans():
    base_seed = 5
    result = sweep(
        coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[3], runs_per_k=1,
        base_seed=base_seed,
    )
    kb = result.per_k[3]
    assert kb is not None
    expected_seed = derive_seed(base_seed, 3, 0)
    assert kb.seed == expected_seed
    assert kb.run_index == 0
    coords = coords_array(FOUR_PAIR_POINTS)
    direct = kmeans(coords, FOUR_PAIR_WEIGHTS, k=3, seed=expected_seed)
    assert np.array_equal(kb.centers, direct.centers)
    assert np.array_equal(kb.labels, direct.labels)
    weights = np.asarray(FOUR_PAIR_WEIGHTS, dtype=np.float64)
    value = _objective_core(coords, weights, kb.centers, kb.labels, HaversineMetric())
    assert value == direct.objective


def test_sweep_more_runs_never_score_worse():
    few = sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 3], runs_per_k=1)
    many = sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 3], runs_per_k=8)
    for k in (2, 3):
        assert many.per_k[k].dunn.value >= few.per_k[k].dunn.value


def test_sweep_ties_keep_the_earliest_run():
    # Strong separation makes every start converge to the same two clusters,
    # so all runs tie on the Dunn score and run 0 must be kept.
    result = sweep(
        coords_array(TWO_BAND_POINTS), [1.0] * 4, k_range=[2], runs_per_k=6, base_seed=0
    )
    kb = result.per_k[2]
    assert kb.run_index == 0
    assert kb.seed == derive_seed(0, 2, 0)


def test_sweep_worker_count_does_not_change_results():
    serial = sweep(
        coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 3, 4], runs_per_k=6,
        base_seed=7, workers=1,
    )
    parallel = sweep(
        coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 3, 4], runs_per_k=6,
        base_seed=7, workers=3,
    )
    assert serial.optimal_k == parallel.optimal_k
    for k in (2, 3, 4):
        a, b = serial.per_k[k], parallel.per_k[k]
        assert a.seed == b.seed
        assert a.dunn == b.dunn
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.labels, b.labels)


def _bits(score):
    return [float.hex(value) for value in dataclasses.astuple(score)]


def _best_scoring_every_run(coords, weights, k, runs_per_k, base_seed, metric, max_iterations):
    """(run, seed, result, score) of k's best run, found by running each seed
    alone and scoring every run over all pairs; ties keep the earliest run."""
    iu, iv = np.triu_indices(len(coords), k=1)
    flat = metric.pairwise(coords, coords)[iu, iv]
    best = None
    for run in range(runs_per_k):
        seed = derive_seed(base_seed, k, run)
        result = kmeans(coords, weights, k, metric, seed, max_iterations)
        same = result.labels[iu] == result.labels[iv]
        max_intra = float(flat[same].max()) if same.any() else 0.0
        if max_intra == 0.0:
            continue
        min_inter = float(flat[~same].min())
        score = DunnScore(min_inter / max_intra, min_inter, max_intra)
        if best is None or score.value > best[3].value:
            best = (run, seed, result, score)
    return best


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sweep_keeps_the_run_that_scoring_every_run_keeps(data):
    metric = data.draw(st.sampled_from([HaversineMetric(), PlanarMetric()]))
    n = data.draw(st.integers(min_value=4, max_value=14))
    layout = data.draw(st.sampled_from(["coincident", "separated", "scattered"]))
    near = st.builds(from_degrees, st.floats(1.2, 1.5), st.floats(103.6, 104.0))
    if layout == "coincident":
        # Fewer distinct spots than points: runs with many clusters degenerate.
        spots = data.draw(st.lists(near, min_size=1, max_size=n - 1))
        picks = data.draw(st.lists(st.integers(0, len(spots) - 1), min_size=n, max_size=n))
        points = [spots[i] for i in picks]
    elif layout == "separated":
        # Tight bands a degree apart: restarts land on the same partition and tie.
        bands = data.draw(st.integers(min_value=2, max_value=4))
        points = [from_degrees(float(i % bands) + 0.001 * (i // bands), 103.8) for i in range(n)]
    else:
        points = data.draw(st.lists(near, min_size=n, max_size=n))
    coords = coords_array(points)
    weights = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    # Always one k close to n, where coincident points leave few usable runs.
    ks = sorted({n - data.draw(st.integers(0, 2))} | set(
        data.draw(st.lists(st.integers(2, n), max_size=2))
    ))
    runs_per_k = data.draw(st.integers(min_value=1, max_value=8))
    base_seed = data.draw(st.integers(min_value=0, max_value=2**32))
    options = dict(
        runs_per_k=runs_per_k, base_seed=base_seed, metric=metric,
        max_iterations=DEFAULT_MAX_ITERATIONS,
    )

    want = {k: _best_scoring_every_run(coords, weights, k, **options) for k in ks}
    if all(best is None for best in want.values()):
        with pytest.raises(SweepError):
            sweep(coords, weights, k_range=ks, **options)
        return
    got = sweep(coords, weights, k_range=ks, **options)
    for k in ks:
        if want[k] is None:
            assert got.per_k[k] is None
            continue
        run, seed, result, score = want[k]
        kb = got.per_k[k]
        assert (kb.run_index, kb.seed) == (run, seed)
        assert np.array_equal(kb.labels, result.labels)
        assert np.array_equal(kb.centers, result.centers)
        assert _bits(kb.dunn) == _bits(score)


def _bounds_by_hand(dist, labels):
    """min_inter of one run over all pairs, and each point's reach: its
    distance from its cluster's lowest-index member."""
    min_inter = float(dist[labels[:, None] != labels[None, :]].min())
    anchor = {}
    for point, label in enumerate(labels.tolist()):
        anchor.setdefault(label, point)
    return min_inter, [float(dist[anchor[label], point]) for point, label in enumerate(labels.tolist())]


def _upper_bound_by_hand(dist, labels):
    """min_inter / largest reach of one run, over all pairs, or None when no
    point lies away from its cluster's lowest-index member."""
    min_inter, reach = _bounds_by_hand(dist, labels)
    return min_inter / max(reach) if max(reach) > 0.0 else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dunn_bounds_are_each_runs_all_pairs_min_inter_and_anchor_distances(data):
    metric = data.draw(st.sampled_from([HaversineMetric(), PlanarMetric()]))
    # Few distinct spots: zero and equal distances within and across clusters.
    spots = data.draw(st.lists(st.builds(from_degrees, st.floats(-60.0, 60.0),
                                         st.floats(-180.0, 180.0)), min_size=1, max_size=6))
    n = data.draw(st.integers(2, 20))
    coords = coords_array([spots[i] for i in data.draw(
        st.lists(st.integers(0, len(spots) - 1), min_size=n, max_size=n))])
    k = data.draw(st.integers(2, n))
    dtype = data.draw(st.sampled_from([np.intp, np.uint8]))
    label_runs = []
    for _ in range(data.draw(st.integers(1, 7))):
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        labels[data.draw(st.permutations(range(n)))[:2]] = data.draw(
            st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        label_runs.append(labels.astype(dtype))
    dist = _distance_matrix(coords, metric)
    min_inter, reach = _dunn_bounds(dist, _spanning_tree(dist), np.stack(label_runs), k)
    assert min_inter.shape == (len(label_runs),) and reach.shape == (len(label_runs), n)
    for run, labels in enumerate(label_runs):
        assert (min_inter[run], reach[run].tolist()) == _bounds_by_hand(dist, labels)


def _score_cell(coords, metric, k, label_runs):
    """(`_dunn_from_matrix` calls, KBest) of `_sweep_cell` on crafted runs."""
    runs = (np.zeros((len(label_runs), k, 2)), np.stack(label_runs),
            np.ones(len(label_runs), dtype=np.intp), np.ones(len(label_runs), dtype=bool))
    called, stacks = [], []
    bounds = sitepick.model_selection._dunn_bounds
    score = sitepick.model_selection._dunn_from_matrix

    def bounding(dist, tree, labels, k):
        stacks.append(labels)
        return bounds(dist, tree, labels, k)

    def recording(dist, labels, *args):
        # The labels a run is scored with are its row of the bounds' stack.
        called.append(next(run for run, row in enumerate(stacks[0]) if np.shares_memory(labels, row)))
        return score(dist, labels, *args)

    dist = _distance_matrix(coords, metric)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sitepick.model_selection, "_kmeans_batch", lambda *args: runs)
        patch.setattr(sitepick.model_selection, "_dunn_bounds", bounding)
        patch.setattr(sitepick.model_selection, "_dunn_from_matrix", recording)
        best = sitepick.model_selection._sweep_cell(
            dist, _spanning_tree(dist), coords, np.ones(len(coords)), len(label_runs), 0, metric, 1, k
        )
    assert len(stacks) == 1 and np.array_equal(stacks[0], label_runs)
    return called, best


def _expected_scoring(coords, metric, label_runs):
    """The runs an all-pairs bound lets through, in run order, and the best
    run found by scoring every run with nothing to beat."""
    dist = _distance_matrix(coords, metric)
    scores = []
    for labels in label_runs:
        try:
            scores.append(dunn_index(coords, labels, metric=metric))
        except DegenerateClusteringError:
            scores.append(None)
    kept, best = [], None
    for run, labels in enumerate(label_runs):
        bound = _upper_bound_by_hand(dist, labels)
        if best is not None and bound is not None and bound <= best:
            continue
        kept.append(run)
        if scores[run] is not None and (best is None or scores[run].value > best):
            best = scores[run].value
    scored = [run for run, score in enumerate(scores) if score is not None]
    winner = max(scored, key=lambda run: scores[run].value, default=None)
    return kept, winner, None if winner is None else scores[winner]


def _check_cell(coords, metric, k, label_runs):
    called, best = _score_cell(coords, metric, k, label_runs)
    kept, winner, score = _expected_scoring(coords, metric, label_runs)
    assert called == kept
    if winner is None:
        assert best is None
    else:
        assert (best.run_index, _bits(best.dunn)) == (winner, _bits(score))
        assert np.array_equal(best.labels, label_runs[winner])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_cell_scores_only_the_runs_the_bound_cannot_drop(data):
    metric = data.draw(st.sampled_from([HaversineMetric(), PlanarMetric()]))
    near = st.builds(from_degrees, st.floats(1.2, 1.5), st.floats(103.6, 104.0))
    spots = data.draw(st.lists(near, min_size=2, max_size=5))
    n = data.draw(st.integers(max(4, len(spots)), 12))
    picks = list(range(len(spots))) + data.draw(
        st.lists(st.integers(0, len(spots) - 1), min_size=n - len(spots), max_size=n - len(spots))
    )
    coords = coords_array([spots[i] for i in picks])
    k = data.draw(st.integers(2, min(n, 5)))
    label_runs = []
    for _ in range(data.draw(st.integers(1, 7))):
        if k == len(spots) and data.draw(st.booleans()):
            # One cluster per spot: every reach is zero.
            labels = np.array(picks)
        else:
            labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
            labels[data.draw(st.permutations(range(n)))[:k]] = np.arange(k)
        label_runs.append(labels)
    _check_cell(coords, metric, k, label_runs)


@pytest.mark.parametrize("runs", [1, 2, 3, 4])
def test_sweep_cell_scores_a_run_of_zero_reach_in_full(runs):
    # Points a, a, b, c. Run 0 puts the two a's apart and scores 0; run 1 puts
    # each place in its own cluster, so every reach is zero and nothing bounds
    # it; run 2 repeats run 0 and cannot beat it; run 3 is run 1 again.
    coords = coords_array([from_degrees(1.3, 103.8)] * 2
                          + [from_degrees(1.31, 103.8), from_degrees(1.3, 103.83)])
    apart, by_place = np.array([0, 1, 0, 2]), np.array([0, 0, 1, 2])
    label_runs = [apart, by_place, apart.copy(), by_place.copy()][:runs]
    called, best = _score_cell(coords, HaversineMetric(), 3, label_runs)
    assert called == {1: [0], 2: [0, 1], 3: [0, 1], 4: [0, 1, 3]}[runs]
    assert (best.run_index, best.dunn.value) == (0, 0.0)
    _check_cell(coords, HaversineMetric(), 3, label_runs)


def test_sweep_default_range_ends_at_isqrt():
    points = [from_degrees(0.1 * i, 0.07 * (i % 5)) for i in range(9)]
    result = sweep(coords_array(points), [1.0] * 9, runs_per_k=2)
    assert isinstance(result, SweepResult)
    assert tuple(result.per_k) == (2, 3)


def test_sweep_all_coincident_raises():
    p = from_degrees(1.3, 103.8)
    with pytest.raises(SweepError, match="degenerate"):
        sweep(coords_array([p] * 5), [1.0] * 5, k_range=[2, 3], runs_per_k=3)


def test_sweep_skips_degenerate_k_only():
    # A duplicated point caps the usable cluster count at 2: with k=3 the
    # duplicates always share a cluster and everything else is a singleton.
    a = from_degrees(1.30, 103.80)
    b = from_degrees(1.40, 103.90)
    c = from_degrees(1.50, 103.70)
    result = sweep(coords_array([a, a, b, c]), [1.0] * 4, k_range=[2, 3], runs_per_k=4)
    assert result.per_k[3] is None
    assert result.per_k[2] is not None
    assert result.optimal_k == 2
    assert result.best is result.per_k[2]


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, runs_per_k=0)
    with pytest.raises(ValidationError):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[1, 2])
    with pytest.raises(ValidationError):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 9])
    with pytest.raises(ValidationError):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[])
    with pytest.raises(ValidationError):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS[:-1], k_range=[2])
    with pytest.raises(ValidationError):
        sweep(coords_array(TWO_BAND_POINTS[:3]), [1.0] * 3)
    # Settings that are not integers, which int() or a comparison would let
    # through: k = 2.5 would run as k = 2.
    for bad in ({"k_range": [2.5]}, {"k_range": ["3", 2]}, {"runs_per_k": 1.5},
                {"runs_per_k": "3"}, {"max_iterations": 2.5}, {"base_seed": 0.5},
                {"workers": 2.0}):
        with pytest.raises(ValidationError, match="must be an integer"):
            sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, **{"k_range": [2], **bad})


def test_sweep_accepts_numpy_integer_settings():
    coords = coords_array(FOUR_PAIR_POINTS)
    want = sweep(coords, FOUR_PAIR_WEIGHTS, k_range=[2, 3], runs_per_k=2, base_seed=7,
                 max_iterations=50)
    got = sweep(coords, FOUR_PAIR_WEIGHTS, k_range=np.array([2, 3]), runs_per_k=np.int64(2),
                base_seed=np.int64(7), max_iterations=np.int32(50), workers=np.int64(1))
    assert got.optimal_k == want.optimal_k
    for k, best in got.per_k.items():
        assert (best.run_index, best.seed, best.dunn) == (
            want.per_k[k].run_index, want.per_k[k].seed, want.per_k[k].dunn)
        assert np.array_equal(best.labels, want.per_k[k].labels)


@pytest.mark.parametrize(
    "workers, problem",
    [(0, ">= 1, got 0"), (-1, ">= 1, got -1"), (1.5, "an integer, got 1.5")],
    ids=["0", "-1", "1.5"],
)
def test_sweep_rejects_workers_below_one_before_any_pool_or_matrix(monkeypatch, workers, problem):
    started = []  # every pool or matrix the call begins to build

    def record(*args, **kwargs):
        started.append((args, kwargs))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    monkeypatch.setattr(sitepick.model_selection, "_distance_matrix", record)
    with pytest.raises(ValidationError, match=f"workers must be {problem}"):
        sweep(coords_array(FOUR_PAIR_POINTS), FOUR_PAIR_WEIGHTS, k_range=[2, 3], workers=workers)
    assert started == []


@pytest.mark.parametrize(
    "max_iterations, workers, problem",
    [
        pytest.param(0, 1, ">= 1, got 0", id="1"),
        pytest.param(0, 2, ">= 1, got 0", id="2"),
        pytest.param(2.5, 1, "an integer, got 2.5", id="2.5-1"),
        pytest.param(2.5, 2, "an integer, got 2.5", id="2.5-2"),
    ],
)
def test_sweep_rejects_max_iterations_below_one_before_any_pool_or_matrix(
    monkeypatch, max_iterations, workers, problem
):
    started = []  # every pool or matrix the call begins to build

    def record(*args, **kwargs):
        started.append((args, kwargs))

    # Two allowed CPUs would let two workers start a pool for the two cells.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    monkeypatch.setattr(sitepick.model_selection, "_distance_matrix", record)
    coords = coords_array(FOUR_PAIR_POINTS)
    with pytest.raises(ValidationError, match=f"max_iterations must be {problem}"):
        sweep(coords, FOUR_PAIR_WEIGHTS, k_range=[2, 3], max_iterations=max_iterations,
              workers=workers)
    assert started == []


def _not_finite_n_by_2_floats(coords):
    """Ways to pass an (n, 2) float64 radian array wrongly, with n rows kept."""
    nan = coords.copy()
    nan[1, 0] = math.nan
    infinite = coords.copy()
    infinite[0, 1] = math.inf
    return [
        pytest.param(coords.tolist(), id="list"),
        pytest.param(coords[:, :1], id="one-column"),
        pytest.param(np.column_stack([coords, coords[:, :1]]), id="three-columns"),
        pytest.param(coords[:, 0].copy(), id="flat"),
        pytest.param(np.zeros(coords.shape, dtype=np.int64), id="integers"),
        pytest.param(nan, id="nan"),
        pytest.param(infinite, id="infinite"),
    ]


_ENTRY_POINTS = {
    "sweep": lambda coords: sweep(coords, FOUR_PAIR_WEIGHTS, runs_per_k=2),
    "dunn_index": lambda coords: dunn_index(coords, [0, 0, 1, 1, 2, 2, 3, 3]),
}


@pytest.mark.parametrize(
    "call, match",
    [
        *(
            pytest.param(functools.partial(call, *coords.values), "coords must be",
                         id=f"{name}-{coords.id}")
            for name, call in _ENTRY_POINTS.items()
            for coords in _not_finite_n_by_2_floats(coords_array(FOUR_PAIR_POINTS))
        ),
        # Labels that are not integers, and weights that are not flat: with
        # two workers these must fail before a pool starts.
        pytest.param(lambda: dunn_index(TWO_BAND, np.array([0.0, 0.0, 1.0, np.nan])),
                     "labels must be integers", id="dunn_index-nan-labels"),
        pytest.param(lambda: dunn_index(TWO_BAND, np.array(["a", "a", "b", "b"])),
                     "labels must be integers", id="dunn_index-string-labels"),
        *(
            pytest.param(lambda shape=shape: sweep(coords_array(FOUR_PAIR_POINTS), np.ones(shape),
                                                   runs_per_k=2, workers=2),
                         "weights must be a flat", id=f"sweep-{shape[1]}-column-weights")
            for shape in [(8, 1), (8, 2)]
        ),
    ],
)
def test_entry_points_reject_coords_that_are_not_finite_n_by_2_floats(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


# --- whole sphere ---

# Four seeded blobs of 12 points near Singapore. Turning longitude by 180°
# minus a blob's center longitude puts that blob across ±180°.
_BLOB_CENTERS = ((1.0, 103.5), (1.6, 104.2), (0.7, 104.5), (1.9, 103.3))
_BLOB_RNG = np.random.default_rng(2024)
BLOB_LAT = np.concatenate([lat + _BLOB_RNG.normal(0.0, 0.08, 12) for lat, _ in _BLOB_CENTERS])
BLOB_LON = np.concatenate([lon + _BLOB_RNG.normal(0.0, 0.08, 12) for _, lon in _BLOB_CENTERS])
BLOB_WEIGHTS = _BLOB_RNG.uniform(0.5, 1.0, BLOB_LAT.size)
ROTATIONS = (0.0, 90.0, -100.0, 75.5, 75.8, 76.5, 76.7, -283.7)


def test_sweep_is_invariant_under_longitude_rotation():
    def rotated_sweep(degrees):
        coords = coords_array([from_degrees(a, b + degrees) for a, b in zip(BLOB_LAT, BLOB_LON)])
        result = sweep(coords, BLOB_WEIGHTS, k_range=range(2, 7), runs_per_k=5, base_seed=0)
        return coords, result

    _, base = rotated_sweep(0.0)
    straddled = set()
    for degrees in ROTATIONS:
        coords, result = rotated_sweep(degrees)
        for blob in range(len(_BLOB_CENTERS)):
            lon = coords[12 * blob : 12 * (blob + 1), 1]
            if lon.min() < -np.pi / 2 and lon.max() > np.pi / 2:
                straddled.add(blob)
        assert result.optimal_k == base.optimal_k
        for k in range(2, 7):
            got, want = result.per_k[k], base.per_k[k]
            assert np.array_equal(got.labels, want.labels), (degrees, k)
            assert got.dunn.value == pytest.approx(want.dunn.value, rel=1e-9, abs=0.0)
    assert straddled == set(range(len(_BLOB_CENTERS)))
