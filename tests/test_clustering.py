"""Clustering unit tests.

The k-means oracle here is exhaustive enumeration over all label vectors,
written with plain Python loops and the scalar distance function so it shares
no code path with the implementation under test.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from sitepick import clustering
from sitepick.clustering import (
    DEFAULT_MAX_ITERATIONS,
    ClusteringResult,
    HaversineMetric,
    PlanarMetric,
    _distance_matrix,
    _kmeans_batch,
    _kmeanspp_core,
    _objective_core,
    _repair_empty_clusters,
    _update_centers,
    kmeans,
    weighted_center,
)
from sitepick.errors import EmptyClusterError, ValidationError
from sitepick.geo import EarthModel, GeoPoint, coords_array, from_degrees, haversine
from sitepick.rng import SplitMix64

ONE_DEG_KM = 111.19492664455873  # 6371 * pi / 180

# Two groups of three points roughly 100 km apart in latitude.
GROUPED_POINTS = [
    from_degrees(1.30, 103.80),
    from_degrees(1.31, 103.81),
    from_degrees(1.29, 103.79),
    from_degrees(2.20, 103.80),
    from_degrees(2.21, 103.81),
    from_degrees(2.19, 103.79),
]
GROUPED = coords_array(GROUPED_POINTS)
GROUPED_WEIGHTS = [0.5, 0.75, 1.0, 0.6, 0.9, 0.8]

# Six points near Fiji, on both sides of the antimeridian.
FIJI_POINTS = [
    from_degrees(lat, lon) for lat in (-16.0, -17.0, -18.0) for lon in (179.95, -179.95)
]
FIJI = coords_array(FIJI_POINTS)


def exhaustive_best_objective(points, weights, k):
    """Minimum weighted dispersion over every surjective labelling."""
    n = len(points)
    best = math.inf
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = [i for i in range(n) if labels[i] == j]
            wsum = sum(weights[i] for i in members)
            lat = sum(weights[i] * points[i].lat for i in members) / wsum
            lon = sum(weights[i] * points[i].lon for i in members) / wsum
            center = GeoPoint(lat, lon)
            total += sum(weights[i] * haversine(points[i], center) ** 2 for i in members)
        best = min(best, total)
    return best


# --- metrics ---


def test_haversine_metric_matches_scalar():
    metric = HaversineMetric()
    a = coords_array(GROUPED_POINTS[:4])
    b = coords_array(GROUPED_POINTS[2:])
    grid = metric.pairwise(a, b)
    assert grid.shape == (4, 4)
    for i in range(4):
        for j in range(4):
            expected = haversine(GROUPED_POINTS[i], GROUPED_POINTS[2 + j])
            assert grid[i, j] == pytest.approx(expected, abs=1e-9)


def test_haversine_metric_scales_with_radius():
    small = HaversineMetric(earth=EarthModel(radius_km=1.0))
    p, q = GROUPED_POINTS[0], GROUPED_POINTS[3]
    distance = small.pairwise(coords_array([p]), coords_array([q]))[0, 0]
    assert distance * 6371.0 == pytest.approx(haversine(p, q), rel=1e-12)


def test_planar_metric_matches_cdist():
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.0, 1.0, size=(11, 2))
    b = rng.uniform(-1.0, 1.0, size=(5, 2))
    metric = PlanarMetric()
    np.testing.assert_allclose(metric.pairwise(a, b), cdist(a, b), atol=1e-12)


def test_metric_scalar_wrapper():
    p, q = GROUPED_POINTS[0], GROUPED_POINTS[5]
    distance = HaversineMetric().pairwise(coords_array([p]), coords_array([q]))[0, 0]
    assert distance == pytest.approx(haversine(p, q), abs=1e-12)


# --- nearest-center assignment ---


def nearest(metric, points, centers):
    """Each point's nearest center under one center set, through `assigner`."""
    return metric.assigner(points, 1, len(centers))(centers[None])[0]


_sphere_point = st.tuples(st.floats(min_value=-math.pi / 2, max_value=math.pi / 2),
                          st.floats(min_value=-math.pi, max_value=math.pi))


def _antipode(point):
    lat, lon = point
    return (-lat, lon - math.copysign(math.pi, lon))


@st.composite
def _assignment_cases(draw):
    """Points and centers over the whole sphere or packed within 1e-6 degrees,
    with exact ties mixed in: duplicate centers, centers on points, coincident
    points, and antipodes of centers as centers and as points."""
    if draw(st.booleans()):
        point = _sphere_point
    else:
        lat0, lon0 = draw(_sphere_point)
        tiny = st.floats(min_value=-math.radians(1e-6), max_value=math.radians(1e-6))
        point = st.builds(
            lambda a, b: (min(max(lat0 + a, -math.pi / 2), math.pi / 2), lon0 + b), tiny, tiny
        )
    points = draw(st.lists(point, min_size=1, max_size=30))
    centers = draw(st.lists(point, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["duplicate", "on_point", "antipode", "coincident"]))
        center = centers[draw(st.integers(0, len(centers) - 1))]
        point = points[draw(st.integers(0, len(points) - 1))]
        if kind == "duplicate":
            centers.insert(draw(st.integers(0, len(centers))), center)
        elif kind == "on_point":
            centers.insert(draw(st.integers(0, len(centers))), point)
        elif kind == "antipode":
            centers.insert(draw(st.integers(0, len(centers))), _antipode(center))
            points.append(_antipode(center))
        else:
            points.insert(draw(st.integers(0, len(points))), point)
    return np.array(points, dtype=np.float64), np.array(centers, dtype=np.float64)


@settings(max_examples=300)
@given(_assignment_cases())
def test_haversine_assign_is_the_pairwise_argmin(case):
    points, centers = case
    metric = HaversineMetric()
    want = metric.pairwise(points, centers).argmin(axis=1)
    assert np.array_equal(nearest(metric, points, centers), want)


def _assign_recording_fallback(monkeypatch, points, centers):
    """Nearest centers under HaversineMetric() and the rows it recomputed."""
    recomputed = []
    pairwise = HaversineMetric.pairwise

    def recording(self, a, b):
        recomputed.append(a.copy())
        return pairwise(self, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(HaversineMetric, "pairwise", recording)
        labels = nearest(HaversineMetric(), points, centers)
    assert len(recomputed) <= 1
    return labels, recomputed[0] if recomputed else points[:0]


def test_haversine_assign_falls_back_on_duplicate_centers(monkeypatch):
    rng = np.random.default_rng(8)
    points = np.column_stack([rng.uniform(0.02, 0.03, 40), rng.uniform(1.81, 1.82, 40)])
    centers = points[[0, 5, 9, 5]]  # centers 1 and 3 are the same point
    labels, recomputed = _assign_recording_fallback(monkeypatch, points, centers)
    want = HaversineMetric().pairwise(points, centers).argmin(axis=1)
    assert np.array_equal(labels, want)
    # Every point nearest to the duplicated center ties exactly, so it is
    # recomputed, and the tie goes to the lower index.
    tied = np.flatnonzero(want == 1)
    assert tied.size > 1 and not np.any(want == 3)
    assert np.array_equal(recomputed, points[tied])


def test_haversine_assign_falls_back_beyond_90_degrees(monkeypatch):
    rng = np.random.default_rng(10)
    near = np.column_stack([rng.uniform(0.0, 0.1, 10), rng.uniform(0.0, 0.1, 10)])
    far = np.column_stack([rng.uniform(-0.1, 0.0, 5), rng.uniform(-3.1, -3.0, 5)])
    centers = np.array([[0.05, 0.05], [0.06, 0.04]])
    points = np.vstack([near, far])
    labels, recomputed = _assign_recording_fallback(monkeypatch, points, centers)
    assert np.array_equal(labels, HaversineMetric().pairwise(points, centers).argmin(axis=1))
    assert np.array_equal(recomputed, far)


def test_planar_assign_is_the_plain_argmin():
    rng = np.random.default_rng(9)
    points = rng.uniform(-1.0, 1.0, size=(200, 2))
    centers = np.vstack([points[:6], points[2:4], rng.uniform(-1.0, 1.0, size=(3, 2))])
    metric = PlanarMetric()
    want = metric.pairwise(points, centers).argmin(axis=1)
    assert np.array_equal(nearest(metric, points, centers), want)


# --- weighted centers ---


def test_weighted_center_equal_weights_is_mean():
    coords = GROUPED[:3]
    center = weighted_center(coords, [0.7, 0.7, 0.7])
    assert center[0] == pytest.approx(float(coords[:, 0].mean()), abs=1e-15)
    assert center[1] == pytest.approx(float(coords[:, 1].mean()), abs=1e-15)


def test_weighted_center_singleton():
    assert np.array_equal(weighted_center(GROUPED[:1], [0.51]), GROUPED[0])


def test_weighted_center_matches_replication():
    # Weights 0.5 and 0.75 scale to 2 and 3 copies; the weighted mean of the
    # pair must equal the plain mean of the replicated multiset.
    coords = coords_array([from_degrees(1.30, 103.80), from_degrees(1.35, 103.90)])
    weighted = weighted_center(coords, [0.5, 0.75])
    replicated = weighted_center(coords[[0, 0, 1, 1, 1]], [1.0] * 5)
    assert abs(weighted[0] - replicated[0]) <= 1e-12
    assert abs(weighted[1] - replicated[1]) <= 1e-12


def test_weighted_center_rejects_bad_input():
    with pytest.raises(EmptyClusterError):
        weighted_center(GROUPED[:0], [])
    with pytest.raises(ValidationError, match="2 points but 1 weights"):
        weighted_center(GROUPED[:2], [1.0])
    with pytest.raises(ValidationError, match="finite and positive"):
        weighted_center(GROUPED[:2], [0.0, 0.0])


def test_weighted_center_validates_weights_as_kmeans_does():
    # Unchecked, a negative weight puts the center outside both points' box
    # and an infinite one makes it NaN.
    coords = coords_array([from_degrees(1.0, 103.0), from_degrees(2.0, 104.0)])
    for weights in ([1.0, -0.5], [math.inf, 1.0]):
        with pytest.raises(ValidationError, match="finite and positive"):
            kmeans(coords, weights, k=1)
        with pytest.raises(ValidationError, match="finite and positive"):
            weighted_center(coords, weights)


def test_weighted_center_across_antimeridian_is_on_it():
    coords = coords_array([from_degrees(0.0, 179.0), from_degrees(0.0, -179.0)])
    assert weighted_center(coords, [1.0, 1.0])[1] == math.pi


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-60.0, max_value=60.0),
            st.floats(min_value=-90.0, max_value=90.0),
        ),
        min_size=1,
        max_size=12,
    ),
    st.data(),
)
def test_weighted_center_stays_in_bounding_box(latlon, data):
    points = [from_degrees(lat, lon) for lat, lon in latlon]
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.5, max_value=1.0),
            min_size=len(points),
            max_size=len(points),
        )
    )
    lat, lon = weighted_center(coords_array(points), weights)
    lats = [p.lat for p in points]
    lons = [p.lon for p in points]
    assert min(lats) - 1e-12 <= lat <= max(lats) + 1e-12
    assert min(lons) - 1e-12 <= lon <= max(lons) + 1e-12


def reference_centers(coords, weights, labels, k):
    """Per-cluster weighted means, one cluster at a time. A longitude more than
    pi from the cluster's first member moves by 2 pi toward it, and the mean
    longitude is folded into (-pi, pi]."""
    centers = np.empty((k, 2))
    for j in range(k):
        members = np.flatnonzero(labels == j)
        c, w = coords[members].copy(), weights[members]
        offset = c[:, 1] - c[0, 1]
        moved = np.abs(offset) > np.pi
        c[moved, 1] = c[moved, 1] - np.copysign(2.0 * np.pi, offset[moved])
        lat, lon = (w[:, None] * c).sum(axis=0) / float(w.sum())
        if lon > np.pi:
            lon -= 2.0 * np.pi
        elif lon <= -np.pi:
            lon += 2.0 * np.pi
        centers[j] = lat, lon
    return centers


def vectorised_centers(coords, weights, labels, k):
    return _update_centers(coords, weights, weights[:, None] * coords, labels, k)


def same_bits(a, b):
    """Bitwise equality, telling -0.0 from 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_angle = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi]),
    st.floats(min_value=-math.pi, max_value=math.pi),
)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(_angle, _angle, st.floats(min_value=1e-3, max_value=10.0),
                  st.integers(0, 7)),
        min_size=1,
        max_size=60,
    )
)
def test_update_centers_is_the_per_cluster_loop(rows):
    coords = np.array([(lat / 2.0, lon) for lat, lon, _, _ in rows])
    weights = np.array([w for _, _, w, _ in rows])
    _, labels = np.unique([c for _, _, _, c in rows], return_inverse=True)
    k = int(labels.max()) + 1
    got = vectorised_centers(coords, weights, labels, k)
    want = reference_centers(coords, weights, labels, k)
    assert same_bits(got, want)


def test_update_centers_is_the_per_cluster_loop_for_large_clusters():
    # Clusters past numpy's 8- and 128-element pairwise-sum blocks.
    rng = np.random.default_rng(5)
    for n, k, lon_limit in itertools.product((9, 130, 700, 2000), (1, 2, 7), (np.pi, 1.0)):
        coords = np.column_stack(
            [rng.uniform(-np.pi / 2, np.pi / 2, n), rng.uniform(-lon_limit, lon_limit, n)]
        )
        weights = rng.uniform(1e-3, 1.0, n)
        labels = rng.integers(0, k, n)
        labels[:k] = np.arange(k)
        got = vectorised_centers(coords, weights, labels, k)
        want = reference_centers(coords, weights, labels, k)
        assert same_bits(got, want)


@st.composite
def _passes(draw):
    """Two passes of R runs over one point set: (R, n) labels, or (n,) for a
    single partition, before and after some points move. Cluster sizes come
    from a few values around numpy's 8- and 128-element pairwise-sum blocks,
    so clusters of one size meet within and across runs; in some cases every
    longitude lies within 0.02 rad of +-pi."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 8, 9, 128, 129, 700]), min_size=1, max_size=6))
    k, n = len(sizes), sum(sizes)
    runs = draw(st.sampled_from([None, 1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = rng.uniform(-1.4, 1.4, n)
    if draw(st.booleans()):
        lon = rng.uniform(-np.pi, np.pi, n)
    else:
        lon = np.pi - rng.uniform(0.0, 0.02, n)
        lon[rng.random(n) < 0.5] *= -1.0
    coords = np.column_stack([lat, lon])
    weights = rng.uniform(1e-3, 10.0, n)
    base = np.repeat(np.arange(k), sizes)
    before = np.stack([rng.permutation(base) for _ in range(runs or 1)])
    after = before.copy()
    for run in range(len(after)):
        for point in rng.integers(0, n, draw(st.sampled_from([0, 0, 1, 3, 40]))):
            source, target = after[run, point], rng.integers(0, k)
            if np.count_nonzero(after[run] == source) > 1:
                after[run, point] = target
    if runs is None:
        before, after = before[0], after[0]
    return coords, weights, k, before, after


@settings(max_examples=150, deadline=None)
@given(_passes())
def test_update_centers_from_the_previous_pass_is_the_full_update(case):
    coords, weights, k, before, after = case
    weighted = weights[:, None] * coords
    previous = (before, _update_centers(coords, weights, weighted, before, k))
    got = _update_centers(coords, weights, weighted, after, k, previous)
    assert same_bits(got, _update_centers(coords, weights, weighted, after, k))
    for labels, centers in zip(after.reshape(-1, len(coords)), got.reshape(-1, k, 2)):
        assert same_bits(centers, reference_centers(coords, weights, labels, k))


# --- seeding ---


def whole_sphere_coords(n, seed):
    rng = np.random.default_rng(seed)
    points = [
        from_degrees(lat, lon)
        for lat, lon in zip(rng.uniform(-90.0, 90.0, n), rng.uniform(-180.0, 180.0, n))
    ]
    # Duplicates and antipodes of the first few points.
    points += points[:4] + [from_degrees(-math.degrees(p.lat), math.degrees(p.lon) + 180.0)
                            for p in points[:4]]
    return coords_array(points)


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_distance_matrix_rows_are_metric_columns(metric):
    coords = whole_sphere_coords(300, seed=8)
    matrix = _distance_matrix(coords, metric)
    for i in range(coords.shape[0]):
        assert np.array_equal(matrix[i], metric.pairwise(coords, coords[i : i + 1])[:, 0])


def reference_kmeanspp(coords, k, metric, rng):
    """k-means++ that computes each chosen center's distance column with the metric."""
    n = coords.shape[0]
    nearest = np.full(n, np.inf)
    probabilities = np.full(n, 1.0 / n)
    chosen = []
    for _ in range(k):
        if probabilities is None:
            unchosen = sorted(set(range(n)) - set(chosen))
            idx = unchosen[rng.randrange(len(unchosen))]
        else:
            cumulative = np.cumsum(probabilities)
            u = rng.random() * float(cumulative[-1])
            idx = min(int(np.searchsorted(cumulative, u, side="right")), n - 1)
        chosen.append(idx)
        np.minimum(nearest, metric.pairwise(coords, coords[idx : idx + 1])[:, 0], out=nearest)
        squared = nearest * nearest
        total = float(squared.sum())
        probabilities = squared / total if total > 0.0 else None
    return chosen


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_kmeanspp_from_matrix_picks_the_reference_indices(metric):
    coords = whole_sphere_coords(120, seed=9)
    singapore = coords_array(
        [from_degrees(1.2 + 0.001 * i, 103.6 + 0.0007 * (i * 7 % 50)) for i in range(80)]
    )
    for points in (coords, singapore, np.zeros((5, 2))):
        matrix = _distance_matrix(points, metric)
        for seed in range(40):
            k = 1 + seed % points.shape[0]
            want = reference_kmeanspp(points, k, metric, SplitMix64(seed))
            assert _kmeanspp_core(matrix, k, SplitMix64(seed)) == want


def test_kmeanspp_single_point():
    matrix = _distance_matrix(coords_array([GROUPED_POINTS[0]]), HaversineMetric())
    assert _kmeanspp_core(matrix, 1, SplitMix64(3)) == [0]


def test_kmeanspp_centers_are_input_points():
    matrix = _distance_matrix(coords_array(GROUPED_POINTS), HaversineMetric())
    chosen = _kmeanspp_core(matrix, 3, SplitMix64(11))
    assert len(chosen) == 3
    for index in chosen:
        assert 0 <= index < len(GROUPED_POINTS)


def test_kmeanspp_never_repeats_a_coincident_point():
    # Two coincident points and one distinct: the second draw has zero
    # probability of landing on the copy of the first pick, so every seeding
    # must cover both locations.
    coords = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    matrix = _distance_matrix(coords, PlanarMetric())
    for seed in range(200):
        chosen = _kmeanspp_core(matrix, 2, SplitMix64(seed))
        locations = {tuple(coords[i]) for i in chosen}
        assert len(locations) == 2


def test_kmeanspp_all_identical_falls_back_to_uniform():
    coords = np.zeros((4, 2))
    matrix = _distance_matrix(coords, PlanarMetric())
    for seed in range(50):
        chosen = _kmeanspp_core(matrix, 3, SplitMix64(seed))
        assert len(set(chosen)) == 3
        assert np.all(coords[chosen] == 0.0)


def test_kmeanspp_squared_distance_proportions():
    # Points on a line at 0, 1, 2: conditioned on the first center being the
    # left end, the far end is 4x as likely as the middle (4/5 vs 1/5).
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    matrix = _distance_matrix(coords, PlanarMetric())
    conditioned = 0
    far = 0
    for seed in range(10_000):
        chosen = _kmeanspp_core(matrix, 2, SplitMix64(seed))
        if chosen[0] == 0:
            conditioned += 1
            far += chosen[1] == 2
    assert conditioned > 2500
    assert far / conditioned == pytest.approx(0.8, abs=0.035)


@pytest.mark.parametrize("metric", [HaversineMetric(), PlanarMetric()])
def test_repair_fills_every_cluster_by_relabelling_against_matrix_rows(metric):
    coords = whole_sphere_coords(40, seed=10)
    matrix = _distance_matrix(coords, metric)
    rng = np.random.default_rng(11)
    repaired = pinned_cases = 0
    for _ in range(200):
        k = int(rng.integers(2, 9))
        # Repeated seed indices tie in the argmin, which empties the later copies.
        centers = coords[rng.choice(coords.shape[0], size=k, replace=True)]
        centers[rng.integers(1, k)] = centers[0]
        before = metric.pairwise(coords, centers)
        dist = before.copy()
        labels = dist.argmin(axis=1)
        if np.bincount(labels, minlength=k).min() > 0:
            continue
        repaired += 1
        _repair_empty_clusters(matrix, dist, labels)
        assert np.bincount(labels, minlength=k).min() >= 1
        for j in range(k):
            column = dist[:, j]
            assert np.array_equal(column, before[:, j]) or (matrix == column).all(axis=1).any()
        # Every label is the argmin of dist but one pinned point for each
        # cluster that the argmin leaves empty.
        argmin = dist.argmin(axis=1)
        pinned = labels != argmin
        assert np.array_equal(
            np.sort(labels[pinned]), np.flatnonzero(np.bincount(argmin, minlength=k) == 0)
        )
        pinned_cases += pinned.any()
    assert repaired > 100
    assert pinned_cases > 0


# --- k-means ---


def test_kmeans_recovers_separated_groups():
    expected = {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    for seed in range(20):
        result = kmeans(GROUPED, GROUPED_WEIGHTS, k=2, seed=seed)
        got = {
            frozenset(np.flatnonzero(result.labels == j).tolist())
            for j in range(2)
        }
        assert got == expected
        assert result.converged


def test_kmeans_attains_exhaustive_minimum():
    oracle = exhaustive_best_objective(GROUPED_POINTS, GROUPED_WEIGHTS, 2)
    best = min(
        kmeans(GROUPED, GROUPED_WEIGHTS, k=2, seed=seed).objective
        for seed in range(20)
    )
    assert best == pytest.approx(oracle, rel=1e-9)


def test_kmeans_k_equals_n():
    # Singleton centers come back through the weighted-mean update (w*x/w),
    # which can wobble by an ulp, so the objective is tiny rather than zero.
    result = kmeans(GROUPED, GROUPED_WEIGHTS, k=6, seed=1)
    assert result.objective <= 1e-20
    assert sorted(result.labels.tolist()) == [0, 1, 2, 3, 4, 5]
    for j, (lat, lon) in enumerate(result.centers):
        member = GROUPED_POINTS[int(np.flatnonzero(result.labels == j)[0])]
        assert lat == pytest.approx(member.lat, abs=1e-15)
        assert lon == pytest.approx(member.lon, abs=1e-15)


def test_kmeans_k_one_is_weighted_center():
    result = kmeans(GROUPED, GROUPED_WEIGHTS, k=1, seed=9)
    center = weighted_center(GROUPED, GROUPED_WEIGHTS)
    assert np.array_equal(result.centers[0], center)
    assert result.converged


def test_kmeans_is_deterministic():
    a = kmeans(GROUPED, GROUPED_WEIGHTS, k=3, seed=42)
    b = kmeans(GROUPED, GROUPED_WEIGHTS, k=3, seed=42)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.labels, b.labels)
    assert a.iterations == b.iterations
    assert a.objective == b.objective


def test_kmeans_converged_state_is_a_fixed_point():
    result = kmeans(GROUPED, GROUPED_WEIGHTS, k=2, seed=5)
    assert result.converged
    metric = HaversineMetric()
    recheck = metric.pairwise(GROUPED, result.centers).argmin(axis=1)
    assert np.array_equal(recheck, result.labels)
    for j in range(2):
        members = np.flatnonzero(result.labels == j)
        again = weighted_center(GROUPED[members], [GROUPED_WEIGHTS[i] for i in members])
        assert np.array_equal(again, result.centers[j])


def test_kmeans_converges_across_antimeridian():
    result = kmeans(FIJI, [1.0] * 6, k=2, seed=0)
    assert result.converged
    for j, (center_lat, center_lon) in enumerate(result.centers):
        members = [FIJI_POINTS[i] for i in np.flatnonzero(result.labels == j)]
        lat = sum(math.degrees(p.lat) for p in members) / len(members)
        lon = sum(math.degrees(p.lon) % 360.0 for p in members) / len(members)
        assert abs(math.degrees(center_lat) - lat) < 0.1
        assert abs(math.remainder(math.degrees(center_lon) - lon, 360.0)) < 0.1


def test_kmeans_iteration_cap():
    result = kmeans(GROUPED, GROUPED_WEIGHTS, k=2, seed=0, max_iterations=1)
    assert result.iterations == 1
    assert not result.converged


def test_kmeans_repairs_duplicate_collapse():
    # Fewer distinct locations than clusters force seeding onto duplicates;
    # the repair step must still deliver k non-empty clusters, and repaired
    # labels that stop changing converge like any others.
    a = from_degrees(1.30, 103.80)
    b = from_degrees(1.40, 103.90)
    c = from_degrees(1.50, 104.00)
    for points, k in [([a, a, a, b], 3), ([a, a, a, b, c], 4), ([a, a, b, c], 4)]:
        for seed in range(50):
            result = kmeans(coords_array(points), [1.0] * len(points), k=k, seed=seed)
            counts = np.bincount(result.labels, minlength=k)
            assert counts.min() >= 1
            assert math.isfinite(result.objective)
            assert result.converged
            assert result.iterations <= 3


def test_kmeans_rejects_bad_input():
    with pytest.raises(ValidationError):
        kmeans(GROUPED[:0], [], k=1)
    with pytest.raises(ValidationError):
        kmeans(GROUPED, GROUPED_WEIGHTS, k=7)
    with pytest.raises(ValidationError):
        kmeans(GROUPED, GROUPED_WEIGHTS[:-1], k=2)
    with pytest.raises(ValidationError):
        kmeans(GROUPED, [1.0, 1.0, 1.0, -1.0, 1.0, 1.0], k=2)
    with pytest.raises(ValidationError):
        kmeans(GROUPED, GROUPED_WEIGHTS, k=2, max_iterations=0)


def test_kmeans_rejects_max_iterations_below_one_before_its_matrix(monkeypatch):
    started = []
    monkeypatch.setattr(clustering, "_distance_matrix", lambda *args: started.append(args))
    with pytest.raises(ValidationError, match="max_iterations must be >= 1, got 0"):
        kmeans(GROUPED, GROUPED_WEIGHTS, k=2, max_iterations=0)
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


@pytest.mark.parametrize("coords", _not_finite_n_by_2_floats(GROUPED))
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda coords: kmeans(coords, GROUPED_WEIGHTS, k=2), id="kmeans"),
        pytest.param(lambda coords: weighted_center(coords, GROUPED_WEIGHTS), id="weighted_center"),
    ],
)
def test_entry_points_reject_coords_that_are_not_finite_n_by_2_floats(call, coords):
    with pytest.raises(ValidationError, match="coords must be"):
        call(coords)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-60.0, max_value=60.0),
            st.floats(min_value=-90.0, max_value=90.0),
        ),
        min_size=2,
        max_size=12,
    ),
    st.data(),
)
def test_kmeans_always_yields_full_partition(latlon, data):
    points = [from_degrees(lat, lon) for lat, lon in latlon]
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.5, max_value=1.0),
            min_size=len(points),
            max_size=len(points),
        )
    )
    k = data.draw(st.integers(min_value=1, max_value=len(points)))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    result = kmeans(coords_array(points), weights, k=k, seed=seed)
    assert isinstance(result, ClusteringResult)
    assert result.labels.size == len(points)
    counts = np.bincount(result.labels, minlength=k)
    assert counts.min() >= 1
    assert 1 <= result.iterations <= 300
    assert result.objective >= 0.0


# --- batches of runs ---


def reference_run(matrix, coords, weights, k, metric, seed, max_iterations):
    """One seeded k-means run as a plain loop over the reference seeding, the
    metric's own argmin and the per-cluster centers above."""
    centers = coords[reference_kmeanspp(coords, k, metric, SplitMix64(seed))]
    labels = None
    for iteration in range(1, max_iterations + 1):
        dist = metric.pairwise(coords, centers)
        new_labels = dist.argmin(axis=1)
        if np.bincount(new_labels, minlength=k).min() == 0:
            _repair_empty_clusters(matrix, dist, new_labels)
        if labels is not None and np.array_equal(new_labels, labels):
            return centers, new_labels, iteration, True
        labels = new_labels
        centers = reference_centers(coords, weights, labels, k)
    return centers, labels, max_iterations, False


def same_run(a, b):
    return (
        a[0].tobytes() == b[0].tobytes()
        and np.array_equal(a[1], b[1])
        and a[2] == b[2]
        and a[3] == b[3]
    )


@st.composite
def _batch_cases(draw):
    """Points jittered about a few blob centers, some across ±180° and some
    jitter-free (exact duplicates, so seeding can fall back to a uniform draw
    and assignment can empty a cluster), with a k, weights and run seeds."""
    lon = st.one_of(st.sampled_from([179.95, -179.95, 180.0]), st.floats(-180.0, 180.0))
    blobs = draw(st.lists(st.tuples(st.floats(-80.0, 80.0), lon), min_size=1, max_size=4))
    spreads = draw(st.sampled_from([(0.0,), (0.0, 0.02, 0.5), (0.02, 0.5)]))
    points = []
    for _ in range(draw(st.integers(1, 24))):
        lat, lon = blobs[draw(st.integers(0, len(blobs) - 1))]
        spread = draw(st.sampled_from(spreads))
        dlat, dlon = draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
        points.append(from_degrees(lat + spread * dlat, lon + spread * dlon))
    n = len(points)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    k = draw(st.integers(1, min(n, 8)))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=7))
    max_iterations = draw(st.sampled_from([1, 2, 3, DEFAULT_MAX_ITERATIONS]))
    metric = draw(st.sampled_from([HaversineMetric(), PlanarMetric()]))
    return coords_array(points), weights, k, metric, seeds, max_iterations


@settings(max_examples=150)
@given(_batch_cases(), st.data())
def test_each_run_of_a_batch_is_the_run_alone(case, data):
    coords, weights, k, metric, seeds, max_iterations = case
    matrix = _distance_matrix(coords, metric)
    args = (matrix, coords, weights, k, metric)
    alone = [_kmeans_batch(*args, [seed], max_iterations)[0] for seed in seeds]
    for seed, run in zip(seeds, alone):
        assert same_run(run, reference_run(*args, seed, max_iterations))
    whole = _kmeans_batch(*args, seeds, max_iterations)
    per_batch = data.draw(st.integers(1, len(seeds)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_BATCH_ELEMENTS", per_batch * coords.shape[0] * k)
        chunked = _kmeans_batch(*args, seeds, max_iterations)
    for runs in (whole, chunked):
        assert len(runs) == len(seeds)
        assert all(same_run(got, want) for got, want in zip(runs, alone))


def test_batch_scratch_does_not_grow_with_the_number_of_runs(monkeypatch):
    coords = whole_sphere_coords(52, seed=12)
    n, k = coords.shape[0], 4
    asked = []
    assigner = HaversineMetric.assigner

    def recording(self, coords, runs, k):
        asked.append(runs)
        return assigner(self, coords, runs, k)

    monkeypatch.setattr(HaversineMetric, "assigner", recording)
    monkeypatch.setattr(clustering, "_BATCH_ELEMENTS", 3 * n * k + 1)
    matrix = _distance_matrix(coords, HaversineMetric())
    weights = np.ones(n)
    for runs in (1, 2, 3, 10, 100):
        _kmeans_batch(matrix, coords, weights, k, HaversineMetric(), list(range(runs)), 5)
    assert asked == [1, 2, 3, 3, 3]


# --- objective ---


def test_objective_one_degree_reference():
    # One point half-weighted at one degree of arc from its center:
    # 0.5 * (6371 * pi / 180)^2, oracle-computed.
    points = coords_array([from_degrees(1.0, 0.0)])
    centers = coords_array([from_degrees(0.0, 0.0)])
    value = _objective_core(points, np.array([0.5]), centers, np.array([0]), HaversineMetric())
    assert value == pytest.approx(6182.1558557444, abs=1e-6)
    assert value == pytest.approx(0.5 * ONE_DEG_KM**2, rel=1e-12)


def test_objective_is_linear_in_weights():
    labels = np.array([0, 0, 0, 1, 1, 1])
    points = coords_array(GROUPED_POINTS)
    centers = coords_array([from_degrees(1.30, 103.80), from_degrees(2.20, 103.80)])
    weights = np.array(GROUPED_WEIGHTS)
    base = _objective_core(points, weights, centers, labels, HaversineMetric())
    tripled = _objective_core(points, 3.0 * weights, centers, labels, HaversineMetric())
    assert tripled == pytest.approx(3.0 * base, rel=1e-12)
