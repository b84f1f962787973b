"""Acceptance suite: one test per shipping criterion.

Each criterion is a single test function so the summary hook in conftest can
print one pass/fail line per criterion. Oracles are arbitrary-precision
(mpmath at 50 digits) or exhaustive enumeration, never the code under test.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from mpmath import mp

from sitepick.cli import main
from sitepick.clustering import (
    PlanarMetric,
    _distance_matrix,
    _kmeanspp_core,
    kmeans,
    weighted_center,
)
from sitepick.geo import coords_array, from_degrees, haversine, haversine_km
from sitepick.io_pipeline import Quadrant, build_weighted_points, parse_responses
from sitepick.model_selection import dunn_index, sweep
from sitepick.rng import SplitMix64, derive_seed
from sitepick.weighting import reliability_auc, reliability_weight, reliability_weights

mp.dps = 50


def oracle_haversine_km(p, q):
    """Great-circle km at 50 significant digits from exact float inputs."""
    lat1, lon1 = mp.mpf(p.lat), mp.mpf(p.lon)
    lat2, lon2 = mp.mpf(q.lat), mp.mpf(q.lon)
    h = mp.sin((lat2 - lat1) / 2) ** 2 + mp.cos(lat1) * mp.cos(lat2) * mp.sin(
        (lon2 - lon1) / 2
    ) ** 2
    return float(2 * 6371 * mp.atan2(mp.sqrt(h), mp.sqrt(1 - h)))


def test_criterion_1():
    """Distance agrees with an arbitrary-precision oracle to 1e-9 km."""
    start = time.perf_counter()
    anchors = [
        ((1.291598203, 103.8465300), (1.3521, 103.8198), 7.354500074369403),
        ((40.0, -74.0), (51.5, -0.12), 5620.488888398879),
        ((-33.9, 151.2), (35.7, 139.7), 7830.902563722033),
        ((89.9, 10.0), (-89.9, -170.0), 20015.086796020572),
    ]
    for (a_deg, b_deg, frozen) in anchors:
        p, q = from_degrees(*a_deg), from_degrees(*b_deg)
        assert abs(haversine(p, q) - frozen) < 1e-9
        assert abs(haversine(p, q) - oracle_haversine_km(p, q)) < 1e-9

    rng = SplitMix64(2024)
    for _ in range(1000):
        p = from_degrees(-89.9 + 179.8 * rng.random(), -180.0 + 360.0 * rng.random())
        q = from_degrees(-89.9 + 179.8 * rng.random(), -180.0 + 360.0 * rng.random())
        got = haversine(p, q)
        want = oracle_haversine_km(p, q)
        assert abs(got - want) < 1e-9, (p, q, got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2():
    """Weights sit in [0.5, 1], increase with frequency*duration, hit anchors."""
    start = time.perf_counter()
    assert reliability_weight(1, 0.0) == 0.5
    assert abs(reliability_weight(1, 1.0) - 0.7310585786300049) < 1e-12
    assert abs(reliability_weight(2, 0.5) - 0.7310585786300049) < 1e-12
    assert reliability_weight(4, 240.0) == 1.0

    draws = 1_000_000
    gen = np.random.default_rng(2024)
    f = gen.integers(1, 5, size=draws)
    t = gen.uniform(0.0, 8.0, size=draws)
    w = reliability_weights(f, t)
    u = f * t
    assert np.all(w >= 0.5)
    assert np.all(w <= 1.0)
    assert np.all(w[u >= 1e-9] > 0.5)
    assert np.all(w[u <= 25.0] < 1.0)

    order = np.argsort(u, kind="stable")
    u_sorted, w_sorted = u[order], w[order]
    # Never decreasing beyond one floating rounding step...
    assert np.all(np.diff(w_sorted) >= -2.3e-16)
    # ...and strictly increasing wherever the sigmoid can resolve the gap.
    resolvable = (np.diff(u_sorted) >= 1e-3) & (u_sorted[1:] <= 25.0)
    assert np.all(np.diff(w_sorted)[resolvable] > 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_3():
    """Second seeding draw follows the squared-distance law (4/5 vs 1/5)."""
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    matrix = _distance_matrix(coords, PlanarMetric())
    target = 100_000
    conditioned = 0
    far = 0
    seed = 0
    while conditioned < target:
        chosen = _kmeanspp_core(matrix, 2, SplitMix64(seed))
        seed += 1
        if chosen[0] == 0:
            conditioned += 1
            far += chosen[1] == 2
    frequency = far / conditioned
    assert abs(frequency - 0.8) < 0.01, f"got {frequency:.5f} over {conditioned} draws"


def exhaustive_min_objective(coords, weights, k):
    """Global minimum of the weighted objective over every surjective labelling."""
    n = coords.shape[0]
    labelings = np.array(list(itertools.product(range(k), repeat=n)))
    surjective = (labelings[:, :, None] == np.arange(k)).any(axis=1).all(axis=1)
    labelings = labelings[surjective]
    m = labelings.shape[0]
    onehot = np.eye(k)[labelings]  # (m, n, k)
    wsum = np.einsum("mnk,n->mk", onehot, weights)
    wcoords = weights[:, None] * coords
    centers = np.einsum("mnk,nc->mkc", onehot, wcoords) / wsum[..., None]
    assigned = centers[np.arange(m)[:, None], labelings]  # (m, n, 2)
    d = haversine_km(coords[:, 0], coords[:, 1], assigned[:, :, 0], assigned[:, :, 1])
    return float((weights * d * d).sum(axis=1).min())


def random_blob_instance(case):
    rng = SplitMix64(derive_seed(999, case))
    k = 2 + rng.randrange(2)
    n = k + 2 + rng.randrange(7 - k)
    blob_centers = []
    while len(blob_centers) < k:
        candidate = (
            1.35 + 3.0 * (rng.random() - 0.5),
            103.82 + 3.0 * (rng.random() - 0.5),
        )
        if all(
            math.hypot(candidate[0] - c[0], candidate[1] - c[1]) >= 0.7
            for c in blob_centers
        ):
            blob_centers.append(candidate)
    points = []
    for i in range(n):
        lat, lon = blob_centers[i % k]
        points.append(
            from_degrees(
                lat + 0.008 * (rng.random() - 0.5), lon + 0.008 * (rng.random() - 0.5)
            )
        )
    weights = [(4 + rng.randrange(5)) / 8 for _ in range(n)]
    return points, weights, k


def test_criterion_4():
    """Best-of-20 clustering reaches the enumerated optimum on small inputs,
    and fractional weights behave exactly like replicated points."""
    start = time.perf_counter()
    cases = 50
    matched = 0
    for case in range(cases):
        points, weights, k = random_blob_instance(case)
        coords = np.array([[p.lat, p.lon] for p in points])
        optimum = exhaustive_min_objective(coords, np.array(weights), k)
        best = min(
            kmeans(coords, weights, k=k, seed=seed).objective for seed in range(20)
        )
        if best <= optimum * (1.0 + 1e-9) + 1e-12:
            matched += 1

        # Same instance, weights m/8 expanded into m unweighted copies.
        replicated = []
        for point, weight in zip(points, weights):
            replicated.extend([point] * int(round(weight * 8)))
        fractional = weighted_center(coords_array(points), weights)
        expanded = weighted_center(coords_array(replicated), [1.0] * len(replicated))
        assert abs(fractional[0] - expanded[0]) <= 1e-12
        assert abs(fractional[1] - expanded[1]) <= 1e-12

    assert matched >= math.ceil(0.95 * cases), f"only {matched}/{cases} optimal"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


def test_criterion_5():
    """Dunn index reproduces the worked ratio and ignores labels and order."""
    points = [
        from_degrees(0.00, 0.0),
        from_degrees(0.01, 0.0),
        from_degrees(1.00, 0.0),
        from_degrees(1.01, 0.0),
    ]
    score = dunn_index(coords_array(points), np.array([0, 0, 1, 1]))
    assert abs(score.value - 99.0) <= 99.0 * 0.001

    grid = [from_degrees(0.03 * i + 0.001 * (i % 5), 0.02 * (i * i % 11)) for i in range(24)]
    n = len(grid)
    for trial in range(100):
        rng = SplitMix64(derive_seed(55, trial))
        k = 2 + rng.randrange(4)
        labels = [rng.randrange(k) for _ in range(n)]
        labels[0], labels[1], labels[2] = 0, 0, 1
        base = dunn_index(coords_array(grid), np.array(labels))

        mapping = list(range(k))
        for i in range(k - 1, 0, -1):  # Fisher-Yates
            j = rng.randrange(i + 1)
            mapping[i], mapping[j] = mapping[j], mapping[i]
        relabeled = dunn_index(coords_array(grid), np.array([mapping[v] for v in labels]))
        assert relabeled == base

        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = rng.randrange(i + 1)
            order[i], order[j] = order[j], order[i]
        reordered = dunn_index(
            coords_array([grid[i] for i in order]), np.array([labels[i] for i in order])
        )
        assert reordered == base


def test_criterion_6(tmp_path):
    """The full sweep pipeline is byte-stable across reruns and worker counts."""
    survey = tmp_path / "survey.csv"
    assert main(["synth", "-o", str(survey), "--blobs", "3", "--per-blob", "6",
                 "--quadrant", "A", "--quadrant", "B", "--seed", "13"]) == 0
    runs = [
        (tmp_path / "first", "1"),
        (tmp_path / "again", "1"),
        (tmp_path / "fanned", "3"),
    ]
    for out_dir, workers in runs:
        code = main(["sweep", str(survey), "-o", str(out_dir),
                     "--runs-per-k", "4", "--workers", workers])
        assert code == 0
    reference = runs[0][0]
    names = sorted(p.name for p in reference.iterdir())
    assert "manifest.json" in names and "clusters_A.geojson" in names
    for out_dir, _ in runs[1:]:
        assert sorted(p.name for p in out_dir.iterdir()) == names
        for name in names:
            assert (out_dir / name).read_bytes() == (reference / name).read_bytes(), name


FULL_SCALE_EXPECTED = {
    "A": (0.91, 15, 0.181),
    "B": (0.81, 14, 0.144),
    "C": (0.89, 15, 0.136),
    "D": (0.70, 18, 0.084),
}


@pytest.mark.skipif(
    "SITEPICK_SURVEY_CSV" not in os.environ,
    reason="set SITEPICK_SURVEY_CSV to the survey CSV to run the full-scale check",
)
def test_criterion_7():
    """Full-scale survey reproduces the reference AUC, cluster counts and Dunn values."""
    data = open(os.environ["SITEPICK_SURVEY_CSV"], "rb").read()
    parsed = parse_responses(data)
    assert parsed.accepted > 0
    for letter, (want_auc, want_k, want_dunn) in FULL_SCALE_EXPECTED.items():
        quadrant = Quadrant.from_token(letter)
        weighted = build_weighted_points(parsed.responses, quadrant)
        auc = reliability_auc(weighted.weights)
        assert abs(auc - want_auc) <= 0.01, f"{letter}: auc {auc:.4f} vs {want_auc}"
        result = sweep(
            weighted.coords,
            weighted.weights,
            k_range=range(2, 21),
            runs_per_k=100,
            base_seed=0,
            workers=os.cpu_count() or 1,
        )
        best = result.best
        assert abs(result.optimal_k - want_k) <= 1, (
            f"{letter}: k {result.optimal_k} vs {want_k}"
        )
        assert abs(best.dunn.value - want_dunn) <= 0.02, (
            f"{letter}: dunn {best.dunn.value:.4f} vs {want_dunn}"
        )


def test_criterion_8(tmp_path):
    """Every recommended site is verbatim one of the surveyed coordinates."""
    setups = [
        ("--seed", "1", "--blobs", "3", "--per-blob", "7", "--spread-km", "0.8",
         "--quadrant", "A", "--quadrant", "C"),
        ("--seed", "9", "--blobs", "4", "--per-blob", "6", "--spread-km", "1.5",
         "--quadrant", "B"),
        ("--seed", "23", "--blobs", "2", "--per-blob", "9", "--spread-km", "0.3",
         "--quadrant", "D"),
    ]
    for run, setup in enumerate(setups):
        survey = tmp_path / f"survey{run}.csv"
        out = tmp_path / f"out{run}"
        assert main(["synth", "-o", str(survey), *setup]) == 0
        assert main(["sweep", str(survey), "-o", str(out), "--runs-per-k", "5"]) == 0

        parsed = parse_responses(survey.read_bytes())
        by_letter = {}
        for response in parsed.responses:
            by_letter.setdefault(response.quadrant.letter, set()).add(
                (response.lat_deg, response.lon_deg)
            )
        for sites_csv in out.glob("sites_*.csv"):
            letter = sites_csv.stem.split("_")[1]
            surveyed = by_letter[letter]
            lines = sites_csv.read_text(encoding="utf-8").splitlines()[1:]
            assert lines
            for line in lines:
                _, _, lat_text, lon_text, _ = line.split(",")
                assert (float(lat_text), float(lon_text)) in surveyed, line
        for geojson in out.glob("clusters_*.geojson"):
            letter = geojson.stem.split("_")[1]
            surveyed = by_letter[letter]
            for feature in json.loads(geojson.read_bytes())["features"]:
                if feature["properties"]["role"] != "site":
                    continue
                lon, lat = feature["geometry"]["coordinates"]
                assert (lat, lon) in surveyed
