"""Weighted k-means over a pluggable distance metric.

Centers are seeded with k-means++ (selection probability proportional to
squared distance from the nearest chosen center) and updated as weighted
per-coordinate means of (lat, lon) in radians, with each longitude first
unwrapped to within pi of its cluster's lowest-index member so a cluster
across the antimeridian is averaged there. Each point is assigned to
its metric-nearest center (`DistanceMetric.assign`); the haversine metric
finds it from unit-vector dot products and recomputes true distances only
for near-ties, with the same result. Weights enter only the centroid update
and the reported objective. The whole computation is a pure function of its
inputs and the seed, so identical calls produce bit-identical results.

Seeding and empty-cluster repair only ever need distances from data points
to data points, so they read rows of the full pairwise matrix
(`_distance_matrix`) that the caller builds once and shares across runs.
The matrix is bitwise symmetric, so a row is exactly the column a direct
metric call would return.

Points, centers and labels travel as arrays: coordinates are (n, 2)
[lat, lon] radian arrays, centers (k, 2) arrays of the same form, and a
partition is one label per point in [0, k).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import EmptyClusterError, ValidationError
from .geo import EARTH, EarthModel, haversine_km
from .rng import SplitMix64

DEFAULT_MAX_ITERATIONS = 300

# Rows of the distance matrix computed per metric call; bounds the scratch
# arrays of one call to O(_MATRIX_BLOCK_ROWS * n).
_MATRIX_BLOCK_ROWS = 256


# Absolute margin on unit-vector dot products within which two centers count
# as tied for nearest; HaversineMetric.assign derives why it is safe.
_DOT_TIE_MARGIN = 1e-13


def _unit_vectors(coords: np.ndarray) -> np.ndarray:
    """(n, 3) points on the unit sphere for an (n, 2) [lat, lon] radian array."""
    cos_lat = np.cos(coords[:, 0])
    return np.column_stack(
        [cos_lat * np.cos(coords[:, 1]), cos_lat * np.sin(coords[:, 1]), np.sin(coords[:, 0])]
    )


class DistanceMetric(ABC):
    """Symmetric, non-negative distance between points given as radians."""

    @abstractmethod
    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix of shape (len(a), len(b)) for (n, 2) coordinate arrays."""

    @abstractmethod
    def between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-aligned distances for two (n, 2) coordinate arrays."""

    def assign(self, coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Index of each point's nearest center, ties to the lowest index."""
        return self.pairwise(coords, centers).argmin(axis=1)


@dataclass(frozen=True)
class HaversineMetric(DistanceMetric):
    """Great-circle distance in km on a spherical Earth (the default metric)."""

    earth: EarthModel = EARTH

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return haversine_km(
            a[:, 0][:, None], a[:, 1][:, None], b[:, 0][None, :], b[:, 1][None, :],
            radius_km=self.earth.radius_km,
        )

    def between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return haversine_km(a[:, 0], a[:, 1], b[:, 0], b[:, 1], radius_km=self.earth.radius_km)

    def assign(self, coords: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Nearest center of each point, equal to `pairwise(...).argmin(axis=1)`.

        The great-circle angle falls as cos(angle) = dot of the unit vectors
        rises, so the nearest center is the argmax of D = U @ C.T. A row is
        recomputed by `pairwise`, whose argmin breaks ties to the lowest
        index, when a second center's dot lies within T = _DOT_TIE_MARGIN of
        the row's best, or when the best dot is negative (nearest center over
        90 degrees away). Every other row has one center j with D_j >= 0 and
        D_i < D_j - T for all i != j, and haversine ranks j strictly first:

        - Dot rounding. With u = 2**-53, each unit-vector component is a
          product of at most two rounded sines and cosines, and the dot adds
          three rounded terms, so |D_i - cos(angle_i)| <= eps_dot <= 10u,
          about 1.1e-15.
        - Angle gap. D_j - D_i > T gives cos(angle_j) - cos(angle_i) >
          T - 2*eps_dot, and |d cos(a)/da| = |sin(a)| <= 1, so
          angle_i - angle_j > T - 2*eps_dot too, about 1e-13.
        - Haversine rounding. h = sin^2(dlat/2) + cos*cos*sin^2(dlon/2) is
          a sum of two non-negative terms, so it carries a relative error
          of a few u. Up to 90 degrees, 1 - h >= 1/2 keeps that relative
          too, and atan2(sqrt(h), sqrt(1 - h)) is within a few ulp of pi/2
          of the exact half angle: eps_hav ~ 1e-15 on the distance in
          radians. D_j >= 0 puts the winner there (to within eps_dot).
          Beyond 90 degrees 1 - h cancels and the angle can be off by
          sqrt(u) ~ 1e-8, which is why those rows fall back.
        - Result. A loser up to 90 degrees (+ T) comes out at least
          T - 2*eps_dot - 2*eps_hav > 0.9 T farther than j; one beyond has
          h > 1/2 + T/4, so it comes out past 90 degrees by about T/2, while
          j is at most eps_dot + eps_hav past it. The margin is ~50x the
          rounding, and scaling by the radius is monotone, so the distance
          argmin is j and unique.
        """
        dots = _unit_vectors(coords) @ _unit_vectors(centers).T
        labels = dots.argmax(axis=1)
        best = dots[np.arange(labels.size), labels]
        near_tie = np.count_nonzero(dots >= (best - _DOT_TIE_MARGIN)[:, None], axis=1) > 1
        rows = np.flatnonzero(near_tie | (best < 0.0))
        if rows.size:
            labels[rows] = self.pairwise(coords[rows], centers).argmin(axis=1)
        return labels


@dataclass(frozen=True)
class PlanarMetric(DistanceMetric):
    """Euclidean distance treating (lat, lon) as a plane; oracle/testing metric."""

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a[:, None, :] - b[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))

    def between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        diff = a - b
        return np.sqrt((diff * diff).sum(axis=1))


def _distance_matrix(coords: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Full (n, n) float64 metric matrix of an (n, 2) radian array, filled in
    row blocks. Each entry is the same expression a single broadcast call
    evaluates, so the values are identical; only the scratch is smaller."""
    n = coords.shape[0]
    dist = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, _MATRIX_BLOCK_ROWS):
        stop = start + _MATRIX_BLOCK_ROWS
        dist[start:stop] = metric.pairwise(coords[start:stop], coords)
    return dist


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Converged (or capped) output of one weighted k-means run: (k, 2)
    [lat, lon] radian centers and each point's label in [0, k)."""

    centers: np.ndarray
    labels: np.ndarray
    iterations: int
    converged: bool
    seed: int
    objective: float


def _validate_weights(weights: np.ndarray) -> None:
    if np.any(~np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValidationError("weights must be finite and positive")


def weighted_center(coords: np.ndarray, weights: "list[float] | np.ndarray") -> np.ndarray:
    """Weighted per-coordinate mean of a cluster's (n, 2) [lat, lon] radian
    coordinates, as a (2,) array.

    With equal weights this is the ordinary coordinate mean. Raises
    EmptyClusterError for an empty cluster so the caller can repair it.
    """
    if len(coords) == 0:
        raise EmptyClusterError("cannot take the center of an empty cluster")
    if len(coords) != len(weights):
        raise ValidationError(f"{len(coords)} points but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    _validate_weights(w)
    labels = np.zeros(len(coords), dtype=np.int64)
    return _update_centers(coords, w, w[:, None] * coords, labels, 1)[0]


def _weighted_draw(probabilities: np.ndarray, rng: SplitMix64) -> int:
    cumulative = np.cumsum(probabilities)
    u = rng.random() * float(cumulative[-1])
    idx = int(np.searchsorted(cumulative, u, side="right"))
    return min(idx, probabilities.size - 1)


def _kmeanspp_core(matrix: np.ndarray, k: int, rng: SplitMix64) -> list[int]:
    """Indices of the k seed points, drawn from the (n, n) distance matrix."""
    n = matrix.shape[0]
    nearest = np.full(n, np.inf)
    probabilities: np.ndarray | None = np.full(n, 1.0 / n)
    chosen: list[int] = []
    for _ in range(k):
        if probabilities is None:
            # Every remaining point coincides with a chosen center, so the
            # squared-distance rule is 0/0; fall back to a uniform draw over
            # the indices not yet chosen.
            unchosen = sorted(set(range(n)) - set(chosen))
            idx = unchosen[rng.randrange(len(unchosen))]
        else:
            idx = _weighted_draw(probabilities, rng)
        chosen.append(idx)
        np.minimum(nearest, matrix[idx], out=nearest)
        squared = nearest * nearest
        total = float(squared.sum())
        probabilities = squared / total if total > 0.0 else None
    return chosen


def _repair_empty_clusters(
    matrix: np.ndarray,
    coords: np.ndarray,
    centers: np.ndarray,
    dist: np.ndarray,
    labels: np.ndarray,
) -> bool:
    """Ensure no cluster is empty; mutates centers, dist and labels in place.

    An emptied cluster's center is moved onto the point farthest from it and
    the nearest-center assignment is recomputed. If exact coordinate
    duplicates keep the cluster empty (another center sits on the very same
    point), the farthest point whose donor cluster can spare a member is
    pinned to it instead. Returns True when any label was pinned, i.e. the
    final labels are not a pure argmin of the returned centers.
    """
    k = centers.shape[0]
    pinned: dict[int, int] = {}

    def apply_argmin() -> None:
        labels[:] = dist.argmin(axis=1)
        for point, cluster in pinned.items():
            labels[point] = cluster

    for _ in range(k):
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empties.size == 0:
            break
        j = int(empties[0])
        farthest = int(dist[:, j].argmax())
        centers[j] = coords[farthest]
        dist[:, j] = matrix[farthest]
        apply_argmin()

    counts = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(counts == 0):
        spare = counts[labels] > 1
        for point in pinned:
            spare[point] = False
        column = np.where(spare, dist[:, int(j)], -np.inf)
        point = int(column.argmax())
        # n >= k guarantees some cluster has two members, and pinned points
        # occupy distinct clusters, so an eligible donor always exists.
        assert np.isfinite(column[point])
        labels[point] = int(j)
        pinned[point] = int(j)
        counts = np.bincount(labels, minlength=k)
    return bool(pinned)


def _update_centers(
    coords: np.ndarray,
    weights: np.ndarray,
    weighted: np.ndarray,
    labels: np.ndarray,
    k: int,
) -> np.ndarray:
    """Weighted per-coordinate mean of every cluster, in one pass.

    `weighted` is weights[:, None] * coords. A longitude more than pi from
    its cluster's lowest-index member moves by 2 pi toward it, and each mean
    longitude is folded into (-pi, pi]; other rows keep their bits. The
    results are bitwise those of summing each cluster's own slice: bincount
    adds a cluster's weighted coordinates in ascending point order, as a sum
    over axis 0 does, and the weight totals keep numpy's pairwise sum over
    each cluster's contiguous run of the stably sorted weights.
    """
    counts = np.bincount(labels, minlength=k)
    if not counts.all():
        raise EmptyClusterError(f"cluster {int(counts.argmin())} lost all members")
    order = np.argsort(labels, kind="stable")
    stops = np.cumsum(counts)
    starts = stops - counts
    sorted_weights = weights[order]
    totals = np.array(
        [np.add.reduce(sorted_weights[a:b]) for a, b in zip(starts.tolist(), stops.tolist())]
    )
    offset = coords[:, 1] - coords[order[starts], 1][labels]
    unwrapped = coords[:, 1] - np.copysign(2.0 * np.pi, offset)
    weighted_lon = np.where(np.abs(offset) > np.pi, weights * unwrapped, weighted[:, 1])
    sums = np.column_stack(
        [np.bincount(labels, weights=col, minlength=k) for col in (weighted[:, 0], weighted_lon)]
    )
    centers = sums / totals[:, None]
    lon = centers[:, 1]
    lon[lon > np.pi] -= 2.0 * np.pi
    lon[lon <= -np.pi] += 2.0 * np.pi
    return centers


def _kmeans_core(
    matrix: np.ndarray,
    coords: np.ndarray,
    weights: np.ndarray,
    k: int,
    metric: DistanceMetric,
    seed: int,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """One seeded run; `matrix` is `_distance_matrix(coords, metric)`."""
    centers = coords[_kmeanspp_core(matrix, k, SplitMix64(seed))]
    weighted = weights[:, None] * coords
    labels: np.ndarray | None = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_labels = metric.assign(coords, centers)
        # Any repair (center relocation or pinned label) makes this pass
        # incomparable with the previous one, so it cannot declare convergence.
        repaired = int(np.bincount(new_labels, minlength=k).min()) == 0
        if repaired:
            dist = metric.pairwise(coords, centers)
            _repair_empty_clusters(matrix, coords, centers, dist, new_labels)
        if labels is not None and not repaired and np.array_equal(new_labels, labels):
            converged = True
            labels = new_labels
            break
        labels = new_labels
        centers = _update_centers(coords, weights, weighted, labels, k)
    assert labels is not None
    return centers, labels, iterations, converged


def kmeans(
    coords: np.ndarray,
    weights: "list[float] | np.ndarray",
    k: int,
    metric: DistanceMetric | None = None,
    seed: int = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ClusteringResult:
    """Cluster an (n, 2) [lat, lon] radian array into k groups by alternating
    assignment and weighted means.

    Points are assigned to the metric-nearest center (ties to the lowest
    center index); centers are recomputed as weighted coordinate means.
    Stops once an assignment pass leaves the labels unchanged, or after
    max_iterations with converged=False. Builds the full pairwise distance
    matrix for seeding and repair, 8 * n^2 bytes (18 MB at n = 1500).
    """
    metric = metric if metric is not None else HaversineMetric()
    n = len(coords)
    if n == 0:
        raise ValidationError("cannot cluster zero points")
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    if len(weights) != n:
        raise ValidationError(f"{n} points but {len(weights)} weights")
    if max_iterations < 1:
        raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
    w = np.asarray(weights, dtype=np.float64)
    _validate_weights(w)
    centers, labels, iterations, converged = _kmeans_core(
        _distance_matrix(coords, metric), coords, w, k, metric, seed, max_iterations
    )
    return ClusteringResult(
        centers=centers,
        labels=labels,
        iterations=iterations,
        converged=converged,
        seed=seed,
        objective=_objective_core(coords, w, centers, labels, metric),
    )


def _objective_core(
    coords: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    metric: DistanceMetric,
) -> float:
    d = metric.between(coords, centers[labels])
    return float((weights * d * d).sum())

