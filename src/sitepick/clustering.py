"""Weighted k-means over a pluggable distance metric.

Centers are seeded with k-means++ (selection probability proportional to
squared distance from the nearest chosen center) and updated as weighted
per-coordinate means of (lat, lon) in radians, with each longitude first
unwrapped to within pi of its cluster's lowest-index member so a cluster
across the antimeridian is averaged there. Each point is assigned to
its metric-nearest center (`DistanceMetric.assigner`); the haversine metric
finds it from unit-vector dot products and recomputes true distances only
for near-ties, with the same result. Weights enter only the centroid update
and the reported objective. The whole computation is a pure function of its
inputs and the seed, so identical calls produce bit-identical results.

Seeding and empty-cluster repair only ever need distances from data points
to data points, so they read rows of the full pairwise matrix
(`_distance_matrix`) that the caller builds once and shares across runs.
The matrix is bitwise symmetric, so a row is exactly the column a direct
metric call would return. Repair moves labels only, and a pass whose labels
equal the previous pass's is a fixed point and converges, repaired or not.

Restarts of one k run as a batch (`_kmeans_batch`): seeding, assignment and
center update each take all of the batch's runs in one array operation, and
every run's result is bitwise the one it gives alone, as a batch of one.
Seeding draws every run's k random numbers up front, as one table of its
generator's next outputs. Each pass's update recomputes only the clusters
some point entered or left since the pass before, where the first pass
counts every point as moved; every other cluster keeps its center, which
the same members would give again bit for bit.

Points, centers and labels travel as arrays: coordinates are (n, 2)
[lat, lon] radian arrays, centers (k, 2) arrays of the same form, and a
partition is one integer label per point in [0, k).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyClusterError, ValidationError
from .geo import EARTH, EarthModel, haversine_km
from .rng import SplitMix64, next_u64_table

DEFAULT_MAX_ITERATIONS = 300

# Rows of the distance matrix computed per metric call, and of a diameter
# block Dunn scoring gathers at a time: no temporary of either holds more
# than _MATRIX_BLOCK_ROWS * n float64 values, so building the matrix takes
# 8 n^2 bytes + O(block * n) scratch. At n = 6000, 64 rows built it about
# as fast as 32, with half the Python iterations, and faster than 128 or 256.
_MATRIX_BLOCK_ROWS = 64


# Elements of the (runs, k, n) float64 nearest-center scratch of one batch of
# k-means runs (`HaversineMetric.assigner`): at most 8 * 2**18 bytes = 2 MB
# whatever the number of runs. A batch holds _BATCH_ELEMENTS // (n * k) runs,
# and at least one.
_BATCH_ELEMENTS = 2**18


# Relative slack of the triangle inequality between computed distances; see
# DistanceMetric.triangle_slack and HaversineMetric.triangle_slack.
TRIANGLE_FACTOR = 1.0 + 1e-6


# Absolute margin on unit-vector dot products within which two centers count
# as tied for nearest; HaversineMetric.assigner derives why it is safe.
_DOT_TIE_MARGIN = 1e-13


def _unit_vectors(coords: np.ndarray) -> np.ndarray:
    """(n, 3) points on the unit sphere for an (n, 2) [lat, lon] radian array."""
    cos_lat = np.cos(coords[:, 0])
    return np.column_stack(
        [cos_lat * np.cos(coords[:, 1]), cos_lat * np.sin(coords[:, 1]), np.sin(coords[:, 0])]
    )


class DistanceMetric(ABC):
    """Symmetric, non-negative distance between points given as radians: the
    `pairwise` matrix, and an `assigner` for nearest-center labels, which
    defaults to the `pairwise` argmin; an override must give the same labels.

    Dunn scoring skips the matrix entries the triangle inequality rules out,
    and trusts it for computed entries only as far as `triangle_slack` says.
    """

    @property
    def triangle_slack(self) -> float:
        """Absolute slack A such that computed `pairwise` entries satisfy
        d(i, j) <= (d(a, i) + d(a, j)) * TRIANGLE_FACTOR + A for any points
        a, i and j. Infinite, which promises nothing, unless a metric
        derives a bound."""
        return math.inf

    @abstractmethod
    def pairwise(
        self, a: np.ndarray, b: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Distance matrix of shape (len(a), len(b)) for (n, 2) coordinate
        arrays, written into `out` when it is given, a float64 array of that
        shape, and returned. Scratch beyond `out` stays O(len(a) * len(b))
        float64 values, whatever `out` is."""

    def assigner(
        self, coords: np.ndarray, runs: int, k: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """A function from an (R, k, 2) array of R <= runs center sets to the
        (R, n) nearest-center labels of `coords`, ties to the lowest index.
        Scratch the batch needs is allocated here, once."""
        return lambda centers: np.stack([self.pairwise(coords, c).argmin(axis=1) for c in centers])


@dataclass(frozen=True)
class HaversineMetric(DistanceMetric):
    """Great-circle distance in km on a spherical Earth (the default metric)."""

    earth: EarthModel = EARTH

    @property
    def triangle_slack(self) -> float:
        """1e-12 * radius: computed great-circle distances keep the triangle
        inequality to within TRIANGLE_FACTOR and that.

        Write d~ = d (1 + rho) + alpha for a computed entry and its exact
        value d, u = 2**-53 and R the radius. `haversine_km` takes
        psi = atan2(sqrt(h), sqrt(1 - h)), d = 2 R psi, with
        h = sin^2(dlat/2) + cos cos sin^2(dlon/2):

        - Latitudes lie in [-pi/2, pi/2], so dlat is exact or off by a
          relative u, and sin(dlat/2) by a few u. Each term of h is a product
          of non-negative factors, so h carries a relative error of a few u.
        - Longitudes near +pi and -pi make dlon near 2 pi for two close
          points: its rounding, up to 2 pi u, is absolute. It moves sqrt(h)
          by at most pi u, and psi by at most sqrt(2) pi u while 1 - h >= 1/2.
          Up to 90 degrees, then, |alpha| <= 2 sqrt(2) pi u R ~ 1e-15 R, and
          rho is a few u. Three points 1e-15 R apart across the antimeridian
          break the plain triangle inequality by 78%, so no relative slack
          alone would do.
        - Beyond 90 degrees 1 - h cancels: an absolute error of about 10 u
          in h moves sqrt(1 - h) by up to sqrt(10 u) ~ 3.3e-8, and psi by up
          to sqrt(2) times that. Against psi >= pi/4 that is a relative
          rho <= 6e-8. Near antipodes the measured excess stays below 1e-8.
        - Values below 2**-1022 lose relative precision; that adds at most
          sqrt(2**-1074) ~ 2e-162 to sqrt(h), well inside alpha.

        The exact distances obey the triangle inequality, so with
        |rho| <= 1e-7 and |alpha| <= 1e-15 R:
        d~(i, j) <= (1 + rho) (d(a, i) + d(a, j)) + alpha
                 <= (1 + 3 rho) (d~(a, i) + d~(a, j)) + 4 alpha.
        TRIANGLE_FACTOR covers 3 rho and the rounding of the comparisons
        that apply it three times over, and 1e-12 R covers 4 alpha 250
        times over. A distance of a few 1e-12 R is below a micrometre on the
        Earth, so the slack costs no pruning on any survey.
        """
        return 1e-12 * self.earth.radius_km

    def pairwise(
        self, a: np.ndarray, b: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        return haversine_km(
            a[:, 0][:, None], a[:, 1][:, None], b[:, 0][None, :], b[:, 1][None, :],
            radius_km=self.earth.radius_km, out=out,
        )

    def assigner(
        self, coords: np.ndarray, runs: int, k: int
    ) -> Callable[[np.ndarray], np.ndarray]:
        """Nearest centers equal to `pairwise(...).argmin(axis=1)` per center set.

        The great-circle angle falls as cos(angle) = dot of the unit vectors
        rises, so the nearest center is the argmax of D = C @ U.T. The point
        vectors U are computed once per batch, and D for every center set
        goes into one (runs, k, n) buffer. A point is recomputed by
        `pairwise`, whose argmin breaks ties to the lowest index, when a
        second center's dot lies within T = _DOT_TIE_MARGIN of its best, or
        when the best dot is negative (nearest center over 90 degrees away).
        Every other point has one center j with D_j >= 0 and D_i < D_j - T
        for all i != j, and haversine ranks j strictly first:

        - Dot rounding. With u = 2**-53, each unit-vector component is a
          product of at most two rounded sines and cosines, and the dot adds
          three rounded products (fused or not, in any order, as BLAS
          chooses), so |D_i - cos(angle_i)| <= eps_dot <= 10u, about
          1.1e-15.
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
          sqrt(u) ~ 1e-8, which is why those points fall back.
        - Result. A loser up to 90 degrees (+ T) comes out at least
          T - 2*eps_dot - 2*eps_hav > 0.9 T farther than j; one beyond has
          h > 1/2 + T/4, so it comes out past 90 degrees by about T/2, while
          j is at most eps_dot + eps_hav past it. The margin is ~50x the
          rounding, and scaling by the radius is monotone, so the distance
          argmin is j and unique.

        So the labels do not depend on how D is rounded, only on that bound.
        The buffer is overwritten with the 0/1 mask D >= max(D) - T, and one
        product with [1, ..., 1] and [0, 1, ..., k - 1] gives each point's
        count of near-best centers and, where that count is 1, the index of
        its only one; both are exact small integers.

        The stacked matmul makes one (k, 3) @ (3, n) BLAS call per center
        set. A single (n, 3) @ (3, R*k) product for the batch would cross
        OpenBLAS's threading threshold: at n = 335, R*k = 600 it took 16 ms
        against 0.1 ms for the stacked form with two such processes on
        2 CPUs.
        """
        points = _unit_vectors(coords).T.copy()
        dots = np.empty((runs, k, len(coords)))
        count_and_index = np.vstack([np.ones(k), np.arange(k)])

        def assign(centers: np.ndarray) -> np.ndarray:
            batch = dots[: len(centers)]
            np.matmul(_unit_vectors(centers.reshape(-1, 2)).reshape(-1, k, 3), points, out=batch)
            best = batch.max(axis=1)
            np.greater_equal(batch, (best - _DOT_TIE_MARGIN)[:, None, :], out=batch)
            near, index = np.moveaxis(np.matmul(count_and_index, batch), 1, 0)
            labels = index.astype(np.intp)
            redo = (near > 1.0) | (best < 0.0)
            for run in np.flatnonzero(redo.any(axis=1)):
                rows = np.flatnonzero(redo[run])
                labels[run, rows] = self.pairwise(coords[rows], centers[run]).argmin(axis=1)
            return labels

        return assign


@dataclass(frozen=True)
class PlanarMetric(DistanceMetric):
    """Euclidean distance treating (lat, lon) as a plane; oracle/testing metric."""

    @property
    def triangle_slack(self) -> float:
        """1e-150. A difference, square, sum and square root are each off by
        a relative u = 2**-53 at most, so computed entries keep the triangle
        inequality to within a relative few u, far inside TRIANGLE_FACTOR,
        except where squares fall below 2**-1022 and lose relative
        precision: that moves an entry by at most sqrt(3 * 2**-1074), about
        4e-162."""
        return 1e-150

    def pairwise(
        self, a: np.ndarray, b: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        out = np.subtract(a[:, 0][:, None], b[:, 0][None, :], out=out)
        np.multiply(out, out, out=out)
        scratch = np.subtract(a[:, 1][:, None], b[:, 1][None, :])
        np.multiply(scratch, scratch, out=scratch)
        return np.sqrt(np.add(out, scratch, out=out), out=out)


def _distance_matrix(coords: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Full (n, n) float64 metric matrix of an (n, 2) radian array, filled in
    blocks of _MATRIX_BLOCK_ROWS rows. A block's `pairwise` call writes its
    rows from its own first column on straight into the matrix (its `out`),
    and its transpose fills the rows below, so each pair is evaluated once.
    Each entry is the same expression a single broadcast call evaluates,
    which is bitwise symmetric, so the values are identical; only the
    scratch and the work are smaller: 8 n^2 bytes + O(block * n) scratch,
    measured at 0.9 MB beyond the matrix at n = 1500 and 3.1 MB at n = 6000
    for the haversine metric."""
    n = coords.shape[0]
    dist = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, _MATRIX_BLOCK_ROWS):
        stop = start + _MATRIX_BLOCK_ROWS
        metric.pairwise(coords[start:stop], coords[start:], out=dist[start:stop, start:])
        dist[stop:, start:stop] = dist[start:stop, stop:].T
    return dist


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Converged (or capped) output of one weighted k-means run: (k, 2)
    [lat, lon] radian centers and each point's label in [0, k)."""

    centers: np.ndarray
    labels: np.ndarray
    iterations: int
    converged: bool
    objective: float


def _validate_coords(coords: np.ndarray) -> None:
    if not (isinstance(coords, np.ndarray) and coords.dtype == np.float64
            and coords.shape[1:] == (2,)):
        raise ValidationError("coords must be an (n, 2) float64 array of [lat, lon] radians")
    if not np.isfinite(coords).all():
        raise ValidationError("coords must be finite")


def _checked_labels(coords: np.ndarray, labels: "list[int] | np.ndarray") -> np.ndarray:
    """`labels` as an array once coords pass `_validate_coords` and there is
    one integer label per point."""
    _validate_coords(coords)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError("labels must be a flat sequence")
    if labels.size != len(coords):
        raise ValidationError(f"{len(coords)} points but {labels.size} labels")
    if labels.size and labels.dtype.kind not in "iu":
        raise ValidationError(f"labels must be integers, got {labels.dtype}")
    return labels


def _checked_integer(name: str, value: object, least: "int | None" = None) -> int:
    """`value` as an int once it is an integer (a numpy one counts) and, when
    `least` is given, at least `least`."""
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _checked_weights(coords: np.ndarray, weights: "list[float] | np.ndarray") -> np.ndarray:
    """`weights` as float64 once coords pass `_validate_coords` and there is
    one finite, positive weight per point, in a flat sequence."""
    _validate_coords(coords)
    if len(weights) != len(coords):
        raise ValidationError(f"{len(coords)} points but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValidationError("weights must be a flat sequence")
    if not (np.isfinite(w).all() and (w > 0.0).all()):
        raise ValidationError("weights must be finite and positive")
    return w


def weighted_center(coords: np.ndarray, weights: "list[float] | np.ndarray") -> np.ndarray:
    """Weighted per-coordinate mean of a cluster's (n, 2) [lat, lon] radian
    coordinates, as a (2,) array.

    With equal weights this is the ordinary coordinate mean. Raises
    EmptyClusterError for an empty cluster so the caller can repair it.
    """
    w = _checked_weights(coords, weights)
    if len(coords) == 0:
        raise EmptyClusterError("cannot take the center of an empty cluster")
    labels = np.zeros(len(coords), dtype=np.int64)
    unset = np.full((1, 2), np.nan)  # every point moves from label -1, so no old center is kept
    return _update_centers(coords, w, w[:, None] * coords, labels, 1, labels - 1, unset)[0]


def _kmeanspp_batch(matrix: np.ndarray, k: int, rngs: "list[SplitMix64]") -> np.ndarray:
    """(R, k) indices of the seed points of R runs, each drawn with its own
    generator from the (n, n) distance matrix.

    The runs share every array operation. Sums and cumulative sums along a
    row of a C-contiguous array are bitwise numpy's 1-D ones over that row,
    so every run draws the indices it would draw alone. Each step takes
    exactly one `next_u64` of each run's generator, as `random()` or, when
    the run has fallen back to a uniform draw, as `randrange`; so all of a
    run's draws are one row of `next_u64_table`, made before the first step,
    and every generator ends k draws on, as it would drawing one at a time.
    """
    n = matrix.shape[0]
    draws = next_u64_table(rngs, k)
    uniform = (draws >> np.uint64(11)) * 2.0**-53  # what random() makes of each
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    nearest = np.full((len(rngs), n), np.inf)
    probabilities = np.full((len(rngs), n), 1.0 / n)
    flat = np.zeros(len(rngs), dtype=bool)
    for step in range(k):
        if step:
            np.minimum(nearest, matrix[chosen[:, step - 1]], out=nearest)
            squared = nearest * nearest
            total = squared.sum(axis=1)
            flat = ~(total > 0.0)
            probabilities = squared / np.where(flat, 1.0, total)[:, None]
        cumulative = probabilities.cumsum(axis=1)
        u = uniform[:, step] * cumulative[:, -1]
        # searchsorted(row, u, side="right") for every nondecreasing row.
        chosen[:, step] = np.minimum((cumulative <= u[:, None]).sum(axis=1), n - 1)
        for run in flat.nonzero()[0]:
            # Every remaining point coincides with a chosen center, so the
            # squared-distance rule is 0/0; fall back to a uniform draw over
            # the indices not yet chosen, as randrange makes it.
            unchosen = sorted(set(range(n)) - set(chosen[run, :step].tolist()))
            chosen[run, step] = unchosen[(int(draws[run, step]) * len(unchosen)) >> 64]
    return chosen


def _kmeanspp_core(matrix: np.ndarray, k: int, rng: SplitMix64) -> list[int]:
    """Indices of the k seed points, drawn from the (n, n) distance matrix."""
    return _kmeanspp_batch(matrix, k, [rng])[0].tolist()


def _repair_empty_clusters(matrix: np.ndarray, dist: np.ndarray, labels: np.ndarray) -> None:
    """Ensure no cluster is empty by relabelling points; mutates dist and
    labels in place and moves no center, since the caller recomputes every
    center from the labels.

    An emptied cluster's column of dist becomes the distances from the point
    farthest from its center, as if the center moved there, and every label
    becomes the argmin of dist. If exact coordinate duplicates keep the
    cluster empty (another column equals it), the farthest point whose donor
    cluster can spare a member is pinned to it instead.
    """
    k = dist.shape[1]
    for _ in range(k):
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empties.size == 0:
            break
        j = int(empties[0])
        dist[:, j] = matrix[int(dist[:, j].argmax())]
        labels[:] = dist.argmin(axis=1)

    counts = np.bincount(labels, minlength=k)
    unpinned = np.ones(labels.size, dtype=bool)
    for j in np.flatnonzero(counts == 0):
        column = np.where(unpinned & (counts[labels] > 1), dist[:, j], -np.inf)
        point = int(column.argmax())
        # n >= k guarantees some cluster has two members, and pinned points
        # occupy distinct clusters, so an eligible donor always exists.
        assert np.isfinite(column[point])
        labels[point] = j
        unpinned[point] = False
        counts = np.bincount(labels, minlength=k)


def _update_centers(
    coords: np.ndarray,
    weights: np.ndarray,
    weighted: np.ndarray,
    labels: np.ndarray,
    k: int,
    old_labels: np.ndarray,
    old_centers: np.ndarray,
) -> np.ndarray:
    """Weighted per-coordinate mean of every cluster, in one pass: (k, 2) for
    one partition given as (n,) labels, (R, k, 2) for R of them as (R, n).

    `weighted` is weights[:, None] * coords. A longitude more than pi from
    its cluster's lowest-index member moves by 2 pi toward it, and each mean
    longitude is folded into (-pi, pi]; other rows keep their bits. The
    results are bitwise those of summing each cluster's own slice: cluster j
    of run r is bin r * k + j, a stable sort by bin lists each cluster's
    members in ascending point order, and one bincount adds their weighted
    coordinates in that order, as a sum over axis 0 does. Each weight total
    is numpy's pairwise sum of the cluster's weights in point order: the
    clusters of one size are reduced together as the rows of a C-contiguous
    (clusters, size) array, which sums each row as the 1-D reduce does, and
    a size only one cluster has keeps the 1-D reduce.

    `old_labels` and `old_centers` are the labels of the pass before and the
    centers made from them, shaped as `labels` and the result. A cluster no
    point entered or left has the same members, lowest-index member and sums,
    so it keeps its old center bit for bit, and only the points of the other
    clusters are read. Old labels of -1, which no pass gives, move every
    point, so every cluster is recomputed and no old center is kept.
    """
    n = coords.shape[0]
    runs = labels.size // n
    offsets = k * np.arange(runs)[:, None]
    bins = (labels.reshape(runs, n) + offsets).ravel()
    counts = np.bincount(bins, minlength=runs * k)
    if not counts.all():
        raise EmptyClusterError(f"cluster {int(counts.argmin()) % k} lost all members")
    moved = (labels != old_labels).ravel()
    if moved.all():
        # Every cluster has a member, and every member moved: all changed.
        changed = np.ones(runs * k, dtype=bool)
        picked = np.arange(bins.size)
    else:
        changed = np.zeros(runs * k, dtype=bool)
        changed[bins[moved]] = True
        changed[(old_labels.reshape(runs, n) + offsets).ravel()[moved]] = True
        picked = changed[bins].nonzero()[0]
    centers = old_centers.reshape(runs * k, 2).copy()
    if picked.size == 0:
        return centers.reshape(labels.shape[:-1] + (k, 2))
    # Array methods stand in for numpy's Python-level function wrappers
    # below, which cost as much as the work on arrays this small. The
    # smallest unsigned type that holds every bin lets numpy radix-sort.
    order = bins[picked].astype(np.min_scalar_type(runs * k - 1)).argsort(kind="stable")
    members = picked[order] % n
    sizes = counts[changed]
    starts = sizes.cumsum() - sizes
    sorted_weights = weights[members]
    totals = np.empty(sizes.size)
    by_size = sizes.argsort(kind="stable")
    ordered = sizes[by_size]
    edges = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist(), sizes.size]
    first, size, cluster = starts.tolist(), sizes.tolist(), by_size.tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        c = cluster[a]
        if b == a + 1:
            totals[c] = np.add.reduce(sorted_weights[first[c] : first[c] + size[c]])
        else:
            group = by_size[a:b]
            rows = starts[group][:, None] + np.arange(size[c])
            totals[group] = np.add.reduce(sorted_weights[rows], axis=1)
    segment = np.arange(sizes.size).repeat(sizes)
    # 1-D column gathers: numpy gathers rows of an (n, 2) array far slower.
    lon = coords[:, 1][members]
    offset = lon - lon[starts][segment]
    weighted_lon = weighted[:, 1][members]
    far = (np.abs(offset) > np.pi).nonzero()[0]
    if far.size:
        unwrapped = lon[far] - np.copysign(2.0 * np.pi, offset[far])
        weighted_lon[far] = sorted_weights[far] * unwrapped
    means = np.empty((sizes.size, 2))
    means[:, 0] = np.bincount(segment, weights=weighted[:, 0][members], minlength=sizes.size)
    means[:, 1] = np.bincount(segment, weights=weighted_lon, minlength=sizes.size)
    means /= totals[:, None]
    lon = means[:, 1]
    lon[lon > np.pi] -= 2.0 * np.pi
    lon[lon <= -np.pi] += 2.0 * np.pi
    centers[changed] = means
    return centers.reshape(labels.shape[:-1] + (k, 2))


def _kmeans_batch(
    matrix: np.ndarray,
    coords: np.ndarray,
    weights: np.ndarray,
    k: int,
    metric: DistanceMetric,
    seeds: "list[int]",
    max_iterations: int,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """One seeded run per seed, in seed order, as four arrays whose row s is
    run s: centers (S, k, 2), labels (S, n) intp, iterations (S,) and
    converged (S,). `matrix` is `_distance_matrix(coords, metric)`, and
    callers check max_iterations >= 1.

    Runs go through seeding, assignment and center update together, in
    batches of at most _BATCH_ELEMENTS // (n * k) runs. A run that empties a
    cluster has its labels repaired on its own, and a run leaves its batch
    when its labels, repaired or not, equal those of its previous pass, so
    each result is bitwise what the run gives alone.
    """
    n = coords.shape[0]
    size = max(1, _BATCH_ELEMENTS // (n * k))
    assign = metric.assigner(coords, min(size, len(seeds)), k)
    weighted = weights[:, None] * coords
    out_centers = np.empty((len(seeds), k, 2))
    out_labels = np.empty((len(seeds), n), dtype=np.intp)
    iterations = np.full(len(seeds), max_iterations)
    converged = np.zeros(len(seeds), dtype=bool)
    for start in range(0, len(seeds), size):
        batch = seeds[start : start + size]
        live = np.arange(start, start + len(batch))  # the runs still iterating
        centers = coords[_kmeanspp_batch(matrix, k, [SplitMix64(seed) for seed in batch])]
        labels = np.full((len(batch), n), -1)  # matches no pass's labels
        for iteration in range(1, max_iterations + 1):
            new_labels = assign(centers)
            bins = new_labels + k * np.arange(live.size)[:, None]
            counts = np.bincount(bins.ravel(), minlength=live.size * k).reshape(-1, k)
            for run in np.flatnonzero((counts == 0).any(axis=1)):
                dist = metric.pairwise(coords, centers[run])
                _repair_empty_clusters(matrix, dist, new_labels[run])
            done = (new_labels == labels).all(axis=1)
            out_centers[live[done]] = centers[done]
            out_labels[live[done]] = new_labels[done]
            iterations[live[done]] = iteration
            converged[live[done]] = True
            live, centers, labels = live[~done], centers[~done], labels[~done]
            if live.size == 0:
                break
            new_labels = new_labels[~done]
            centers = _update_centers(coords, weights, weighted, new_labels, k, labels, centers)
            labels = new_labels
        out_centers[live] = centers
        out_labels[live] = labels
    return out_centers, out_labels, iterations, converged


def kmeans(
    coords: np.ndarray,
    weights: "list[float] | np.ndarray",
    k: int,
    metric: DistanceMetric = HaversineMetric(),
    seed: int = 0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> ClusteringResult:
    """Cluster an (n, 2) [lat, lon] radian array into k groups by alternating
    assignment and weighted means.

    Points are assigned to the metric-nearest center (ties to the lowest
    center index); centers are recomputed as weighted coordinate means.
    Stops once an assignment pass leaves the labels unchanged, or after
    max_iterations with converged=False. Builds the full pairwise distance
    matrix for seeding and repair, 8 * n^2 bytes (18 MB at n = 1500), with
    O(_MATRIX_BLOCK_ROWS * n) scratch while it is built (0.9 MB there).
    """
    w = _checked_weights(coords, weights)
    n = len(coords)
    k, seed = _checked_integer("k", k), _checked_integer("seed", seed)
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    max_iterations = _checked_integer("max_iterations", max_iterations, 1)
    centers, labels, iterations, converged = _kmeans_batch(
        _distance_matrix(coords, metric), coords, w, k, metric, [seed], max_iterations
    )
    centers, labels = centers[0], labels[0]
    return ClusteringResult(centers, labels, int(iterations[0]), bool(converged[0]),
                            _objective_core(coords, w, centers, labels, metric))


def _objective_core(
    coords: np.ndarray,
    weights: np.ndarray,
    centers: np.ndarray,
    labels: np.ndarray,
    metric: DistanceMetric,
) -> float:
    d = metric.pairwise(coords, centers)[np.arange(len(coords)), labels]
    return float((weights * d * d).sum())

