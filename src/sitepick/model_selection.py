"""Cluster-count selection by sweeping k and scoring partitions with the
Dunn index (worst-case separation between clusters divided by the largest
cluster diameter; higher is better).

For every candidate k the sweep reruns k-means from many seeded starts and
keeps the run with the highest Dunn index, then picks the k whose best run
scores highest overall. Each k's winner is one KBest, built where the run
was scored, and SweepResult.per_k holds them keyed by the candidate ks.
Seeds for each (k, run) cell are derived independently from the base seed,
so results do not depend on execution order and the sweep can fan out
across processes. `sweep_quadrants` sweeps several quadrants through one
pool: a (quadrant, k) cell is one k's runs of one quadrant, and the pool has
at most one process per cell and per CPU this process may run on. It checks
every quadrant before any cell runs, and errors are raised, never returned.

Memory model: every (k, run) cell of a quadrant reads the same pairwise
distance matrix (for k-means++ seeding, empty-cluster repair and Dunn
scoring), so a process builds it once per quadrant and reuses it for every
k and run. That is one float64 n x n matrix, 8 * n^2 bytes: 18 MB at
n = 1500 and 0.8 GB at n = 10 000. Cells are handed out quadrant by
quadrant, and a process drops one quadrant's matrix before it builds the
next, so it holds at most one at a time: at worst the largest quadrant's.
With workers > 1 each pool worker builds a quadrant's matrix on its first
cell of that quadrant and the parent builds none, so the figure holds per
worker; serially the parent builds each in turn. The matrix is filled in
row blocks, each pair computed once for the upper triangle and copied to
the lower, so building it takes only O(block * n) scratch beyond the
matrix itself. Next to it each process keeps the matrix's minimum spanning
tree, n - 1 edges of 24 bytes, from which Dunn scoring reads every run's
closest inter-cluster pair. Scoring one run then needs O(n) scratch, plus,
for each cluster whose diameter the triangle inequality cannot bound below
the largest found so far, one row of s entries and the block of the
members that can still be in a wider pair: at most s x s, and usually far
less.

Within a k, runs are scored in run order against the best so far, and a
run whose exact upper bound on the Dunn index cannot beat it is dropped
before any diameter is read. The bound is min_inter / largest reach (see
`_dunn_from_matrix`); with three or more runs, `_dunn_bounds` finds both
for every run after the first at once, from the stack of their labels.
Ties keep the earlier run, so the winner is the one scoring every run
would pick.

A k's restarts run as batches through one `_kmeans_batch` call. A batch's
largest scratch array, its (runs, k, n) float64 dot products, is capped at
`_BATCH_ELEMENTS` = 2**18 values (2 MB) per process whatever runs_per_k is,
or one run's n * k values when that is larger. Beside it each process keeps every
run's labels and centers until the k is scored: 8 * runs_per_k * (n + 2k)
bytes, 1.6 MB at runs_per_k = 100 and n = 2000. The bounds then stack those
labels into one (runs_per_k - 1, n) array, with (runs_per_k - 1, k)
anchors and temporaries of the stack's size: at their peak about 33 bytes
per run and point, stack included, 6.5 MB at runs_per_k = 100 and
n = 2000, a fifth of that quadrant's 32 MB matrix.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .clustering import (
    DistanceMetric,
    HaversineMetric,
    TRIANGLE_FACTOR,
    _checked_labels,
    _checked_weights,
    _distance_matrix,
    _kmeans_batch,
    DEFAULT_MAX_ITERATIONS,
)
from .errors import DegenerateClusteringError, SweepError, ValidationError
from .rng import derive_seed

DEFAULT_RUNS_PER_K = 100

# A minimum spanning tree as its edges (a, b, w); see `_spanning_tree`.
_Tree = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class DunnScore:
    """Dunn index with the two quantities it is the ratio of."""

    value: float
    min_inter_km: float
    max_intra_km: float


@dataclass(frozen=True, eq=False)
class KBest:
    """The best-scoring run for one candidate k: its (k, 2) [lat, lon] radian
    centers, per-point labels in [0, k), and Dunn score. Pool workers return
    it as built."""

    run_index: int
    seed: int
    centers: np.ndarray
    labels: np.ndarray
    iterations: int
    converged: bool
    dunn: DunnScore


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of a full k sweep. per_k maps each candidate k, ascending, to its
    best run, or to None when every run at that k was degenerate."""

    per_k: "dict[int, Optional[KBest]]"
    optimal_k: int

    @property
    def best(self) -> KBest:
        chosen = self.per_k[self.optimal_k]
        assert chosen is not None
        return chosen


def default_k_max(n: int) -> int:
    """Largest candidate k for n points: floor(sqrt(n)). Requires n >= 4 so
    the sweep range [2, k_max] is non-empty."""
    if n < 4:
        raise ValidationError(f"need at least 4 points to sweep, got {n}")
    return math.isqrt(n)


def candidate_ks(n: int, k_range: Iterable[int] | None = None) -> Sequence[int]:
    """The candidate ks of a quadrant of n points, ascending: 2 to
    default_k_max(n) when k_range is None, else k_range's distinct values,
    of which there must be at least one and each in [2, n]."""
    if k_range is None:
        return range(2, default_k_max(n) + 1)
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValidationError("no candidate k values to sweep")
    if ks[0] < 2 or ks[-1] > n:
        raise ValidationError(f"candidate k values must lie in [2, {n}], got {ks}")
    return ks


def dunn_index(
    coords: np.ndarray,
    labels: np.ndarray,
    metric: DistanceMetric = HaversineMetric(),
) -> DunnScore:
    """Minimum pointwise inter-cluster distance over maximum cluster diameter
    of an (n, 2) [lat, lon] radian array partitioned by one label per point.

    Needs at least two non-empty clusters. When every cluster is a bundle of
    coincident points the largest diameter is zero and the ratio is
    undefined; that raises DegenerateClusteringError rather than returning
    infinity, because such a partition carries no separation information.
    """
    labels = _checked_labels(coords, labels)
    if np.unique(labels).size < 2:
        raise ValidationError("Dunn index needs at least two non-empty clusters")
    dist = _distance_matrix(coords, metric)
    score = _dunn_from_matrix(dist, _spanning_tree(dist), labels, slack=metric.triangle_slack)
    if score is None:
        raise DegenerateClusteringError(
            "every cluster has zero diameter; the Dunn ratio is undefined"
        )
    return score


def _spanning_tree(dist: np.ndarray) -> _Tree:
    """Minimum spanning tree of a symmetric distance matrix as its n - 1 edges
    (a, b, w): index arrays a and b and float64 weights w, with w[i] the
    matrix entry dist[a[i], b[i]]. Prim's algorithm over rows of `dist`,
    O(n^2) time and O(n) scratch.

    By the cut property every partition's closest pair of points in different
    clusters is joined by a tree edge, so the tree holds the minimum
    inter-cluster distance of any labelling of these points.
    """
    n = dist.shape[0]
    a = np.empty(n - 1, dtype=np.intp)
    b = np.empty(n - 1, dtype=np.intp)
    w = np.empty(n - 1, dtype=np.float64)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    nearest = np.zeros(n, dtype=np.intp)  # tree point closest to each outside point
    gap = dist[0].copy()  # its distance; inf once the point joins the tree
    gap[0] = np.inf
    for edge in range(n - 1):
        joined = int(gap.argmin())
        a[edge], b[edge], w[edge] = nearest[joined], joined, gap[joined]
        outside[joined] = False
        gap[joined] = np.inf
        row = dist[joined]
        closer = (row < gap) & outside
        gap[closer] = row[closer]
        nearest[closer] = joined
    return a, b, w


def _dunn_from_matrix(
    dist: np.ndarray,
    tree: _Tree,
    labels: np.ndarray,
    to_beat: float = -math.inf,
    slack: float = math.inf,
) -> DunnScore | None:
    """Dunn score of `labels` over a bitwise symmetric distance matrix with a
    zero diagonal and its `_spanning_tree`, or None when the score cannot
    exceed `to_beat` or the largest cluster diameter is zero (all-singleton/
    coincident case). Needs two non-empty clusters. `slack` is the metric's
    `triangle_slack`; the infinite default reads every intra-cluster entry.

    The closest inter-cluster pair is the lightest tree edge whose ends carry
    different labels: the same matrix entry a search of all pairs finds.
    Before any diameter is read, each point's reach, its distance from its
    cluster's anchor (the lowest-index member), is itself an intra-cluster
    entry, so the largest reach bounds the largest diameter from below. IEEE
    division is monotone, so min_inter / that bound bounds the score from
    above bit for bit, and a run whose bound is at most `to_beat` is dropped
    unscored. A zero bound proves nothing (the run may be degenerate), so
    such a run is scored in full.

    Then the largest diameter M, starting at that bound, is raised only by
    entries the triangle inequality cannot rule out. With S =
    TRIANGLE_FACTOR and A = `slack`, computed entries satisfy d(i, j) <=
    (reach_i + reach_j) * S + A (see `DistanceMetric.triangle_slack`), so in
    a cluster of radius r, its largest reach, no pair exceeds 2 r S + A.
    Clusters are visited by radius, descending, and once 2 r S + A < M no
    cluster left can raise M. Otherwise the row of the member farthest from
    the anchor raises M, the cluster is done if 2 r S + A < M now holds, and
    else only members with (reach + r) S + A >= M can be in a pair above M:
    the max of their block finishes the cluster. Min and max are exact, so
    the result is the all-pairs one whatever order edges, clusters and
    members are visited in.
    """
    a, b, w = tree
    min_inter_km = float(w[labels[a] != labels[b]].min())
    # A stable sort puts each cluster's members in index order, its lowest first.
    order = np.argsort(labels, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), labels.size]
    reach = dist[np.repeat(order[bounds[:-1]], np.diff(bounds)), order]
    radii = np.maximum.reduceat(reach, bounds[:-1])
    max_intra_km = float(radii.max())
    if max_intra_km > 0.0 and min_inter_km / max_intra_km <= to_beat:
        return None
    for c in np.argsort(-radii, kind="stable").tolist():
        r = float(radii[c])
        widest = 2.0 * r * TRIANGLE_FACTOR + slack  # no pair of the cluster is farther
        if widest < max_intra_km:
            break
        members, near = order[bounds[c] : bounds[c + 1]], reach[bounds[c] : bounds[c + 1]]
        max_intra_km = float(dist[members[near.argmax()], members].max(initial=max_intra_km))
        if widest >= max_intra_km:
            keep = members[(near + r) * TRIANGLE_FACTOR + slack >= max_intra_km]
            max_intra_km = float(dist[keep[:, None], keep].max(initial=max_intra_km))
    if max_intra_km == 0.0:
        return None
    score = DunnScore(min_inter_km / max_intra_km, min_inter_km, max_intra_km)
    return score if score.value > to_beat else None


# The quadrant whose cell this process ran last: its index in the
# `sweep_quadrants` call, its distance matrix and their spanning tree. A pool
# worker keeps it from one cell to the next; the calling process clears it
# when the call ends.
_QUADRANT: Optional[tuple[int, np.ndarray, _Tree]] = None


def _dunn_bounds(
    dist: np.ndarray, tree: _Tree, labels: np.ndarray, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Each run's minimum inter-cluster distance and largest reach, for an
    (R, n) stack of partitions into k non-empty clusters, in a few array
    operations over all R runs. They are the entries `_dunn_from_matrix`
    bounds a run's score with: the lightest tree edge between clusters, and
    the largest distance of a point from its cluster's lowest-index member,
    found with one `np.minimum.at`. Min and max are exact, so each is the
    value that function reads for the run."""
    a, b, w = tree
    runs, n = labels.shape
    min_inter = np.where(labels[:, a] != labels[:, b], w, np.inf).min(axis=1)
    bins = labels + k * np.arange(runs)[:, None]
    anchors = np.full(runs * k, n)
    np.minimum.at(anchors, bins.ravel(), np.tile(np.arange(n), runs))
    reach = dist.ravel()[anchors[bins] * n + np.arange(n)].max(axis=1)
    return min_inter, reach


def _sweep_cell(
    quadrant: int,
    coords: np.ndarray,
    weights: np.ndarray,
    runs_per_k: int,
    base_seed: int,
    metric: DistanceMetric,
    max_iterations: int,
    k: int,
) -> Optional[KBest]:
    """The best of k's runs_per_k seeded runs on one quadrant, the earliest
    among equal scores, or None when every run is degenerate. The quadrant's
    matrix and tree are built on this process's first cell of it, after the
    previous quadrant's are dropped, so a process holds one at a time.

    Runs are scored in run order against the best so far. A run whose exact
    upper bound, min_inter / largest reach, cannot beat it is dropped before
    its diameters are read: such a run could at best tie, and ties keep the
    earlier run. `_dunn_from_matrix` applies that bound itself. With two or
    more runs after the first, which has nothing to beat, their bounds come
    from one `_dunn_bounds` call instead, and a dropped run is never passed
    on; one run's bound costs as much batched as it does there, where a run
    that survives reuses it.
    """
    global _QUADRANT
    if _QUADRANT is None or _QUADRANT[0] != quadrant:
        _QUADRANT = None
        dist = _distance_matrix(coords, metric)
        _QUADRANT = (quadrant, dist, _spanning_tree(dist))
    _, dist, tree = _QUADRANT
    seeds = [derive_seed(base_seed, k, run) for run in range(runs_per_k)]
    runs = _kmeans_batch(dist, coords, weights, k, metric, seeds, max_iterations)
    upper = [math.inf] * runs_per_k
    if runs_per_k > 2:
        later = np.stack([labels for _, labels, _, _ in runs[1:]])
        min_inter, reach = (bound.tolist() for bound in _dunn_bounds(dist, tree, later, k))
        # A zero reach proves nothing (the run may be degenerate).
        upper[1:] = [m / r if r > 0.0 else math.inf for m, r in zip(min_inter, reach)]
    best: Optional[KBest] = None
    for run, (seed, (centers, labels, iterations, converged)) in enumerate(zip(seeds, runs)):
        if best is not None and upper[run] <= best.dunn.value:
            continue
        to_beat = -math.inf if best is None else best.dunn.value
        score = _dunn_from_matrix(dist, tree, labels, to_beat, metric.triangle_slack)
        if score is not None:
            best = KBest(run, seed, centers, labels, iterations, converged, score)
    return best


def _sweep_result(per_k: "dict[int, Optional[KBest]]") -> SweepResult:
    """One quadrant's SweepResult from its cells in ascending k. Raises
    SweepError when every run at every k was degenerate."""
    scored = [k for k, best in per_k.items() if best is not None]
    if not scored:
        raise SweepError(
            "every run at every candidate k was degenerate (all clusters were "
            "coincident-point singletons); lower k relative to the number of "
            "distinct points"
        )
    # max keeps the first of equal scores, so ties go to the smallest k.
    return SweepResult(per_k, max(scored, key=lambda k: per_k[k].dunn.value))


def _pool_size(workers: int, cells: int, cpus: int) -> int:
    """Processes worth starting: no more than requested, than there are
    (quadrant, k) cells to hand out, or than there are CPUs."""
    return min(workers, cells, cpus)


def sweep_quadrants(
    quadrants: "Sequence[tuple[np.ndarray, list[float] | np.ndarray, Iterable[int] | None]]",
    runs_per_k: int = DEFAULT_RUNS_PER_K,
    base_seed: int = 0,
    metric: DistanceMetric = HaversineMetric(),
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workers: int = 1,
) -> Iterator[SweepResult]:
    """`sweep` of each (coords, weights, k_range) in `quadrants`, with the
    settings shared, through at most one process pool for all their
    (quadrant, k) cells.

    The call checks runs_per_k >= 1, max_iterations >= 1, workers >= 1 and
    every quadrant before it starts a pool or builds a matrix, then
    runs every cell, and raises the first error either finds. It returns an
    iterator over the quadrants' SweepResults, in order; a quadrant whose
    runs were all degenerate raises SweepError when the iterator reaches it.
    """
    global _QUADRANT
    if runs_per_k < 1:
        raise ValidationError(f"runs_per_k must be >= 1, got {runs_per_k}")
    if max_iterations < 1:
        raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    checked = [
        (coords, _checked_weights(coords, weights), candidate_ks(len(coords), k_range))
        for coords, weights, k_range in quadrants
    ]
    # Quadrant by quadrant, so a process moves through the matrices in order,
    # and largest k first, so the longest cells do not start last.
    settings = (runs_per_k, base_seed, metric, max_iterations)
    cells = [(i, coords, w, *settings, k) for i, (coords, w, ks) in enumerate(checked)
             for k in reversed(ks)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = _pool_size(workers, len(cells), cpus or 1)
    try:
        if size > 1:
            # Workers build the matrices themselves: building them here and
            # shipping them would leave copies and their freed temporaries in
            # the parent.
            with ProcessPoolExecutor(max_workers=size) as pool:
                futures = [pool.submit(_sweep_cell, *cell) for cell in cells]
            bests = [future.result() for future in futures]
        else:
            bests = [_sweep_cell(*cell) for cell in cells]
    finally:
        _QUADRANT = None
    by_cell = {(cell[0], cell[-1]): best for cell, best in zip(cells, bests)}
    return (_sweep_result({k: by_cell[i, k] for k in ks}) for i, (*_, ks) in enumerate(checked))


def sweep(
    coords: np.ndarray,
    weights: "list[float] | np.ndarray",
    k_range: Iterable[int] | None = None,
    runs_per_k: int = DEFAULT_RUNS_PER_K,
    base_seed: int = 0,
    metric: DistanceMetric = HaversineMetric(),
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    workers: int = 1,
) -> SweepResult:
    """Best clustering per k and the k with the highest Dunn index.

    `coords` is an (n, 2) [lat, lon] radian array and `weights` its n
    aligned weights. Every (k, run) cell gets its own derived seed, so the
    outcome is a pure function of (coords, weights, k_range, runs_per_k,
    base_seed, max_iterations) regardless of worker count. Ties between runs keep the
    earliest run; ties between k values keep the smallest k. Degenerate runs
    are dropped; a k where every run degenerates maps to None; if that
    happens for all k the sweep raises SweepError.
    """
    return next(sweep_quadrants(
        [(coords, weights, k_range)], runs_per_k, base_seed, metric, max_iterations, workers
    ))
