"""Cluster-count selection by sweeping k and scoring partitions with the
Dunn index (worst-case separation between clusters divided by the largest
cluster diameter; higher is better).

For every candidate k the sweep reruns k-means from many seeded starts and
keeps the run with the highest Dunn index, then picks the k whose best run
scores highest overall. Each k's winner is one KBest, built where the run
was scored, and SweepResult.per_k holds them keyed by the candidate ks.
Seeds for each (k, run) cell are derived independently from the base seed,
so results do not depend on execution order and the sweep can fan out
across processes: at most one per k and per CPU this process may run on.

Memory model: every (k, run) cell reads the same pairwise distance matrix
(for k-means++ seeding, empty-cluster repair and Dunn scoring), so it is
built once per quadrant per process and reused for every k and run. That
is one float64 n x n matrix, 8 * n^2 bytes: 18 MB at n = 1500 and 0.8 GB
at n = 10 000. With workers > 1 each pool worker builds its own copy in the
pool initializer and the parent builds none, so the figure holds per
worker. The matrix is filled in row blocks, so building it takes only
O(block * n) scratch beyond the matrix itself.

A k's restarts run as batches through one `_kmeans_batch` call. A batch's
largest scratch array, its (runs, k, n) float64 dot products, is capped at
`_BATCH_ELEMENTS` = 2**18 values (2 MB) per process whatever runs_per_k is,
or one run's n * k values when that is larger. Beside it each process keeps every
run's labels and centers until the k is scored: 8 * runs_per_k * (n + 2k)
bytes, 1.6 MB at runs_per_k = 100 and n = 2000.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Optional, Sequence

import numpy as np

from .clustering import (
    DistanceMetric,
    HaversineMetric,
    _checked_weights,
    _distance_matrix,
    _kmeans_batch,
    _validate_coords,
    DEFAULT_MAX_ITERATIONS,
)
from .errors import DegenerateClusteringError, SweepError, ValidationError
from .rng import derive_seed

DEFAULT_RUNS_PER_K = 100


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
    _validate_coords(coords)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError("labels must be a flat sequence")
    if labels.size != len(coords):
        raise ValidationError(f"{len(coords)} points but {labels.size} labels")
    if np.unique(labels).size < 2:
        raise ValidationError("Dunn index needs at least two non-empty clusters")
    score = _dunn_from_matrix(_distance_matrix(coords, metric), labels)
    if score is None:
        raise DegenerateClusteringError(
            "every cluster has zero diameter; the Dunn ratio is undefined"
        )
    return score


def _dunn_from_matrix(dist: np.ndarray, labels: np.ndarray) -> DunnScore | None:
    """Dunn score from a symmetric distance matrix with a zero diagonal, one
    cluster at a time, or None when the largest cluster diameter is zero
    (all-singleton/coincident case). Needs two non-empty clusters.

    A cluster's rows give its diameter (its own columns) and its distances
    to every other cluster (the remaining columns). Min and max are exact,
    so the result does not depend on the order clusters are visited in.
    """
    order = np.argsort(labels, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), labels.size]
    max_intra_km = 0.0
    min_inter_km = math.inf
    for a, b in zip(bounds[:-1], bounds[1:]):
        members = order[a:b]
        rows = dist[members]
        max_intra_km = max(max_intra_km, float(rows[:, members].max()))
        rows[:, members] = np.inf
        min_inter_km = min(min_inter_km, float(rows.min()))
    if max_intra_km == 0.0:
        return None
    return DunnScore(min_inter_km / max_intra_km, min_inter_km, max_intra_km)


def _best_for_k(
    dist: np.ndarray,
    coords: np.ndarray,
    weights: np.ndarray,
    runs_per_k: int,
    base_seed: int,
    metric: DistanceMetric,
    max_iterations: int,
    k: int,
) -> Optional[KBest]:
    seeds = [derive_seed(base_seed, k, run) for run in range(runs_per_k)]
    runs = _kmeans_batch(dist, coords, weights, k, metric, seeds, max_iterations)
    best: Optional[KBest] = None
    for run, (seed, (centers, labels, iterations, converged)) in enumerate(zip(seeds, runs)):
        score = _dunn_from_matrix(dist, labels)
        if score is None:
            continue
        if best is None or score.value > best.dunn.value:
            best = KBest(run, seed, centers, labels, iterations, converged, score)
    return best


# Distance matrix of the quadrant a pool worker is sweeping. It is set only
# inside pool workers, by the pool initializer, and goes away when the pool
# shuts its workers down; the parent process never sets it.
_WORKER_DIST: Optional[np.ndarray] = None


def _init_worker(coords: np.ndarray, metric: DistanceMetric) -> None:
    global _WORKER_DIST
    _WORKER_DIST = _distance_matrix(coords, metric)


def _best_for_k_in_worker(*args) -> Optional[KBest]:
    """_best_for_k over the matrix this pool worker built in _init_worker."""
    assert _WORKER_DIST is not None, "pool worker started without _init_worker"
    return _best_for_k(_WORKER_DIST, *args)


def _pool_size(workers: int, cells: int, cpus: int) -> int:
    """Processes worth starting: no more than requested, than there are k
    values to hand out, or than there are CPUs; at least one."""
    return max(1, min(workers, cells, cpus))


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
    w = _checked_weights(coords, weights)
    n = len(coords)
    if runs_per_k < 1:
        raise ValidationError(f"runs_per_k must be >= 1, got {runs_per_k}")
    if k_range is None:
        ks: Sequence[int] = range(2, default_k_max(n) + 1)
    else:
        ks = sorted(set(int(k) for k in k_range))
    if len(ks) == 0:
        raise ValidationError("no candidate k values to sweep")
    if ks[0] < 2 or ks[-1] > n:
        raise ValidationError(f"candidate k values must lie in [2, {n}], got {list(ks)}")

    args = (coords, w, runs_per_k, base_seed, metric, max_iterations)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = _pool_size(workers, len(ks), cpus or 1)
    if size > 1:
        # Workers build the matrix themselves: building it here and shipping
        # it would leave a copy and its freed temporaries in the parent.
        with ProcessPoolExecutor(
            max_workers=size, initializer=_init_worker, initargs=(coords, metric)
        ) as pool:
            bests = list(pool.map(partial(_best_for_k_in_worker, *args), ks))
    else:
        dist = _distance_matrix(coords, metric)
        bests = [_best_for_k(dist, *args, k) for k in ks]

    per_k = dict(zip(ks, bests))
    scored = [k for k, best in per_k.items() if best is not None]
    if not scored:
        raise SweepError(
            "every run at every candidate k was degenerate (all clusters were "
            "coincident-point singletons); lower k relative to the number of "
            "distinct points"
        )
    # max keeps the first of equal scores, so ties go to the smallest k.
    return SweepResult(per_k, max(scored, key=lambda k: per_k[k].dunn.value))
