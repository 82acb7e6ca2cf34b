"""Metric-aware k-means, iterative metric learning from pseudo-labels,
pair-counting cluster agreement, and geodesic embedding.
"""
import logging
from dataclasses import dataclass

import numpy as np

from ._linalg import _check_finite, pairwise_sq_dists, sym_sqrt, upper_pairs
from ._lloyd import lloyd, lloyd_best_of, member_means
from .generative import _fit_classes
from .global_metric import uniform_combination
from .local_metric import MetricMatrix, interpolate_with_euclidean, local_metric_stack

__all__ = [
    "ClusteringResult",
    "Embedding",
    "kmeans",
    "assign_to_centers",
    "iterative_metric_kmeans",
    "rand_score",
    "cluster_transfer_tune",
    "isomap_embed",
]

logger = logging.getLogger(__name__)

# bound on the bytes of the local-metric stacks that cluster_transfer_tune keeps
# for reuse, N * D * D * 8 bytes per stack of N points in D dimensions
CLUSTER_MEMO_BYTES = 2 ** 26


@dataclass(eq=False)
class ClusteringResult:
    """Cluster ids, centers in the original coordinates, within-cluster sum of
    squared metric distances, and the metric that defined them."""

    assignments: np.ndarray
    centers: np.ndarray
    inertia: float
    metric: MetricMatrix

    def __post_init__(self):
        if self.inertia < 0:
            raise ValueError("inertia must be non-negative")


@dataclass(eq=False)
class Embedding:
    """Low-dimensional coordinates with the fraction of geodesic structure
    they fail to explain. kept_indices lists the rows that were embedded
    (the largest connected component of the neighbor graph)."""

    coordinates: np.ndarray
    residual_variance: float
    n_neighbors: int
    kept_indices: np.ndarray


def _transform(x, metric):
    return np.asarray(x, dtype=float) @ sym_sqrt(metric.matrix)


def kmeans(x, k, metric, seed, restarts=10):
    """Lloyd k-means under a metric (run in square-root-transformed space).

    Best of `restarts` seeded k-means++ initializations; empty clusters are
    re-seeded from the farthest point. Deterministic given the seed.
    """
    x = np.asarray(x, dtype=float)
    if not (1 <= k <= len(x)):
        raise ValueError("k must lie in [1, N]")
    z = _transform(x, metric)
    rng = np.random.default_rng(seed)
    assign, _, inertia, _ = lloyd_best_of(z, k, rng, restarts=restarts)
    return ClusteringResult(assign, member_means(x, assign, k), inertia, metric)


def assign_to_centers(x, centers, metric):
    """Nearest-center ids for rows of x under the metric; non-finite distances raise."""
    d = pairwise_sq_dists(np.asarray(x, dtype=float), np.asarray(centers, dtype=float),
                          metric.matrix)
    _check_finite(d)
    return d.argmin(axis=1)


def iterative_metric_kmeans(x, k, outer_iters=10, lam_cov=1e-3, lam_int=0.0,
                            seed=0, restarts=10):
    """Alternate k-means labels with metric learning on the pseudo-labels.

    Start from Euclidean k-means; repeatedly treat the cluster ids as class
    labels, fit class Gaussians (clusters with fewer than two members are
    skipped for the round), compute interpolated local metrics, average them
    into a global metric, and re-cluster under it (warm-started from the
    previous centers). Stops when the labels no longer change or after
    outer_iters rounds. Returns (ClusteringResult, MetricMatrix).
    """
    x = np.asarray(x, dtype=float)
    start = kmeans(x, k, MetricMatrix.identity(x.shape[1], degenerate=(k < 2)), seed,
                   restarts=restarts)
    return _refine_metric(x, start, outer_iters, lam_cov, lam_int, _StackMemo())


def _refine_metric(x, start, outer_iters, lam_cov, lam_int, memo):
    """The metric rounds of iterative_metric_kmeans from its Euclidean k-means
    start; a start with fewer than two clusters comes back with its metric.
    The _StackMemo memo supplies each round's local-metric stack."""
    k = len(start.centers)
    result, metric = start, start.metric
    if k < 2:
        return result, metric
    for _ in range(outer_iters):
        counts = np.bincount(result.assignments, minlength=k)
        keep = np.flatnonzero(counts >= 2)
        if len(keep) < 2:
            logger.warning("fewer than two usable clusters; stopping metric updates")
            break
        skipped = k - len(keep)
        if skipped:
            logger.info("skipping %d collapsed cluster(s) this round", skipped)
        stack = memo.stack(x, result.assignments, keep, lam_cov)
        metric = uniform_combination(interpolate_with_euclidean(stack, lam_int))
        new_result = _warm_kmeans(x, k, metric, result.centers)
        stable = np.array_equal(new_result.assignments, result.assignments)
        result = new_result
        if stable:
            break
    return result, metric


def _pseudo_label_stack(x, assignments, keep, lam_cov):
    """Local metrics at the rows of x from class Gaussians fitted to the
    clusters in keep, with the cluster ids as labels."""
    stack, _ = local_metric_stack(x, _fit_classes(x, assignments, keep, lam_cov))
    return stack


class _StackMemo:
    """The local-metric stacks of the current lam_cov of a tuning grid, keyed
    by the assignments they were fitted to, while they fit in
    CLUSTER_MEMO_BYTES; a new lam_cov drops them. A stack depends only on
    (lam_cov, assignments), so a reused stack is the one a fresh solve would
    give, bit for bit. Counts the stacks solved and reused."""

    def __init__(self):
        self.stacks, self.nbytes, self.lam_cov = {}, 0, None
        self.solves = self.reused = 0

    def stack(self, x, assignments, keep, lam_cov):
        if lam_cov != self.lam_cov:
            self.stacks, self.nbytes, self.lam_cov = {}, 0, lam_cov
        key = assignments.tobytes()
        if key in self.stacks:
            self.reused += 1
            return self.stacks[key]
        stack = _pseudo_label_stack(x, assignments, keep, lam_cov)
        self.solves += 1
        if self.nbytes + stack.nbytes <= CLUSTER_MEMO_BYTES:
            self.stacks[key] = stack
            self.nbytes += stack.nbytes
        return stack


def _warm_kmeans(x, k, metric, prev_centers):
    root = sym_sqrt(metric.matrix)
    assign, _, inertia, _ = lloyd(np.asarray(x, dtype=float) @ root, k, np.random.default_rng(0),
                                  init_centers=np.asarray(prev_centers, dtype=float) @ root)
    return ClusteringResult(assign, member_means(x, assign, k), inertia, metric)


def rand_score(a, b):
    """Fraction of point pairs on which two labelings agree.

    A pair agrees when it is co-clustered in both labelings or separated in
    both. Symmetric and invariant to label renaming.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("labelings must be equal-length vectors")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two points")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(v):
        return (v * (v - 1) / 2).sum()

    total = n * (n - 1) / 2
    both_same = pairs(table)
    same_a = pairs(table.sum(axis=1))
    same_b = pairs(table.sum(axis=0))
    return float((total + 2 * both_same - same_a - same_b) / total)


def cluster_transfer_tune(train, validation, k, lam_cov_grid, lam_int_grid,
                          seed=0, outer_iters=10):
    """Pick (lam_cov, lam_int) by Rand score of transferred clusters.

    For each grid cell: learn clusters and a metric on the training features
    (iterative_metric_kmeans, every cell refining one shared Euclidean start),
    assign the validation points to the nearest centers under that metric,
    and score against the validation labels. Ties prefer the smaller lam_int,
    then the smaller lam_cov. Returns a dict with the winning parameters, the
    fitted clustering/metric, the full grid, and diagnostics: the metric
    rounds of the whole grid (rounds), the local-metric stacks they solved
    (stack_solves) and those they reused (reused_stacks). A round that
    repeats the assignments of an earlier round of the same lam_cov reuses
    its stack (_StackMemo), so every result equals the per-cell
    iterative_metric_kmeans.
    """
    start = kmeans(train.features, k, MetricMatrix.identity(train.dim, degenerate=(k < 2)), seed)
    memo = _StackMemo()
    best = None
    grid = []
    for lam_cov in lam_cov_grid:
        for lam_int in lam_int_grid:
            result, metric = _refine_metric(train.features, start, outer_iters, lam_cov,
                                            lam_int, memo)
            assigned = assign_to_centers(validation.features, result.centers, metric)
            score = rand_score(assigned, validation.labels)
            grid.append({"lam_cov": lam_cov, "lam_int": lam_int, "rand": score})
            key = (-score, lam_int, lam_cov)
            if best is None or key < best[0]:
                best = (key, lam_cov, lam_int, result, metric)
    _, lam_cov, lam_int, result, metric = best
    return {"lam_cov": lam_cov, "lam_int": lam_int, "clustering": result,
            "metric": metric, "grid": grid,
            "diagnostics": {"rounds": memo.solves + memo.reused,
                            "stack_solves": memo.solves, "reused_stacks": memo.reused}}


def _neighbor_graph(z, n_neighbors):
    from scipy.sparse import csr_matrix  # scipy loads only on the Isomap path

    d = pairwise_sq_dists(z, z)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, np.inf)
    n = len(z)
    idx = np.argsort(d, axis=1)[:, :n_neighbors].copy()
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = idx.ravel()
    vals = d[rows, cols]
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    return graph.maximum(graph.T)  # undirected: keep an edge if either end chose it


def isomap_embed(x, metric, n_neighbors, d):
    """Geodesic embedding: neighbor graph, shortest paths, classical MDS.

    Edge lengths are square roots of the metric quadratic form so path
    lengths add correctly. If the graph is disconnected only the largest
    component is embedded (reported via kept_indices). Raises when
    n_neighbors is not below the number of points, or when d exceeds the
    number of positive eigenvalues of the centered geodesic Gram matrix.
    """
    from scipy.sparse.csgraph import connected_components, shortest_path

    x = np.asarray(x, dtype=float)
    if n_neighbors >= len(x):
        raise ValueError(f"{n_neighbors} neighbors need more than the {len(x)} points")
    z = _transform(x, metric)
    graph = _neighbor_graph(z, n_neighbors)
    n_comp, comp = connected_components(graph, directed=False)
    kept = np.arange(len(x))
    if n_comp > 1:
        sizes = np.bincount(comp)
        keep_id = int(np.argmax(sizes))
        kept = np.flatnonzero(comp == keep_id)
        logger.warning("neighbor graph disconnected: embedding %d of %d points",
                       len(kept), len(x))
        graph = graph[kept][:, kept]
    geo = shortest_path(graph, method="D", directed=False)

    # double centring J G J of G = geo**2, with J = I - 1/n, by row and column means
    g = geo ** 2
    b = -0.5 * (g - g.mean(axis=0) - g.mean(axis=1)[:, None] + g.mean())
    w, u = np.linalg.eigh(b)
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    positive = int((w > 1e-10 * max(w.max(), 1.0)).sum())
    if d > positive:
        raise ValueError(f"requested {d} dimensions but only {positive} positive eigenvalues")
    coords = u[:, :d] * np.sqrt(w[:d])
    coords = coords - coords.mean(axis=0)

    emb = pairwise_sq_dists(coords, coords)
    np.sqrt(emb, out=emb)
    r = np.corrcoef(upper_pairs(geo), upper_pairs(emb))[0, 1]
    return Embedding(coords, float(1.0 - r ** 2), n_neighbors, kept)
