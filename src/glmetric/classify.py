"""Distance computation, kNN and energy classifiers, and validation tuning.

Distances follow the squared-form convention throughout: d(x, x') is the
quadratic form (x - x')^T M (x - x'), not its square root. Predictions are
deterministic; every tie rule is spelled out in the docstrings.
"""
import time
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _check_finite, pairwise_sq_dists
from .generative import fit_gaussian_models
from .local_metric import MetricMatrix, interpolate_with_euclidean, local_metric_stack

__all__ = [
    "TunedResult",
    "knn_predict_batch",
    "energy_predict_batch",
    "margin_candidates",
    "tune_and_test",
    "DEFAULT_K_GRID",
    "DEFAULT_LAMBDA_GRID",
    "DEFAULT_BETA_GRID",
]

DEFAULT_K_GRID = (1, 3, 5, 7, 9, 11)
DEFAULT_LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_BETA_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)

# bound on the bytes of the (n, D*D) table of train outer products that the
# glm_int distances hold at once
OUTER_TABLE_BYTES = 2 ** 24


@dataclass
class TunedResult:
    """Winner of a validation grid search plus the full grid table."""

    method: str
    chosen: dict
    validation_error: float
    test_error: float
    grid: list = field(default_factory=list)
    timing: dict = field(default_factory=dict)


def knn_predict_batch(train, k, metric: MetricMatrix, queries):
    """Majority-vote kNN labels for every row of queries under the metric.
    Ties go to the smaller sum of member distances, then to the lower class
    index. Non-finite distances raise ValueError."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > train.n:
        raise ValueError("k exceeds the training size")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = pairwise_sq_dists(queries, train.features, metric.matrix)
    return _vote_grid(d, train.labels, train.class_count, (k,))[0]


def _vote_grid(d, labels, class_count, k_grid):
    """Majority-vote labels for every k of k_grid, as a (len(k_grid), nq) array.

    Ties go to the smaller sum of member distances, then to the lower class
    index. Each class sum adds its members in neighbor order. One partition
    at the largest k below n, sorted, gives every such k its neighbors as a
    prefix, so an untied row adds its sums in ascending-distance order. A
    row whose k-th and (k+1)-th smallest distances are equal takes its k
    neighbors from argpartition(d[row], k) instead, so the tied set and its
    summation order are the ones a per-k partition picks. A k of at least n
    takes every point. Non-finite distances raise ValueError.

    On an untied row a per-k partition picks the same neighbors, but may add
    them in another order; a count tie between classes whose sums differ
    only by that rounding could then flip. Equality with the per-k vote on
    every reachable split was checked by a sweep, not guaranteed.
    """
    _check_finite(d)
    nq, n = d.shape
    top = max((k for k in k_grid if k < n), default=0)
    if top:
        part = np.argpartition(d, top, axis=1)[:, :top + 1]
        order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1, kind="stable")
        ranked = np.take_along_axis(part, order, axis=1)
        ranked_d = np.take_along_axis(d, ranked, axis=1)
    out = np.empty((len(k_grid), nq), dtype=np.intp)
    for g, k in enumerate(k_grid):
        if k < n:
            idx = ranked[:, :k].copy()
            tied = np.flatnonzero(ranked_d[:, k - 1] == ranked_d[:, k])
            idx[tied] = np.argpartition(d[tied], k, axis=1)[:, :k]
        else:
            idx = np.broadcast_to(np.arange(n), (nq, n))
        near = np.take_along_axis(d, idx, axis=1)
        member = labels[idx][:, :, None] == np.arange(class_count)
        counts = member.sum(axis=1)
        sums = np.where(member, near[:, :, None], 0.0).sum(axis=1)
        out[g] = np.where(counts == counts.max(1, keepdims=True), sums, np.inf).argmin(1)
    return out


def _sorted_by_class(d, labels, class_count, k):
    """The k smallest distances of every row to each class and to the points
    outside it: (own, other), both C-ordered (nq, class_count, <=k), ascending.

    C order makes each energy sum add its terms in the order a 1-D sum of
    the same values would (numpy sums along a contiguous last axis pairwise).
    Non-finite distances raise ValueError.
    """
    _check_finite(d)
    own = [np.sort(np.compress(labels == c, d, axis=1), axis=1)[:, :k]
           for c in range(class_count)]
    other = [np.sort(np.compress(labels != c, d, axis=1), axis=1)[:, :k]
             for c in range(class_count)]
    return np.stack(own, axis=1), np.stack(other, axis=1)


def _energy_labels(parts, k, margin):
    """Lowest-energy class for every row, from the _sorted_by_class parts."""
    own, other = parts[0][:, :, :k], parts[1][:, :, :k]
    hinge = np.maximum(0.0, margin + own[..., :, None] - other[..., None, :])
    n_q, n_c, n_own, n_other = hinge.shape
    energy = own.sum(axis=2) + hinge.reshape(n_q, n_c, n_own * n_other).sum(axis=2)
    return energy.argmin(axis=1)


def energy_predict_batch(train, k, margin, metric: MetricMatrix, queries):
    """Labels minimizing the neighbor-distance-plus-hinge energy.

    For a class c the energy is the sum of distances to its k nearest members
    plus, for every pair of a same-class neighbor and an other-class
    neighbor, max(0, margin + d_same - d_other). Ties pick the lower class
    index. Non-finite distances raise ValueError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    counts = np.bincount(train.labels, minlength=train.class_count)
    if counts.min() < k:
        raise ValueError("every class needs at least k members")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = pairwise_sq_dists(queries, train.features, metric.matrix)
    parts = _sorted_by_class(d, train.labels, train.class_count, k)
    return _energy_labels(parts, k, margin)


def margin_candidates(train, metric: MetricMatrix, beta_grid=DEFAULT_BETA_GRID):
    """Candidate margins beta * gamma0, clipped at zero.

    gamma0 is the median over training points of (distance to the nearest
    other-class point) minus (distance to the nearest same-class point,
    excluding the point itself), measured under the metric.
    """
    if train.class_count < 2:
        raise ValueError("margins need at least two classes")
    d = pairwise_sq_dists(train.features, train.features, metric.matrix)
    np.fill_diagonal(d, np.inf)
    same = train.labels[:, None] == train.labels[None, :]
    diffs = np.where(~same, d, np.inf).min(axis=1) - np.where(same, d, np.inf).min(axis=1)
    if not np.isfinite(diffs).all():
        raise ValueError("every training point needs a same-class and an other-class neighbor")
    gamma0 = float(np.median(diffs))
    return [max(0.0, float(b) * gamma0) for b in beta_grid]


def _outer_rows(x):
    """vec(x_j x_j^T) of every row of x: an (n, D*D) table."""
    return np.einsum("ij,ik->ijk", x, x).reshape(len(x), -1)


def _per_query_sq_dists(q, ms, x):
    """d[i, j] = (q_i - x_j)^T M_i (q_i - x_j) for a per-query (nq, D, D) stack ms.

    The train term vec(M_i) . vec(x_j x_j^T) is a product with the
    _outer_rows table of x, built and used in chunks of train rows of at
    most OUTER_TABLE_BYTES each (one chunk when the whole table fits). Tiny
    negative values from cancellation are clipped to 0, as in
    pairwise_sq_dists.
    """
    qm = np.einsum("ij,ijk->ik", q, ms)
    rq = np.einsum("ij,ij->i", qm, q)
    flat = ms.reshape(len(ms), -1)
    step = max(1, OUTER_TABLE_BYTES // (8 * flat.shape[1]))
    rx = np.empty((len(q), len(x)))
    for s in range(0, len(x), step):
        rx[:, s:s + step] = flat @ _outer_rows(x[s:s + step]).T
    d = rq[:, None] + rx - 2.0 * (qm @ x.T)
    return np.clip(d, 0.0, None)


def _vote_errors(train, labels, k_grid, second_grid, dists):
    """Error per (k, p), p-major, of the majority vote on the (nq, n)
    distance matrix dists(p), voted once for all of k_grid."""
    errors = {}
    for p in second_grid:
        preds = _vote_grid(dists(p), train.labels, train.class_count, k_grid)
        for k, pred in zip(k_grid, preds):
            errors[(k, p)] = float(np.mean(pred != labels))
    return errors


def _glm_int_errors(train, queries, labels, ms, k_grid, lam_grid):
    """Error per (k, lam) using a per-query interpolated local metric."""
    base, _ = local_metric_stack(queries.features, ms)
    return _vote_errors(train, labels, k_grid, lam_grid, lambda lam: _per_query_sq_dists(
        queries.features, interpolate_with_euclidean(base, lam), train.features))


def tune_and_test(method, train, validation, test, *, metric=None, lam_cov=1e-3,
                  k_grid=DEFAULT_K_GRID, lam_grid=DEFAULT_LAMBDA_GRID,
                  beta_grid=DEFAULT_BETA_GRID):
    """Grid search on the validation portion, then score the winner on test.

    method is one of "knn" (requires metric; tunes k), "glm_int" (fits
    Gaussians on train and uses a per-query interpolated local metric; tunes
    k and the interpolation weight), or "energy" (requires metric; tunes k
    and the margin scale beta). Ties prefer the smaller k, then the smaller
    second parameter. The method's one scorer, errors(portion, k_grid,
    second_grid) -> {(k, p): error}, scores the validation grid and then the
    test portion at the winner. Returns a TunedResult with the full grid table.
    """
    k_grid = tuple(int(k) for k in k_grid)
    if any(k > train.n for k in k_grid):
        k_grid = tuple(k for k in k_grid if k <= train.n)
    if not k_grid:
        raise ValueError("no feasible k in the grid")
    t0 = time.perf_counter()
    if method in ("knn", "energy") and metric is None:
        raise ValueError(f"{method} tuning requires a metric")
    if method == "knn":
        second, params = (0.0,), lambda _: {}

        def errors(portion, ks, ps):
            d = pairwise_sq_dists(portion.features, train.features, metric.matrix)
            return _vote_errors(train, portion.labels, ks, ps, lambda _: d)
    elif method == "glm_int":
        ms = fit_gaussian_models(train, lam_cov)
        second, params = tuple(lam_grid), lambda lam: {"lam_int": lam}

        def errors(portion, ks, ps):
            return _glm_int_errors(train, portion, portion.labels, ms, ks, ps)
    elif method == "energy":
        margins = dict(zip(beta_grid, margin_candidates(train, metric, beta_grid)))
        second, params = tuple(beta_grid), lambda beta: {"beta": beta, "margin": margins[beta]}
        max_k = int(np.bincount(train.labels, minlength=train.class_count).min())

        def errors(portion, ks, ps):
            # k-major; each class is sorted once, at the largest feasible k
            d = pairwise_sq_dists(portion.features, train.features, metric.matrix)
            ks = [k for k in ks if k <= max_k]
            if not ks or not ps:
                raise ValueError("no feasible (k, beta) candidate")
            parts = _sorted_by_class(d, train.labels, train.class_count, max(ks))
            return {(k, b): float(np.mean(_energy_labels(parts, k, margins[b]) != portion.labels))
                    for k in ks for b in ps}
    else:
        raise ValueError(f"unknown method {method!r}")

    table = errors(validation, k_grid, second)
    grid = [{"k": k, **params(p), "validation_error": err} for (k, p), err in table.items()]
    err, k, p = min((err, k, p) for (k, p), err in table.items())
    t1 = time.perf_counter()
    test_err = errors(test, (k,), (p,))[(k, p)]
    t2 = time.perf_counter()
    return TunedResult(method, {"k": k, **params(p)}, err, test_err, grid,
                       {"tuning_s": t1 - t0, "testing_s": t2 - t1})
