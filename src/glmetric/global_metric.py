"""Global metrics from local ones: uniform and density-weighted combinations,
and the fixed-point diagnostic.

The density-weighted combination iterates: estimate a density at every
training point in the current coordinates, average the fixed local metrics
with the normalized densities as weights, transform the coordinates by the
square root of that average, and repeat. The returned metric is expressed in
the original coordinates by composing the per-iteration factors.
"""
import logging

import numpy as np

from ._linalg import median_pair_sq_dist, pairwise_sq_dists, sym_sqrt, symmetrize
from .classify import knn_predict_batch
from .dataset import LabeledDataset
from .generative import _fit_classes, _log_density_batch, bias_matrices, fit_gaussian_models
from .local_metric import MetricMatrix, _as_stack, local_metric_stack

__all__ = [
    "uniform_combination",
    "select_kde_bandwidth",
    "density_weighted_combination",
    "fixed_point_residual",
]

logger = logging.getLogger(__name__)


def uniform_combination(local_metrics):
    """Arithmetic mean of the local metrics (PSD by convexity), given as a
    sequence of MetricMatrix or as an (N, D, D) stack."""
    stack = _as_stack(local_metrics)
    # same contraction as the weighted combination, so uniform weights there
    # reproduce this result bit for bit
    weights = np.full(len(stack), 1.0 / len(stack))
    return MetricMatrix(np.einsum("n,nij->ij", weights, stack), "global:UNI")


def _row_logsumexp(logs):
    """Log of the sum of exp(logs) over each row, shifted by the row maximum.
    Works in place: logs is overwritten."""
    m = logs.max(axis=1)
    with np.errstate(under="ignore"):
        logs -= m[:, None]
        np.exp(logs, out=logs)
        return m + np.log(logs.sum(axis=1))


def _kde_log_density(sq_dists, dim, sigma):
    """Log of (1/h) sum_i exp(-||q - x_i||^2 / sigma^2), h normalizing to 1, for
    every row of the query-to-train squared distances of dim-dimensional points.
    Uses one work array the size of sq_dists, which it leaves unchanged."""
    log_h = np.log(sq_dists.shape[1]) + 0.5 * dim * np.log(np.pi) + dim * np.log(sigma)
    work = np.divide(sq_dists, sigma ** 2)
    np.negative(work, out=work)
    return _row_logsumexp(work) - log_h


def select_kde_bandwidth(x_train, x_val):
    """Bandwidth maximizing the validation log likelihood.

    Candidates are 2^j (j = -3..3) times the median pairwise distance of the
    training points; ties pick the smaller bandwidth.
    """
    med = float(np.sqrt(median_pair_sq_dist(x_train)))
    if not med > 0:
        raise ValueError(f"degenerate training set: median pairwise distance {med}")
    d_val = pairwise_sq_dists(x_val, x_train)
    best = None
    for j in range(-3, 4):
        sigma = med * 2.0 ** j
        ll = float(_kde_log_density(d_val, x_train.shape[1], sigma).sum())
        if np.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, sigma)
    if best is None:
        raise ValueError("no bandwidth achieved finite validation likelihood")
    return best[1]


def _mixture_from_labels(features, labels, lam_cov):
    """Class mixture over the labels that are actually present."""
    return _fit_classes(features, labels, np.unique(labels), lam_cov)


def _mixture_log_density(ms, x):
    return _row_logsumexp(_log_density_batch(ms, x) + np.log(ms.priors))


def density_weighted_combination(train, validation, estimator_kind="kde",
                                 max_iter=20, lam_cov=1e-3):
    """Iterated density-weighted average of the local metrics.

    estimator_kind is "kde" (bandwidth re-tuned on the validation portion each
    iteration) or "gmm" (per-class Gaussians; the training points are
    re-labeled each iteration by 3-NN against the validation portion, which
    makes the density metric-dependent). Weights are normalized to sum to one,
    so every iterate is a convex combination; if every density underflows the
    iteration falls back to uniform weights and logs a warning.

    Returns the composed metric in the original coordinates and a dict with
    the weight trajectory, the KDE bandwidths, and the per-iteration factors.
    """
    if estimator_kind not in ("kde", "gmm"):
        raise ValueError(f"unknown estimator kind {estimator_kind!r}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ms = fit_gaussian_models(train, lam_cov)
    stack, _ = local_metric_stack(train.features, ms)
    x = train.features.copy()
    v = validation.features.copy()
    labels = train.labels.copy()
    d = train.dim
    t_prev = np.eye(d)
    info = {"weights": [], "bandwidths": [], "factors": []}
    for it in range(max_iter):
        if estimator_kind == "kde":
            sigma = select_kde_bandwidth(x, v)
            info["bandwidths"].append(sigma)
            with np.errstate(under="ignore"):
                w = np.exp(_kde_log_density(pairwise_sq_dists(x, x), d, sigma))
        else:
            mix = _mixture_from_labels(x, labels, lam_cov)
            logp = _mixture_log_density(mix, x)
            shift = logp.max()
            w = np.exp(logp - shift) if np.isfinite(shift) else np.zeros(len(x))
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            logger.warning("all densities underflowed at iteration %d; uniform weights", it)
            w = np.full(len(x), 1.0 / len(x))
        else:
            w = w / total
        info["weights"].append(w)
        combined = np.einsum("n,nij->ij", w, stack)
        if it + 1 < max_iter:
            factor = sym_sqrt(combined)
            info["factors"].append(factor)
            x = x @ factor
            v = v @ factor
            t_prev = factor @ t_prev
            if estimator_kind == "gmm":
                ref = LabeledDataset(v, validation.labels, validation.class_count)
                labels = knn_predict_batch(ref, min(3, len(v)), MetricMatrix.identity(d), x)
    total_matrix = symmetrize(t_prev.T @ combined @ t_prev)
    info["factors"].append(sym_sqrt(combined))
    return MetricMatrix(total_matrix, f"global:{estimator_kind.upper()}"), info


def fixed_point_residual(train, metric: MetricMatrix, lam_cov=0.0):
    """How far the transformed coordinates are from the self-consistent point.

    Transform the training data by the square root of the metric, refit the
    class Gaussians there, and map the (recomputed) original-space local
    metrics through the induced closed form q = det(L)^(2/D) L^-1 m L^-1,
    which solves the transformed-space optimality conditions whenever the
    fitted models transform covariantly (exact for lam_cov = 0; each mapped
    metric is verified against bias matrices recomputed from the refit
    models, with violations logged). Returns ||mean(q) - c I||_F / (c sqrt(D))
    with c = trace(mean(q)) / D, which vanishes exactly when the metric is
    the uniform combination of the local metrics.
    """
    d = train.dim
    if d == 1:
        return 0.0
    w = np.linalg.eigvalsh(metric.matrix)
    if w.min() <= 1e-12 * w.max():
        raise ValueError("metric must be positive definite")
    factor = sym_sqrt(metric.matrix)
    factor_inv = np.linalg.inv(factor)
    _, logdet_l = np.linalg.slogdet(factor)
    scale = np.exp(2.0 * logdet_l / d)

    ms_x = fit_gaussian_models(train, lam_cov)
    locals_x, degen_x = local_metric_stack(train.features, ms_x)

    z = train.features @ factor
    ms_z = fit_gaussian_models(train.with_features(z), lam_cov)
    biases_z, degen_z = bias_matrices(z, ms_z, scale_free=True)

    keep = ~(degen_x | degen_z)
    if not keep.any():
        raise ValueError("every training point was degenerate")
    mapped = scale * (factor_inv @ locals_x[keep] @ factor_inv)
    bias = biases_z[keep]
    trace = np.abs(np.trace(np.linalg.solve(mapped, bias), axis1=1, axis2=2))
    bound = np.linalg.norm(np.linalg.inv(mapped), axis=(1, 2)) * np.linalg.norm(bias, axis=(1, 2))
    violations = int((trace > 1e-6 * np.maximum(bound, 1e-300)).sum())
    if violations:
        logger.warning("%d/%d mapped metrics violate the transformed optimality "
                       "conditions (models do not transform covariantly, e.g. "
                       "lam_cov > 0)", violations, len(mapped))
    mean = mapped.mean(axis=0)
    c = np.trace(mean) / d
    return float(np.linalg.norm(mean - c * np.eye(d)) / (c * np.sqrt(d)))
