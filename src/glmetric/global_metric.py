"""Global metrics from local ones: uniform and density-weighted combinations,
the induced square-root transform, and the fixed-point diagnostic.

The density-weighted combination iterates: estimate a density at every
training point in the current coordinates, average the fixed local metrics
with the normalized densities as weights, transform the coordinates by the
square root of that average, and repeat. The returned metric is expressed in
the original coordinates by composing the per-iteration factors.
"""
import logging
from dataclasses import dataclass

import numpy as np

from ._linalg import pairwise_sq_dists, sym_sqrt, symmetrize
from .classify import knn_predict_batch
from .dataset import LabeledDataset
from .generative import _log_density_batch, bias_matrices, fit_gaussian_models
from .local_metric import MetricMatrix, _as_stack, local_metric_stack

__all__ = [
    "TransformFactor",
    "uniform_combination",
    "metric_sqrt_transform",
    "select_kde_bandwidth",
    "density_weighted_combination",
    "fixed_point_residual",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class TransformFactor:
    """Symmetric PSD factor L with L^T L equal to the source metric."""

    L: np.ndarray
    source: MetricMatrix

    def __post_init__(self):
        m = self.source.matrix
        err = np.abs(self.L.T @ self.L - m).max()
        if err > 1e-8 * max(1.0, np.abs(m).max()):
            raise ValueError("factor does not reproduce the source metric")

    def transform(self, x):
        return np.asarray(x, dtype=float) @ self.L  # L symmetric, so rows map by L


def uniform_combination(local_metrics):
    """Arithmetic mean of the local metrics (PSD by convexity), given as a
    sequence of MetricMatrix or as an (N, D, D) stack."""
    stack = _as_stack(local_metrics)
    # same contraction as the weighted combination, so uniform weights there
    # reproduce this result bit for bit
    weights = np.full(len(stack), 1.0 / len(stack))
    return MetricMatrix(np.einsum("n,nij->ij", weights, stack), "global:UNI")


def metric_sqrt_transform(metric: MetricMatrix):
    """Principal square root of the metric as a TransformFactor."""
    return TransformFactor(sym_sqrt(metric.matrix), metric)


def _kde_log_density(sq_dists, dim, sigma):
    """Log of (1/h) sum_i exp(-||q - x_i||^2 / sigma^2), h normalizing to 1, for
    every row of the query-to-train squared distances of dim-dimensional points."""
    log_h = np.log(sq_dists.shape[1]) + 0.5 * dim * np.log(np.pi) + dim * np.log(sigma)
    sq = sq_dists / sigma ** 2
    m = -sq.min(axis=1)
    with np.errstate(under="ignore"):
        lse = m + np.log(np.exp(-sq - m[:, None]).sum(axis=1))
    return lse - log_h


def select_kde_bandwidth(x_train, x_val):
    """Bandwidth maximizing the validation log likelihood.

    Candidates are 2^j (j = -3..3) times the median pairwise distance of the
    training points; ties pick the smaller bandwidth.
    """
    d = pairwise_sq_dists(x_train, x_train)
    iu = np.triu_indices(len(x_train), 1)
    med = float(np.sqrt(np.median(d[iu])))
    if med <= 0:
        raise ValueError("degenerate training set: zero median pairwise distance")
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
    present = np.unique(labels)
    remap = np.full(labels.max() + 2 if len(labels) else 1, -1)
    remap[present] = np.arange(len(present))
    ds = LabeledDataset(features, remap[labels], len(present))
    return fit_gaussian_models(ds, lam_cov)


def _mixture_log_density(ms, x):
    logs = _log_density_batch(ms.models, x) + np.log([m.prior for m in ms.models])
    m = logs.max(axis=1)
    with np.errstate(under="ignore"):
        return m + np.log(np.exp(logs - m[:, None]).sum(axis=1))


def density_weighted_combination(train, validation, estimator_kind="kde",
                                 max_iter=20, ms_refit=True, lam_cov=1e-3,
                                 weights_fn=None, return_info=False):
    """Iterated density-weighted average of the local metrics.

    estimator_kind is "kde" (bandwidth re-tuned on the validation portion each
    iteration), "gmm" (per-class Gaussians; with ms_refit the training points
    are re-labeled each iteration by 3-NN against the validation portion, which
    makes the density metric-dependent), or "custom" (weights_fn(x, v, t) must
    return per-point weights). Weights are normalized to sum to one, so every
    iterate is a convex combination; if every density underflows the iteration
    falls back to uniform weights and logs a warning.

    Returns the composed metric in the original coordinates; with
    return_info=True also a dict with the weight trajectory, the KDE
    bandwidths, and the per-iteration factors.
    """
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
    combined = None
    for it in range(max_iter):
        if weights_fn is not None:
            w = np.asarray(weights_fn(x, v, it), dtype=float)
        elif estimator_kind == "kde":
            sigma = select_kde_bandwidth(x, v)
            info["bandwidths"].append(sigma)
            with np.errstate(under="ignore"):
                w = np.exp(_kde_log_density(pairwise_sq_dists(x, x), d, sigma))
        elif estimator_kind == "gmm":
            mix = _mixture_from_labels(x, labels, lam_cov)
            logp = _mixture_log_density(mix, x)
            shift = logp.max()
            w = np.exp(logp - shift) if np.isfinite(shift) else np.zeros(len(x))
        else:
            raise ValueError(f"unknown estimator kind {estimator_kind!r}")
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
            if estimator_kind == "gmm" and ms_refit and weights_fn is None:
                ref = LabeledDataset(v, validation.labels, validation.class_count)
                labels = knn_predict_batch(ref, min(3, len(v)), MetricMatrix.identity(d), x)
    total_matrix = symmetrize(t_prev.T @ combined @ t_prev)
    info["factors"].append(sym_sqrt(combined))
    metric = MetricMatrix(total_matrix, f"global:{estimator_kind.upper()}")
    return (metric, info) if return_info else metric


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
