"""Gaussian class-conditional models: densities, Hessians, and bias matrices.

The bias matrix at a point combines the per-class density Hessians so that its
trace against an inverse metric measures how much a nearest-neighbor rule with
that metric deviates, to first order, from its large-sample error. All density
arithmetic happens in log space; bias matrices are assembled from densities
shifted by the per-point maximum log density, since every downstream consumer
is invariant to positive rescaling.
"""
import logging
from dataclasses import dataclass

import numpy as np

from ._linalg import symmetrize

__all__ = [
    "GenerativeModelSet",
    "fit_gaussian_models",
    "log_density",
    "density",
    "hessian",
    "bias_matrix",
    "bias_matrices",
    "asymptotic_error_mc",
    "bias_integrand",
]

logger = logging.getLogger(__name__)

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True, eq=False)
class GenerativeModelSet:
    """One Gaussian per class, stacked over the C classes: means (C, D),
    covariances and their cached precisions (C, D, D), log determinants and
    priors (C,). The priors sum to one."""

    means: np.ndarray
    covariances: np.ndarray
    precisions: np.ndarray
    log_dets: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        cov = self.covariances
        # a non-finite row gives its class a NaN trace, which the fit replaces
        # by the lam_cov * I fallback; the NaN stays in the mean
        if not (np.isfinite(self.means).all() and np.isfinite(cov).all()):
            raise ValueError("means and covariances must be finite")
        scale = np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
        if (np.abs(cov - cov.transpose(0, 2, 1)).max(axis=(1, 2)) >= 1e-12 * scale).any():
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("covariance must be positive definite after regularization")
        resid = np.abs(self.precisions @ cov - np.eye(self.dim)).max(axis=(1, 2))
        if (resid > 1e-8 * scale).any():
            raise ValueError("precision is not the inverse of the covariance")
        if not ((self.priors > 0.0) & (self.priors <= 1.0)).all():
            raise ValueError("prior must lie in (0, 1]")
        if abs(self.priors.sum() - 1.0) > 1e-12:
            raise ValueError("class priors must sum to 1")

    @property
    def class_count(self):
        return len(self.means)

    @property
    def dim(self):
        return self.means.shape[1]


def _build_models(means, covs, priors):
    """The checked model set of the stacks, with one batched slogdet and inverse."""
    signs, log_dets = np.linalg.slogdet(covs)
    if (signs <= 0).any():
        raise ValueError("covariance must be positive definite after regularization")
    return GenerativeModelSet(means, covs, np.linalg.inv(covs), log_dets, priors)


def fit_gaussian_models(train, lam_cov=1e-3):
    """Fit one Gaussian per class with scale-relative covariance regularization.

    Per class: mean = sample mean, covariance = biased sample covariance plus
    lam_cov * (trace/D) * I, prior = class fraction. A class whose sample
    covariance has zero trace (fewer than two distinct points) falls back to
    lam_cov * I. Raises for an absent class or a covariance that stays
    singular.
    """
    return _fit_classes(train.features, train.labels, range(train.class_count), lam_cov)


def _fit_classes(x, labels, classes, lam_cov):
    """fit_gaussian_models with model c fitted to the rows of x labelled
    classes[c]; rows with a label outside classes are left out."""
    d = x.shape[1]
    means, covs, counts = [], [], []
    for c in classes:
        xc = x[labels == c]
        if len(xc) == 0:
            raise ValueError(f"class {c} has no samples")
        mean = xc.mean(axis=0)
        centered = xc - mean
        cov = (centered.T @ centered) / len(xc)
        tr = np.trace(cov)
        if tr > 0:
            cov = cov + lam_cov * (tr / d) * np.eye(d)
        else:
            cov = lam_cov * np.eye(d)
        means.append(mean)
        covs.append(symmetrize(cov))
        counts.append(len(xc))
    return _build_models(np.array(means), np.array(covs), np.array(counts) / sum(counts))


def log_density(ms: GenerativeModelSet, x):
    """(C,) class log densities at the point x, finite where a density underflows."""
    return _log_density_batch(ms, np.asarray(x, dtype=float)[None])[0]


def density(ms: GenerativeModelSet, x):
    """(C,) class densities at x; each underflows to exactly 0.0 far in the tails."""
    return np.exp(log_density(ms, x))


def _hessian_factors(ms, x):
    """(C, D, D) P d d^T P - P at the point x, d = x - mean: Hessian / density."""
    a = ms.precisions @ (np.asarray(x, dtype=float) - ms.means)[:, :, None]
    return a @ a.transpose(0, 2, 1) - ms.precisions


def hessian(ms: GenerativeModelSet, x):
    """(C, D, D) class density Hessians at x: p(x) (P d d^T P - P), d = x - mean."""
    return symmetrize(density(ms, x)[:, None, None] * _hessian_factors(ms, x))


def _log_density_batch(ms, x):
    """(N, C) log densities for every row of x under every class model."""
    out = np.empty((x.shape[0], ms.class_count))
    for c, (mean, precision, log_det) in enumerate(zip(ms.means, ms.precisions, ms.log_dets)):
        delta = x - mean
        q = np.einsum("ni,ij,nj->n", delta, precision, delta)
        out[:, c] = -0.5 * (ms.dim * _LOG_2PI + log_det + q)
    return out


def bias_matrices(x, ms: GenerativeModelSet, scale_free=True):
    """Bias matrices for every row of x, plus per-point degeneracy flags.

    With scale_free=True (the default for metric computation) each matrix is
    the true bias matrix times exp(-3 * max class log density at the point),
    a positive factor that the spectral solver ignores; this keeps assembly
    well scaled in the tails. With scale_free=False the true-scale matrices
    are returned. A point is degenerate when every class density underflows
    to zero; its matrix is zero.

    Priors weight the densities multiplicatively only when they are unequal.
    """
    if ms.class_count < 2:
        raise ValueError("bias matrices need at least two classes")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, d = x.shape
    logs = _log_density_batch(ms, x)
    if ms.priors.max() - ms.priors.min() > 1e-12:
        logs = logs + np.log(ms.priors)
    max_log = logs.max(axis=1)
    degenerate = ~np.isfinite(max_log) | (np.exp(max_log) == 0.0)
    q = np.exp(logs - max_log[:, None])  # rows have max 1
    # per-class weight: sum of squared other-class densities minus own density
    # times the sum of the others; summed with self excluded rather than
    # subtracted out, which would absorb tiny classes into the dominant one
    w = np.empty_like(q)
    classes = q.shape[1]
    for c in range(classes):
        others = [j for j in range(classes) if j != c]
        w[:, c] = (q[:, others] ** 2).sum(axis=1) - q[:, c] * q[:, others].sum(axis=1)
    u = q * w
    a = np.empty((n, ms.class_count, d))
    for c, (mean, precision) in enumerate(zip(ms.means, ms.precisions)):
        a[:, c, :] = (x - mean) @ precision
    bias = np.einsum("nc,ncd,nce->nde", u, a, a) - np.einsum("nc,cde->nde", u, ms.precisions)
    bias = 0.5 * (bias + bias.transpose(0, 2, 1))
    bias[degenerate] = 0.0
    if not scale_free:
        with np.errstate(over="ignore", under="ignore"):
            bias = bias * np.exp(3.0 * max_log)[:, None, None]
        bias[degenerate] = 0.0
    return bias, degenerate


def bias_matrix(x, ms: GenerativeModelSet):
    """True-scale bias matrix at a single point.

    Returns (matrix, degenerate). The matrix is zero and the flag set when
    every class density underflows at x.
    """
    bias, degenerate = bias_matrices(x, ms, scale_free=False)
    return bias[0], bool(degenerate[0])


def asymptotic_error_mc(ms: GenerativeModelSet, samples, seed):
    """Importance-sampling estimate of the large-sample nearest-neighbor error.

    Binary, equal-prior form: the integral of p1 p2 / (p1 + p2), estimated
    with the balanced mixture (p1 + p2)/2 as the proposal. Returns
    (estimate, standard error).
    """
    if ms.class_count != 2:
        raise ValueError("asymptotic error estimate is defined for two classes")
    rng = np.random.default_rng(seed)
    comp = rng.integers(0, 2, size=samples)
    z = rng.standard_normal((samples, ms.dim))
    (mean1, mean2), (chol1, chol2) = ms.means, np.linalg.cholesky(ms.covariances)
    x = np.where(comp[:, None] == 0, mean1 + z @ chol1.T, mean2 + z @ chol2.T)
    logs = _log_density_batch(ms, x)
    # ratio = p1 p2 / ((p1+p2) * mixture) = 2 p1 p2 / (p1+p2)^2
    lse = np.logaddexp(logs[:, 0], logs[:, 1])
    ratio = np.exp(np.log(2.0) + logs[:, 0] + logs[:, 1] - 2.0 * lse)
    est = float(ratio.mean())
    stderr = float(ratio.std(ddof=1) / np.sqrt(samples))
    return est, stderr


def bias_integrand(x, metric_matrix, ms: GenerativeModelSet):
    """Pointwise metric-dependent factor of the finite-sample bias (binary).

    Value: p1 p2 (p2 - p1) / (p1 + p2)^2 * Trace[M^-1 (H1/p1 - H2/p2)] where
    H_c is the density Hessian. Diagnostic only; the Trace factor vanishes at
    a metric produced by the local solver.
    """
    if ms.class_count != 2:
        raise ValueError("bias integrand is defined for two classes")
    m = np.asarray(getattr(metric_matrix, "matrix", metric_matrix), dtype=float)
    if np.linalg.cond(m) > 1e14:
        raise ValueError("singular metric")
    logs = log_density(ms, x)
    shift = logs.max()
    p = np.exp(logs - shift)  # densities up to exp(shift)
    dens = p[0] * p[1] * (p[1] - p[0]) / (p[0] + p[1]) ** 2 * np.exp(shift)
    bs = _hessian_factors(ms, x)
    return float(dens * np.trace(np.linalg.solve(m, bs[0] - bs[1])))
