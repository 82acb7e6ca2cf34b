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
    "GaussianModel",
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
class GaussianModel:
    """One class-conditional Gaussian with cached precision and log determinant."""

    mean: np.ndarray
    covariance: np.ndarray
    precision: np.ndarray
    log_det: float
    prior: float

    def __post_init__(self):
        cov = self.covariance
        if np.abs(cov - cov.T).max() >= 1e-12 * max(1.0, np.abs(cov).max()):
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise ValueError("covariance must be positive definite after regularization")
        resid = np.abs(self.precision @ cov - np.eye(len(cov))).max()
        if resid > 1e-8 * max(1.0, np.abs(cov).max()):
            raise ValueError("precision is not the inverse of the covariance")
        if not (0.0 < self.prior <= 1.0):
            raise ValueError("prior must lie in (0, 1]")

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class GenerativeModelSet:
    """One Gaussian per class, priors summing to one."""

    models: tuple
    regularizer: float

    def __post_init__(self):
        if abs(sum(m.prior for m in self.models) - 1.0) > 1e-12:
            raise ValueError("class priors must sum to 1")

    @property
    def class_count(self):
        return len(self.models)

    @property
    def dim(self):
        return self.models[0].dim

    @property
    def equal_priors(self):
        p = [m.prior for m in self.models]
        return max(p) - min(p) <= 1e-12

    def to_dict(self):
        return {
            "regularizer": self.regularizer,
            "models": [
                {"mean": m.mean.tolist(), "covariance": m.covariance.tolist(),
                 "prior": m.prior}
                for m in self.models
            ],
        }

    @classmethod
    def from_dict(cls, d):
        models = []
        for md in d["models"]:
            cov = np.asarray(md["covariance"], dtype=float)
            models.append(_build_model(np.asarray(md["mean"], dtype=float), cov, md["prior"]))
        return cls(tuple(models), d["regularizer"])


def _build_model(mean, cov, prior):
    sign, log_det = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance must be positive definite after regularization")
    return GaussianModel(mean, cov, np.linalg.inv(cov), float(log_det), float(prior))


def fit_gaussian_models(train, lam_cov=1e-3):
    """Fit one Gaussian per class with scale-relative covariance regularization.

    Per class: mean = sample mean, covariance = biased sample covariance plus
    lam_cov * (trace/D) * I, prior = class fraction. A class whose sample
    covariance has zero trace (fewer than two distinct points) falls back to
    lam_cov * I. Raises for an absent class or a covariance that stays
    singular.
    """
    x, y = train.features, train.labels
    n, d = x.shape
    models = []
    for c in range(train.class_count):
        xc = x[y == c]
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
        models.append(_build_model(mean, symmetrize(cov), len(xc) / n))
    return GenerativeModelSet(tuple(models), float(lam_cov))


def log_density(model: GaussianModel, x):
    """Finite log density, even where the density itself underflows."""
    return _log_density_batch([model], np.asarray(x, dtype=float)[None])[0, 0]


def density(model: GaussianModel, x):
    """Gaussian density; underflows to exactly 0.0 far in the tails."""
    return float(np.exp(log_density(model, x)))


def hessian(model: GaussianModel, x):
    """Second derivative matrix of the density: p(x) (P d d^T P - P), d = x - mean."""
    delta = np.asarray(x, dtype=float) - model.mean
    a = model.precision @ delta
    h = np.exp(log_density(model, x)) * (np.outer(a, a) - model.precision)
    return symmetrize(h)


def _log_density_batch(models, x):
    """(N, C) log densities for every row of x under every class model."""
    out = np.empty((x.shape[0], len(models)))
    for c, m in enumerate(models):
        delta = x - m.mean
        q = np.einsum("ni,ij,nj->n", delta, m.precision, delta)
        out[:, c] = -0.5 * (m.dim * _LOG_2PI + m.log_det + q)
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
    logs = _log_density_batch(ms.models, x)
    if not ms.equal_priors:
        logs = logs + np.log([m.prior for m in ms.models])
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
    precisions = np.stack([m.precision for m in ms.models])
    for c, m in enumerate(ms.models):
        a[:, c, :] = (x - m.mean) @ m.precision
    bias = np.einsum("nc,ncd,nce->nde", u, a, a) - np.einsum("nc,cde->nde", u, precisions)
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
    m1, m2 = ms.models
    comp = rng.integers(0, 2, size=samples)
    d = ms.dim
    z = rng.standard_normal((samples, d))
    chol1 = np.linalg.cholesky(m1.covariance)
    chol2 = np.linalg.cholesky(m2.covariance)
    x = np.where(comp[:, None] == 0, m1.mean + z @ chol1.T, m2.mean + z @ chol2.T)
    logs = _log_density_batch((m1, m2), x)
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
    x = np.asarray(x, dtype=float)
    m1, m2 = ms.models
    logs = np.array([log_density(m1, x), log_density(m2, x)])
    shift = logs.max()
    p = np.exp(logs - shift)  # densities up to exp(shift)
    dens = p[0] * p[1] * (p[1] - p[0]) / (p[0] + p[1]) ** 2 * np.exp(shift)
    bs = []
    for mdl in (m1, m2):
        a = mdl.precision @ (x - mdl.mean)
        bs.append(np.outer(a, a) - mdl.precision)
    return float(dens * np.trace(np.linalg.solve(m, bs[0] - bs[1])))
