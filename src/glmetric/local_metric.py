"""Batched local-metric solver, Euclidean interpolation, and regional averages.

The solver turns a symmetric bias matrix into the determinant-one PSD metric
whose inverse annihilates it in trace: split the spectrum into the strictly
positive part and the rest, scale each block by the opposite block size, and
normalize the determinant in log space. Zero (and near-zero) eigenvalues are
merged into the negative block, with their magnitudes clamped at
eps_rel * max|eigenvalue| (eps_rel = DEFAULT_EPS_REL = 1e-9) so the metric
stays positive definite; both blocks must be populated for the trace to
vanish, so (semi)definite inputs fall back to the determinant-normalized
absolute value, which minimizes the squared trace among unit-determinant
metrics in that regime.

One core solves a whole (N, D, D) stack with one batched eigendecomposition:
local_metric_stack runs it at the rows of a feature matrix, the other solver
functions are single-matrix or list views of it, and interpolation takes the stack.
"""
from dataclasses import dataclass

import numpy as np

from ._linalg import det_normalize_eigs, symmetrize
from ._lloyd import lloyd_best_of, member_means
from .generative import bias_matrices

__all__ = [
    "MetricMatrix",
    "solve_local_metric",
    "local_metric_stack",
    "interpolate_with_euclidean",
    "compute_all_local_metrics",
    "regional_metrics",
]

DEFAULT_EPS_REL = 1e-9


@dataclass(frozen=True, eq=False)
class MetricMatrix:
    """Symmetric PSD matrix acting as a squared-distance metric.

    det_normalized metrics carry determinant 1 within 1e-6. degenerate marks
    identity fallbacks at points where the bias matrix vanished.
    """

    matrix: np.ndarray
    det_normalized: bool = False
    degenerate: bool = False

    def __post_init__(self):
        m = _check_stack(np.asarray(self.matrix, dtype=float)[None], self.det_normalized)
        object.__setattr__(self, "matrix", m[0])

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, dim, degenerate=False):
        return cls(np.eye(dim), det_normalized=True, degenerate=degenerate)

    def to_dict(self):
        return {"matrix": self.matrix.tolist(), "det_normalized": self.det_normalized,
                "degenerate": self.degenerate}

    @classmethod
    def from_dict(cls, d):
        """The metric of a to_dict object. Other keys, such as the provenance
        that older metric files carry, are ignored."""
        return cls(np.asarray(d["matrix"], dtype=float), d["det_normalized"],
                   d.get("degenerate", False))


def _check_stack(stack, det_normalized):
    """The symmetrized float (N, D, D) stack, after the checks that a
    MetricMatrix makes of its matrix, in one batched pass: every row finite,
    symmetric within 1e-12 of its largest magnitude (at least 1), positive
    semidefinite by a batched eigvalsh and, when det_normalized, of unit
    determinant within 1e-6. A row that fails raises ValueError."""
    m = np.asarray(stack, dtype=float)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise ValueError(f"metric matrix must be square, got shape {m.shape[1:]}")
    if not np.isfinite(m).all():
        raise ValueError("metric matrix must be finite")
    scale = np.maximum(1.0, np.abs(m).max(axis=(1, 2)))
    if (np.abs(m - m.transpose(0, 2, 1)).max(axis=(1, 2)) >= 1e-12 * scale).any():
        raise ValueError("metric matrix must be symmetric")
    m = symmetrize(m)
    w = np.linalg.eigvalsh(m)  # ascending per row
    if (w[:, 0] < -1e-10 * np.maximum(w[:, -1], 0.0)).any():
        raise ValueError("metric matrix must be positive semidefinite")
    if det_normalized:
        # a row with an eigenvalue <= 0 has no finite log determinant and fails
        log_det = np.log(np.maximum(w, np.finfo(float).tiny)).sum(axis=1)
        if ((w[:, 0] <= 0) | (np.abs(np.exp(log_det) - 1.0) >= 1e-6)).any():
            raise ValueError("det_normalized metric must have unit determinant")
    return m


def _split_stack(b, eps_rel):
    """Descending eigenpairs of a symmetric (N, D, D) stack, the per-row
    threshold eps_rel * max|eigenvalue|, the counts above +eps and below -eps,
    and the rows whose spectrum vanishes (or is not finite)."""
    w, u = np.linalg.eigh(b)
    w, u = w[:, ::-1], u[:, :, ::-1]
    amax = np.abs(w).max(axis=1, initial=0.0)
    degenerate = (amax == 0.0) | ~np.isfinite(amax)
    eps = eps_rel * amax[:, None]
    # a vanishing or non-finite spectrum counts no eigenvalue on either side
    return w, u, eps, (w > eps).sum(axis=1), (w < -eps).sum(axis=1), degenerate


def _solve_stack(b, eps_rel):
    """solve_local_metric over a symmetric (N, D, D) stack: the metrics and the
    degenerate mask, whose rows are the identity.

    A row whose largest magnitude is positive and below 2**-900 is first
    scaled by the exact power of two that brings it into [0.5, 1): the
    solution ignores a positive factor, and the eigensolver loses the
    determinant of a row that far down (subnormal entries in particular)."""
    amax = np.abs(b).max(axis=(1, 2), initial=0.0)
    tiny = (amax > 0.0) & (amax < 2.0 ** -900)
    if tiny.any():
        b = b.copy()
        b[tiny] = np.ldexp(b[tiny], -np.frexp(amax[tiny])[1][:, None, None])
    w, u, eps, d_plus, d_minus, degenerate = _split_stack(b, eps_rel)
    clamped = np.maximum(np.abs(w), eps)
    # zeros are merged into the negative block
    blocks = np.where(w > eps, d_plus[:, None] * w, (w.shape[1] - d_plus)[:, None] * clamped)
    m = np.where(((d_plus == 0) | (d_minus == 0))[:, None], clamped, blocks)
    m[degenerate] = 1.0
    stack = symmetrize((u * det_normalize_eigs(m)[:, None, :]) @ u.transpose(0, 2, 1))
    stack[degenerate] = np.eye(w.shape[1])
    return stack, degenerate


def local_metric_stack(x, ms):
    """(N, D, D) stack of determinant-one local metrics at the rows of x, and
    the (N,) degenerate mask.

    Bias matrices are assembled in one vectorized pass (scale-free, which the
    solver ignores) and solved with one batched eigendecomposition. Rows where
    every class density underflows have a zero bias matrix, so they come back
    as the identity with the degenerate flag.
    """
    biases, _ = bias_matrices(x, ms, scale_free=True)
    return _solve_stack(biases, DEFAULT_EPS_REL)


def _check_symmetric(matrix):
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("bias matrix must be square")
    if np.abs(matrix - matrix.T).max() > 1e-8 * max(1.0, np.abs(matrix).max()):
        raise ValueError("bias matrix is not symmetric within tolerance")
    return symmetrize(matrix)


def solve_local_metric(matrix):
    """Determinant-one PSD metric M minimizing Trace[M^-1 B]^2 for a
    symmetric input B.

    For an indefinite B the trace is exactly zero: eigenvalues above the
    relative threshold are scaled by the positive count, the rest by the
    complementary count with magnitudes clamped at the threshold. For a
    (semi)definite B there is no interior zero, and the minimizer is the
    determinant-normalized absolute value. A vanishing B yields the identity
    metric with the degenerate flag set.
    """
    stack, degenerate = _solve_stack(_check_symmetric(matrix)[None], DEFAULT_EPS_REL)
    return MetricMatrix(stack[0], det_normalized=True, degenerate=bool(degenerate[0]))


def _as_stack(metrics):
    """The (N, D, D) float array of a metric stack or of a sequence of MetricMatrix."""
    stack = np.asarray(metrics if isinstance(metrics, np.ndarray)
                       else [m.matrix for m in metrics], dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or len(stack) == 0:
        raise ValueError(f"expected a non-empty (N, D, D) stack of metrics, got shape {stack.shape}")
    return stack


def interpolate_with_euclidean(stack, lam_int):
    """Convex combination (1 - lam) * M + lam * I of each metric of an (N, D, D)
    stack of unit-determinant metrics, renormalized to unit determinant.
    lam_int = 0 returns the checked input stack unchanged."""
    if not (0.0 <= lam_int <= 1.0):
        raise ValueError("interpolation weight must lie in [0, 1]")
    checked = _as_stack(stack)
    if lam_int == 0.0:
        return checked
    blended = (1.0 - lam_int) * checked + lam_int * np.eye(checked.shape[-1])
    w, u = np.linalg.eigh(blended)
    return symmetrize((u * det_normalize_eigs(w)[:, None, :]) @ u.transpose(0, 2, 1))


def compute_all_local_metrics(train, ms):
    """One determinant-normalized local metric per training point: the rows
    of local_metric_stack as MetricMatrix objects, in the row order of the
    training features. The stack is validated once, in one batched pass of
    the MetricMatrix checks."""
    stack, degenerate = local_metric_stack(train.features, ms)
    metrics = []
    for m, bad in zip(_check_stack(stack, det_normalized=True), degenerate):
        metric = object.__new__(MetricMatrix)  # its row is checked: skip __post_init__
        metric.__dict__.update(matrix=m, det_normalized=True, degenerate=bool(bad))
        metrics.append(metric)
    return metrics


def regional_metrics(local_metrics, x, p, seed):
    """Average local metrics, an (N, D, D) stack or N MetricMatrix, within each
    cell of a Euclidean k-means partition (the best of 10 seeded k-means++ runs).

    Returns (list of p regional MetricMatrix, assignment vector). Regional
    averages are plain arithmetic means and are not re-normalized to unit
    determinant. p = 1 reproduces the uniform combination: one-cluster
    k-means assigns every point to cell 0.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if not (1 <= p <= n):
        raise ValueError("partition count must lie in [1, N]")
    stack = _as_stack(local_metrics)
    if len(stack) != n:
        raise ValueError("one local metric per row of x is required")
    assign, _, _, _ = lloyd_best_of(x, p, np.random.default_rng(seed))
    # lloyd leaves no cell empty: it raises when there are fewer distinct points than p
    means = member_means(stack, assign, p)
    return [MetricMatrix(m) for m in means], assign
