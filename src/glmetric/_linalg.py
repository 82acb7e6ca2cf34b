"""Small shared linear-algebra helpers for symmetric PSD and distance matrices."""
import numpy as np


def symmetrize(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def sym_sqrt(m):
    """Principal square root U diag(sqrt(w)) U^T of a symmetric PSD matrix.

    Eigenvalues below zero (numerical noise) are clipped to zero.
    """
    w, u = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return symmetrize((u * np.sqrt(w)) @ u.T)


def det_normalize_eigs(w):
    """Rescale positive eigenvalues (per stack row) to unit product, in log space."""
    return w / np.exp(np.mean(np.log(w), axis=-1, keepdims=True))


def pairwise_sq_dists(q, x, m=None):
    """Squared Mahalanobis distances between rows of q and rows of x.

    With m=None the metric is the identity. Returns a (len(q), len(x)) array;
    tiny negative values from cancellation are clipped to 0.
    """
    if m is None:
        qm = q
    else:
        qm = q @ m
    rq = np.einsum("ij,ij->i", qm, q)
    rx = np.einsum("ij,ij->i", x if m is None else x @ m, x)
    d = rq[:, None] + rx[None, :] - 2.0 * (qm @ x.T)
    return np.clip(d, 0.0, None)


def median_pair_sq_dist(x, m=None):
    """Median squared Mahalanobis distance (identity metric for m=None) over
    every pair of distinct rows of x; holds all len(x)^2 distances at once."""
    return float(np.median(pairwise_sq_dists(x, x, m)[np.triu_indices(len(x), 1)]))


def _check_finite(d):
    """Raise ValueError, counting the rows, when a query distance matrix is not finite."""
    bad = int(np.sum(~np.isfinite(d).all(axis=1)))
    if bad:
        raise ValueError(f"non-finite distances in {bad} of {len(d)} query rows")
