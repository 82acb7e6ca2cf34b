"""Small shared linear-algebra helpers for symmetric PSD and distance matrices."""
import numpy as np

ROW_BLOCK_BYTES = 2 ** 18  # distances and weighted kernel sums run over row blocks of this size


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


def block_rows(n_cols):
    """Rows of a float row block of about ROW_BLOCK_BYTES with n_cols columns."""
    return max(1, ROW_BLOCK_BYTES // (8 * max(1, n_cols)))


def pairwise_sq_dists(q, x, m=None):
    """Squared Mahalanobis distances between rows of q and rows of x.

    With m=None the metric is the identity. Returns a (len(q), len(x)) array;
    tiny negative values from cancellation are clipped to 0. The result is
    built inside the array of the cross product qm @ x.T, one row block of
    about ROW_BLOCK_BYTES at a time, so the peak is that one array plus a
    block; each element is (rq + rx) - 2 (qm @ x.T), clipped, as one
    whole-matrix expression gives it.
    """
    if m is None:
        qm = q
    else:
        qm = q @ m
    rq = np.einsum("ij,ij->i", qm, q)
    rx = np.einsum("ij,ij->i", x if m is None else x @ m, x)
    d = qm @ x.T
    d *= 2.0
    rows = block_rows(len(x))
    for lo in range(0, len(d), rows):
        blk = d[lo:lo + rows]
        np.subtract(rq[lo:lo + rows, None] + rx, blk, out=blk)
        np.clip(blk, 0.0, None, out=blk)
    return d


def upper_pairs(a):
    """The entries a[i, j], i < j, of a square matrix in row-major order, the
    order of a[np.triu_indices(len(a), 1)], picked by an n x n boolean mask."""
    n = len(a)
    return a[np.arange(n)[:, None] < np.arange(n)]


def median_pair_sq_dist(x, m=None):
    """Median squared Mahalanobis distance (identity metric for m=None) over
    every pair of distinct rows of x. Holds the len(x)^2 distance matrix and
    then its len(x) (len(x) - 1) / 2 pair values; raises ValueError below two
    rows, which have no pair."""
    if len(x) < 2:
        raise ValueError(f"a median pairwise distance needs at least two points, got {len(x)}")
    pairs = upper_pairs(pairwise_sq_dists(x, x, m))
    return float(np.median(pairs, overwrite_input=True))


def _check_finite(d):
    """Raise ValueError, counting the rows, when a query distance matrix is not finite."""
    bad = int(np.sum(~np.isfinite(d).all(axis=1)))
    if bad:
        raise ValueError(f"non-finite distances in {bad} of {len(d)} query rows")
