"""Plain-coordinate Lloyd k-means core shared by the clustering front ends."""
import numpy as np

from ._linalg import pairwise_sq_dists

MAX_ITER = 300  # Lloyd iterations per run


def member_means(x, assign, k):
    """Means of the rows of x in each of the k clusters of assign, stacked."""
    # not bincount: mean(axis=0) sums a (m, 1) column pairwise, not in row order
    return np.stack([x[assign == j].mean(axis=0) for j in range(k)])


def _seed_centers(x, k, rng):
    # k-means++ style: first uniform, then proportional to squared distance
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(len(x))]
    d2 = pairwise_sq_dists(x, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = x[rng.integers(len(x))]
        else:
            centers[j] = x[rng.choice(len(x), p=d2 / total)]
        d2 = np.minimum(d2, pairwise_sq_dists(x, centers[j:j + 1]).ravel())
    return centers


def lloyd(x, k, rng, init_centers=None):
    """One Lloyd run. Returns (assignments, centers, inertia, inertia_history).

    An empty cluster is re-seeded from the point farthest from its own
    center. Centers are the member means of the final assignment, so every
    cluster is non-empty. The within-cluster sum of squares is checked to be
    non-increasing across iterations.
    """
    centers = _seed_centers(x, k, rng) if init_centers is None else np.array(init_centers, dtype=float)
    d = pairwise_sq_dists(x, centers)
    assign = None
    history = []
    for _ in range(MAX_ITER):
        new_assign = d.argmin(axis=1)
        own = d[np.arange(len(x)), new_assign]
        for j in range(k):
            if not (new_assign == j).any():
                far = int(np.argmax(own))
                centers[j] = x[far]
                new_assign[far] = j
                own[far] = 0.0
        if np.bincount(new_assign, minlength=k).min() == 0:
            raise ValueError("fewer distinct points than clusters")
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = member_means(x, assign, k)
        d = pairwise_sq_dists(x, centers)
        inertia = float(d[np.arange(len(x)), assign].sum())
        if history and inertia > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise AssertionError("k-means inertia increased")
        history.append(inertia)
    return assign, centers, history[-1], history


def lloyd_best_of(x, k, rng, restarts=10):
    """Best-inertia Lloyd run over seeded restarts."""
    best = None
    for _ in range(max(1, restarts)):
        run = lloyd(x, k, rng)
        if best is None or run[2] < best[2]:
            best = run
    return best
