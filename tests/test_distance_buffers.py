"""Every distance layer builds its matrix in one buffer; each must give the
values of the whole-matrix expressions it replaced, bit for bit.

The oracles below are those expressions: the pairwise formula summed and
clipped over whole matrices, the triu_indices median, the np.where margins,
the full-sort class split, the vote from one whole-matrix argpartition, the
per-query distances from fresh temporaries, the out-of-place KDE log density
and the Isomap neighbor graph and residual on triu_indices pairs. The cases
put query counts on both sides of a row block (block_rows of the training
size), include queries equal to training rows, and large coordinates whose
cancellation leaves negative values for the clip.
"""
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from glmetric._linalg import (block_rows, median_pair_sq_dist, pairwise_sq_dists,
                              upper_pairs)
from glmetric.classify import (DEFAULT_K_GRID, _per_query_sq_dists, _sorted_by_class,
                               _vote_grid, margin_candidates)
from glmetric.dataset import LabeledDataset
from glmetric.global_metric import _kde_log_density, select_kde_bandwidth
from glmetric.local_metric import MetricMatrix
from glmetric.unsupervised import _neighbor_graph, _transform, isomap_embed


def oracle_pairwise_sq_dists(q, x, m=None):
    qm = q if m is None else q @ m
    rq = np.einsum("ij,ij->i", qm, q)
    rx = np.einsum("ij,ij->i", x if m is None else x @ m, x)
    d = rq[:, None] + rx[None, :] - 2.0 * (qm @ x.T)
    return np.clip(d, 0.0, None)


def oracle_median_pair_sq_dist(x, m=None):
    return float(np.median(oracle_pairwise_sq_dists(x, x, m)[np.triu_indices(len(x), 1)]))


def oracle_margin_candidates(train, metric, beta_grid):
    d = oracle_pairwise_sq_dists(train.features, train.features, metric.matrix)
    np.fill_diagonal(d, np.inf)
    same = train.labels[:, None] == train.labels[None, :]
    diffs = np.where(~same, d, np.inf).min(axis=1) - np.where(same, d, np.inf).min(axis=1)
    if not np.isfinite(diffs).all():
        raise ValueError("every training point needs a same-class and an other-class neighbor")
    gamma0 = float(np.median(diffs))
    return [max(0.0, float(b) * gamma0) for b in beta_grid]


def oracle_vote_grid(d, labels, class_count, k_grid):
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


def oracle_sorted_by_class(d, labels, class_count, k):
    own = [np.sort(np.compress(labels == c, d, axis=1), axis=1)[:, :k]
           for c in range(class_count)]
    other = [np.sort(np.compress(labels != c, d, axis=1), axis=1)[:, :k]
             for c in range(class_count)]
    return np.stack(own, axis=1), np.stack(other, axis=1)


def oracle_per_query_sq_dists(q, ms, x):
    qm = np.einsum("ij,ijk->ik", q, ms)
    rq = np.einsum("ij,ij->i", qm, q)
    outer = np.einsum("ij,ik->ijk", x, x).reshape(len(x), -1)
    rx = ms.reshape(len(ms), q.shape[1] ** 2) @ outer.T
    d = rq[:, None] + rx - 2.0 * (qm @ x.T)
    return np.clip(d, 0.0, None)


def oracle_kde_log_density(sq_dists, dim, sigma):
    log_h = np.log(sq_dists.shape[1]) + 0.5 * dim * np.log(np.pi) + dim * np.log(sigma)
    logs = -(sq_dists / sigma ** 2)
    m = logs.max(axis=1)
    with np.errstate(under="ignore"):
        lse = m + np.log(np.exp(logs - m[:, None]).sum(axis=1))
    return lse - log_h


def oracle_select_kde_bandwidth(x_train, x_val):
    med = float(np.sqrt(oracle_median_pair_sq_dist(x_train)))
    d_val = oracle_pairwise_sq_dists(x_val, x_train)
    best = None
    for j in range(-3, 4):
        sigma = med * 2.0 ** j
        ll = float(oracle_kde_log_density(d_val, x_train.shape[1], sigma).sum())
        if np.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, sigma)
    return best[1]


def oracle_neighbor_graph(z, n_neighbors):
    d = np.sqrt(oracle_pairwise_sq_dists(z, z))
    np.fill_diagonal(d, np.inf)
    n = len(z)
    idx = np.argsort(d, axis=1)[:, :n_neighbors]
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = idx.ravel()
    graph = csr_matrix((d[rows, cols], (rows, cols)), shape=(n, n))
    return graph.maximum(graph.T)


def oracle_isomap_embed(x, metric, n_neighbors, d):
    """(coordinates, residual variance, kept rows) of isomap_embed."""
    graph = oracle_neighbor_graph(_transform(x, metric), n_neighbors)
    n_comp, comp = connected_components(graph, directed=False)
    kept = np.arange(len(x))
    if n_comp > 1:
        kept = np.flatnonzero(comp == int(np.argmax(np.bincount(comp))))
        graph = graph[kept][:, kept]
    geo = shortest_path(graph, method="D", directed=False)
    g = geo ** 2
    b = -0.5 * (g - g.mean(axis=0) - g.mean(axis=1)[:, None] + g.mean())
    w, u = np.linalg.eigh(b)
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    coords = u[:, :d] * np.sqrt(w[:d])
    coords = coords - coords.mean(axis=0)
    iu = np.triu_indices(len(geo), 1)
    emb = np.sqrt(oracle_pairwise_sq_dists(coords, coords))
    r = np.corrcoef(geo[iu], emb[iu])[0, 1]
    return coords, float(1.0 - r ** 2), kept


N_TRAIN = (1, 2, 90, 720)
DIMS = (1, 4, 10)


def query_counts(n):
    """0, 1, a row block of an n-column matrix and its neighbors, and 720."""
    block = block_rows(n)
    return (0, 1, block - 1, block, block + 1, 720)


def spd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.1 * np.eye(dim)


def points(rng, count, dim, large):
    """Normal rows; large ones sit near 1e8, where the products cancel to
    about 1 against distances of about 1e-4, so the clip bites."""
    z = rng.normal(size=(count, dim))
    return 1e8 + 1e-2 * z if large else z


def queries(rng, nq, x, large):
    """nq rows, every other one a copy of a training row."""
    q = points(rng, nq, x.shape[1], large)
    q[::2] = x[np.arange(0, nq, 2) % len(x)]
    return q


@pytest.mark.parametrize("large", [False, True])
@pytest.mark.parametrize("with_m", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", N_TRAIN)
class TestDistanceMatrices:
    def test_pairwise_sq_dists(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large])
        x = points(rng, n, dim, large)
        m = spd(rng, dim) if with_m else None
        clipped = 0
        for nq in query_counts(n):
            q = queries(rng, nq, x, large)
            want = oracle_pairwise_sq_dists(q, x, m)
            got = pairwise_sq_dists(q, x, m)
            assert got.shape == (nq, n)
            np.testing.assert_array_equal(got, want)
            clipped += int(np.sum(want == 0.0))
        assert clipped > 0 or not large  # cancellation leaves negatives to clip

    def test_median_pair_sq_dist(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large, 1])
        x = points(rng, n, dim, large)
        m = spd(rng, dim) if with_m else None
        if n < 2:
            with pytest.raises(ValueError, match="needs at least two points, got 1"):
                median_pair_sq_dist(x, m)
            return
        assert median_pair_sq_dist(x, m) == oracle_median_pair_sq_dist(x, m)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # n < 3: inf - inf gaps
    def test_margin_candidates(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large, 2])
        train = LabeledDataset(points(rng, n, dim, large), np.arange(n) % 2, 2)
        metric = MetricMatrix(spd(rng, dim)) if with_m else MetricMatrix.identity(dim)
        betas = (0.25, 1.0, 4.0)
        try:
            want = oracle_margin_candidates(train, metric, betas)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                margin_candidates(train, metric, betas)
            return
        assert margin_candidates(train, metric, betas) == want

    def test_vote_and_class_sort(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large, 3])
        x = points(rng, n, dim, large)
        m = spd(rng, dim) if with_m else None
        labels = np.arange(n) % 3
        class_count = min(3, n)
        k_grid = DEFAULT_K_GRID + (n,)
        for nq in query_counts(n):
            d = pairwise_sq_dists(queries(rng, nq, x, large), x, m)
            got = _vote_grid(d, labels, class_count, k_grid)
            assert got.shape == (len(k_grid), nq)
            np.testing.assert_array_equal(got, oracle_vote_grid(d, labels, class_count, k_grid))
            for part, want in zip(_sorted_by_class(d, labels, class_count, 5),
                                  oracle_sorted_by_class(d, labels, class_count, 5)):
                np.testing.assert_array_equal(part, want)

    def test_per_query_sq_dists(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large, 4])
        x = points(rng, n, dim, large)
        for nq in query_counts(n):
            q = queries(rng, nq, x, large)
            a = rng.normal(size=(nq, dim, dim))
            ms = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(dim) if with_m else \
                np.broadcast_to(np.eye(dim), (nq, dim, dim))
            np.testing.assert_array_equal(_per_query_sq_dists(q, ms, x),
                                          oracle_per_query_sq_dists(q, ms, x))

    def test_kde_log_density(self, n, dim, with_m, large):
        rng = np.random.default_rng([n, dim, with_m, large, 5])
        x = points(rng, n, dim, large)
        m = spd(rng, dim) if with_m else None
        for nq in query_counts(n):
            d = pairwise_sq_dists(queries(rng, nq, x, large), x, m)
            before = d.copy()
            for sigma in (1e-3, 0.7, 30.0):
                np.testing.assert_array_equal(_kde_log_density(d, dim, sigma),
                                              oracle_kde_log_density(d, dim, sigma))
            np.testing.assert_array_equal(d, before)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", (2, 90, 720))
def test_select_kde_bandwidth(n, dim):
    rng = np.random.default_rng([n, dim, 6])
    x = points(rng, n, dim, False)
    v = queries(rng, 45, x, False)
    assert select_kde_bandwidth(x, v) == oracle_select_kde_bandwidth(x, v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # n = 2: a one-pair correlation
@pytest.mark.parametrize("with_m", [False, True])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", (2, 90, 720))
def test_isomap(n, dim, with_m):
    rng = np.random.default_rng([n, dim, with_m, 7])
    x = points(rng, n, dim, False)
    if n > 7:
        x[1::7] = x[::7][:len(x[1::7])]  # repeated rows tie in the neighbor sort
    metric = MetricMatrix(spd(rng, dim)) if with_m else MetricMatrix.identity(dim)
    n_neighbors = min(8, n - 1)
    z = _transform(x, metric)
    got, want = _neighbor_graph(z, n_neighbors), oracle_neighbor_graph(z, n_neighbors)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    emb = isomap_embed(x, metric, n_neighbors, 1)
    coords, residual, kept = oracle_isomap_embed(x, metric, n_neighbors, 1)
    np.testing.assert_array_equal(emb.coordinates, coords)
    np.testing.assert_array_equal(emb.kept_indices, kept)
    assert emb.residual_variance == residual or np.isnan(residual) and \
        np.isnan(emb.residual_variance)


def test_upper_pairs_is_triu_order():
    a = np.arange(30.0).reshape(5, 6)[:, :5]  # a square view, not contiguous
    np.testing.assert_array_equal(upper_pairs(a), a[np.triu_indices(5, 1)])
    assert upper_pairs(np.zeros((1, 1))).shape == (0,)
