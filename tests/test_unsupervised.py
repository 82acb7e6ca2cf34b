import itertools
import logging

import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path
from scipy.stats import spearmanr

from glmetric import unsupervised
from glmetric._linalg import pairwise_sq_dists, sym_sqrt
from glmetric._lloyd import MAX_ITER, _seed_centers, lloyd, member_means
from glmetric.dataset import (LabeledDataset, SplitSpec, load_csv,
                              make_synthetic_mixture, scale_features, split)
from glmetric.generative import fit_gaussian_models
from glmetric.local_metric import MetricMatrix, local_metric_stack, solve_local_metric
from glmetric.unsupervised import (_neighbor_graph, _transform, _warm_kmeans,
                                   assign_to_centers, cluster_transfer_tune,
                                   isomap_embed, iterative_metric_kmeans,
                                   kmeans, rand_score)
from test_local_metric import oracle_interpolate, random_symmetric_indefinite


def three_noisy_gaussians(n, seed, scale=2.5, noise_sd=2.0, n_noise=3):
    comps = []
    dim = 3 + n_noise
    for c in range(3):
        mean = np.zeros(dim)
        mean[c] = scale
        sd = np.ones(dim)
        sd[3:] = noise_sd
        comps.append((1.0 / 3.0, mean, np.diag(sd ** 2), c))
    return make_synthetic_mixture(comps, n, seed)


def oracle_lloyd(x, k, rng, init_centers=None):
    """The Lloyd run that computes the distances to the new centers twice per
    iteration (for the inertia, then again for the next assignment) and the
    member means one cluster at a time."""
    centers = _seed_centers(x, k, rng) if init_centers is None else np.array(init_centers, dtype=float)
    assign = None
    history = []
    for _ in range(MAX_ITER):
        d = pairwise_sq_dists(x, centers)
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
        centers = np.stack([x[assign == j].mean(axis=0) for j in range(k)])
        inertia = float(pairwise_sq_dists(x, centers)[np.arange(len(x)), assign].sum())
        history.append(inertia)
    return assign, centers, history[-1], history


def lloyd_cases():
    """(x, k, init_centers) over random blobs; repeated rows started from k
    copies of one row, and starts far from the data, force the empty-cluster
    reseed."""
    rng = np.random.default_rng(20)
    for case in range(30):
        dim = 1 + case % 4
        n = int(rng.integers(8, 80))
        k = int(rng.integers(2, 6))
        x = rng.normal(size=(n, dim)) + 4.0 * rng.integers(0, 3, size=(n, 1))
        init = None
        if case % 3 == 1:
            x = x[rng.integers(0, k + 1, n)]
            init = x[np.zeros(k, dtype=int)]
        if case % 3 == 2:
            init = 1e3 + rng.normal(size=(k, dim))
        yield x, k, init


class TestLloydMatchesOracle:
    @pytest.mark.parametrize("case", range(30))
    def test_identical_runs(self, case):
        x, k, init = list(lloyd_cases())[case]
        got = lloyd(x, k, np.random.default_rng(case), init)
        expect = oracle_lloyd(x, k, np.random.default_rng(case), init)
        for a, b in zip(got, expect):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_member_means_equal_comprehension(self, dim):
        rng = np.random.default_rng(dim)
        for n in (3, 17, 200):
            x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
            assign = np.concatenate([np.arange(3), rng.integers(0, 3, n - 3)])
            np.testing.assert_array_equal(
                member_means(x, assign, 3),
                np.stack([x[assign == j].mean(axis=0) for j in range(3)]))


class TestKmeans:
    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        metric = solve_local_metric(random_symmetric_indefinite(rng, 3))
        res = kmeans(x, 1, metric, seed=0)
        np.testing.assert_allclose(res.centers[0], x.mean(axis=0), rtol=1e-12)
        mean = x.mean(axis=0)
        expected = sum((p - mean) @ metric.matrix @ (p - mean) for p in x)
        assert res.inertia == pytest.approx(expected, rel=1e-10)

    def test_k_equals_n_distinct_points(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2)) * 5
        res = kmeans(x, 8, MetricMatrix.identity(2), seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(res.assignments.tolist()) == list(range(8))

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(2)
        x = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 10.0])
        truth = np.array([0] * 20 + [1] * 20)
        res = kmeans(x, 2, MetricMatrix.identity(2), seed=3)
        # brute force over both labelings
        agree = max(np.mean(res.assignments == truth),
                    np.mean(res.assignments == 1 - truth))
        assert agree == 1.0

    def test_metric_kmeans_equals_euclidean_on_transformed_data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        metric = solve_local_metric(random_symmetric_indefinite(rng, 3))
        z = x @ sym_sqrt(metric.matrix)
        a = kmeans(x, 4, metric, seed=5)
        b = kmeans(z, 4, MetricMatrix.identity(3), seed=5)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 2))
        _, _, _, history = lloyd(x, 4, np.random.default_rng(0))
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_identical_points_seed_every_center_on_them(self):
        x = np.tile([[1.5, -2.0]], (6, 1))
        np.testing.assert_array_equal(_seed_centers(x, 3, np.random.default_rng(0)), x[:3])
        with pytest.raises(ValueError, match="fewer distinct points than clusters"):
            lloyd(x, 3, np.random.default_rng(0))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 1)), 4, MetricMatrix.identity(1), seed=0)

    @pytest.mark.parametrize("bad", [1e300, np.inf, np.nan])
    def test_non_finite_distances_rejected(self, bad):
        x = np.array([[0.0, 0.0], [bad, 0.0], [1.0, 1.0]])
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite distances in 1 of 3 query rows"):
                assign_to_centers(x, centers, MetricMatrix.identity(2))
        assert assign_to_centers(x[[0, 2]], centers, MetricMatrix.identity(2)).tolist() == [0, 1]


def oracle_iterative_metric_kmeans(x, k, outer_iters=10, lam_cov=1e-3, lam_int=0.0,
                                   seed=0, restarts=10):
    """The metric step the stack path replaced: every local metric as a validated
    MetricMatrix, interpolated one at a time, then averaged."""
    identity = MetricMatrix.identity(x.shape[1])
    result = kmeans(x, k, identity, seed, restarts=restarts)
    metric = identity
    for _ in range(outer_iters):
        counts = np.bincount(result.assignments, minlength=k)
        keep = np.flatnonzero(counts >= 2)
        if len(keep) < 2:
            break
        remap = np.full(k, -1)
        remap[keep] = np.arange(len(keep))
        mask = remap[result.assignments] >= 0
        ms = fit_gaussian_models(
            LabeledDataset(x[mask], remap[result.assignments][mask], len(keep)), lam_cov)
        stack, degenerate = local_metric_stack(x, ms)
        locals_ = [MetricMatrix(m, "local", det_normalized=True, degenerate=bool(bad))
                   for m, bad in zip(stack, degenerate)]
        if lam_int > 0:
            locals_ = [oracle_interpolate(m, lam_int) for m in locals_]
        stack = np.stack([m.matrix for m in locals_])
        metric = MetricMatrix(np.einsum("n,nij->ij", np.full(len(stack), 1.0 / len(stack)),
                                        stack), "global:UNI")
        new_result = _warm_kmeans(x, k, metric, result.centers)
        done = np.array_equal(new_result.assignments, result.assignments)
        result = new_result
        if done:
            break
    return result, metric


class TestIterativeMetricKmeans:
    def test_pre_clustered_data_is_fixed_point(self):
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 30.0])
        euclid = kmeans(x, 2, MetricMatrix.identity(2), seed=0)
        res, metric = iterative_metric_kmeans(x, 2, seed=0)
        agree = max(np.mean(res.assignments == euclid.assignments),
                    np.mean(res.assignments == 1 - euclid.assignments))
        assert agree == 1.0

    def test_single_cluster_returns_identity_with_flag(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 3))
        res, metric = iterative_metric_kmeans(x, 1, seed=0)
        np.testing.assert_array_equal(metric.matrix, np.eye(3))
        assert metric.degenerate
        assert (res.assignments == 0).all()

    def test_beats_euclidean_on_most_seeds(self):
        # paired-seed harness on anisotropic 3-Gaussian data with noise axes
        at_least = 0
        for seed in range(30):
            ds = three_noisy_gaussians(300, seed)
            euclid = kmeans(ds.features, 3, MetricMatrix.identity(ds.dim), seed=seed)
            res, _ = iterative_metric_kmeans(ds.features, 3, lam_cov=1e-2,
                                             lam_int=0.5, seed=seed)
            if rand_score(res.assignments, ds.labels) >= rand_score(euclid.assignments,
                                                                    ds.labels):
                at_least += 1
        assert at_least >= 24  # 80% of 30

    @pytest.mark.parametrize("lam_int", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_per_row_oracle(self, seed, lam_int):
        x = three_noisy_gaussians(150, seed).features
        res, metric = iterative_metric_kmeans(x, 3, lam_cov=1e-2, lam_int=lam_int,
                                              seed=seed, restarts=3)
        o_res, o_metric = oracle_iterative_metric_kmeans(x, 3, lam_cov=1e-2, lam_int=lam_int,
                                                         seed=seed, restarts=3)
        np.testing.assert_array_equal(res.assignments, o_res.assignments)
        np.testing.assert_array_equal(res.centers, o_res.centers)
        assert res.inertia == o_res.inertia
        np.testing.assert_array_equal(metric.matrix, o_metric.matrix)
        assert metric.provenance == o_metric.provenance == "global:UNI"

    @pytest.mark.parametrize("blobs, k, message, provenance", [
        (2, 3, "skipping 1 collapsed cluster(s) this round", "global:UNI"),
        (1, 2, "fewer than two usable clusters; stopping metric updates", "euclidean"),
    ], ids=["skip", "stop"])
    def test_one_point_clusters_are_left_out_of_the_metric(self, caplog, blobs, k, message,
                                                           provenance):
        # a far outlier is a cluster of its own, too small for a class Gaussian
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(size=(20, 2)) + 10.0 * b for b in range(blobs)]
                      + [[1e3, 1e3]])
        with caplog.at_level(logging.INFO, logger="glmetric.unsupervised"):
            res, metric = iterative_metric_kmeans(x, k, seed=0)
        assert message in caplog.messages
        o_res, o_metric = oracle_iterative_metric_kmeans(x, k, seed=0)
        np.testing.assert_array_equal(res.assignments, o_res.assignments)
        np.testing.assert_array_equal(metric.matrix, o_metric.matrix)
        assert metric.provenance == provenance
        assert np.bincount(res.assignments).min() == 1

    def test_deterministic_given_seed(self):
        ds = three_noisy_gaussians(120, seed=1)
        a, ma = iterative_metric_kmeans(ds.features, 3, seed=9)
        b, mb = iterative_metric_kmeans(ds.features, 3, seed=9)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(ma.matrix, mb.matrix)


def brute_force_rand(a, b):
    n = len(a)
    agree = total = 0
    for i, j in itertools.combinations(range(n), 2):
        total += 1
        agree += (a[i] == a[j]) == (b[i] == b[j])
    return agree / total


class TestRandScore:
    def test_identical_labelings(self):
        assert rand_score([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_hand_counted_example(self):
        assert rand_score([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1 / 3)

    def test_label_renaming_invariance(self):
        a = np.array([0, 0, 1, 2, 2, 1])
        b = np.array([5, 5, 9, 7, 7, 9])
        assert rand_score(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 4, 40)
        assert rand_score(a, b) == rand_score(b, a)

    def test_matches_brute_force_on_random_labelings(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            a = rng.integers(0, 4, n)
            b = rng.integers(0, 3, n)
            assert rand_score(a, b) == pytest.approx(brute_force_rand(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rand_score([0, 1], [0, 1, 2])


@pytest.fixture(scope="module")
def iris_parts():
    ds = load_csv("data/iris.csv", "label", has_header=True)
    train, validation, test = split(ds, SplitSpec(seed=5))
    train, params = scale_features(train)
    return train, params.transform(validation), params.transform(test)


def assert_matches_per_cell_oracle(parts, monkeypatch, k, seed, lam_cov_grid, lam_int_grid):
    """cluster_transfer_tune, with its stack memo, against one iterative_metric_kmeans
    per grid cell: the same grid, choice, clustering and metric, bit for bit, and
    one stack solve per distinct (lam_cov, assignments) pair of a lam_cov block."""
    train, validation, _ = parts
    solved = []  # (lam_cov, assignments) of every stack solve
    solve = unsupervised._pseudo_label_stack

    def record(x, assignments, keep, lam_cov):
        solved.append((lam_cov, assignments.tobytes()))
        return solve(x, assignments, keep, lam_cov)

    monkeypatch.setattr(unsupervised, "_pseudo_label_stack", record)
    tuned = cluster_transfer_tune(train, validation, k, lam_cov_grid, lam_int_grid,
                                  seed=seed)
    tuned_solves = len(solved)
    solved.clear()
    best, grid = None, []
    for lam_cov in lam_cov_grid:
        for lam_int in lam_int_grid:
            res, metric = iterative_metric_kmeans(train.features, k, lam_cov=lam_cov,
                                                  lam_int=lam_int, seed=seed)
            assigned = assign_to_centers(validation.features, res.centers, metric)
            score = rand_score(assigned, validation.labels)
            grid.append({"lam_cov": lam_cov, "lam_int": lam_int, "rand": score})
            if best is None or (-score, lam_int, lam_cov) < best[0]:
                best = ((-score, lam_int, lam_cov), res, metric)
    assert tuned["grid"] == grid
    assert (tuned["lam_cov"], tuned["lam_int"]) == (best[0][2], best[0][1])
    np.testing.assert_array_equal(tuned["clustering"].centers, best[1].centers)
    np.testing.assert_array_equal(tuned["clustering"].assignments, best[1].assignments)
    np.testing.assert_array_equal(tuned["metric"].matrix, best[2].matrix)
    # the oracle solves every round; the memo solves each distinct pair of a
    # lam_cov block once
    blocks = [{key for _, key in rounds}
              for _, rounds in itertools.groupby(solved, key=lambda r: r[0])]
    solves = sum(len(b) for b in blocks)
    assert tuned["diagnostics"] == {"rounds": len(solved), "stack_solves": solves,
                                    "reused_stacks": len(solved) - solves}
    assert tuned_solves == solves
    if len(blocks) == len(set(lam_cov_grid)):
        assert solves == len(set(solved))
    assert (solves < len(solved)) == (k > 1)


class TestClusterTransferTune:

    def test_selected_cell_is_grid_argmax(self, iris_parts):
        train, validation, _ = iris_parts
        tuned = cluster_transfer_tune(train, validation, 3, (1e-3, 1e-1),
                                      (0.0, 0.5), seed=0)
        best = max(g["rand"] for g in tuned["grid"])
        chosen = [g for g in tuned["grid"]
                  if g["lam_cov"] == tuned["lam_cov"] and g["lam_int"] == tuned["lam_int"]][0]
        assert chosen["rand"] == best

    def test_tie_prefers_smaller_lam_int(self, iris_parts):
        train, validation, _ = iris_parts
        tuned = cluster_transfer_tune(train, validation, 3, (1e-3,), (0.0, 0.25), seed=0)
        ties = [g for g in tuned["grid"]
                if g["rand"] == max(t["rand"] for t in tuned["grid"])]
        assert tuned["lam_int"] == min(t["lam_int"] for t in ties)

    def test_rerun_reproduces_selection(self, iris_parts):
        train, validation, _ = iris_parts
        a = cluster_transfer_tune(train, validation, 3, (1e-3, 1e-2), (0.0, 0.5), seed=1)
        b = cluster_transfer_tune(train, validation, 3, (1e-3, 1e-2), (0.0, 0.5), seed=1)
        assert (a["lam_cov"], a["lam_int"]) == (b["lam_cov"], b["lam_int"])
        np.testing.assert_array_equal(a["metric"].matrix, b["metric"].matrix)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_per_cell_iterative_metric_kmeans(self, iris_parts, monkeypatch, k):
        assert_matches_per_cell_oracle(iris_parts, monkeypatch, k, 0, (1e-3, 1e-1), (0.0, 0.5))

    @pytest.mark.parametrize("seed, lam_cov_grid, lam_int_grid", [
        (1, (1e-2, 1e-2, 1e-1), (0.0, 0.25, 0.75)),  # a repeated lam_cov: one memo block
        (2, (1e-1, 1e-3, 1e-1), (0.5, 0.0)),  # lam_cov comes back after the memo was dropped
        (3, (1e-3, 1e-2, 1e-1), (0.0, 0.25, 0.5, 0.75)),  # the shipped grid
    ])
    def test_memo_matches_per_cell_oracle_across_grids(self, iris_parts, monkeypatch, seed,
                                                       lam_cov_grid, lam_int_grid):
        assert_matches_per_cell_oracle(iris_parts, monkeypatch, 3, seed, lam_cov_grid,
                                       lam_int_grid)

    def test_zero_memo_budget_caches_nothing_and_changes_nothing(self, iris_parts,
                                                                 monkeypatch):
        train, validation, _ = iris_parts
        args = (train, validation, 3, (1e-3, 1e-2), (0.0, 0.25, 0.5))
        kept = cluster_transfer_tune(*args, seed=4)
        monkeypatch.setattr(unsupervised, "CLUSTER_MEMO_BYTES", 0)
        bare = cluster_transfer_tune(*args, seed=4)
        rounds = kept["diagnostics"]["rounds"]
        assert kept["diagnostics"]["reused_stacks"] > 0
        assert bare["diagnostics"] == {"rounds": rounds, "stack_solves": rounds,
                                       "reused_stacks": 0}
        assert bare["grid"] == kept["grid"]
        assert (bare["lam_cov"], bare["lam_int"]) == (kept["lam_cov"], kept["lam_int"])
        for a, b in ((bare["clustering"].assignments, kept["clustering"].assignments),
                     (bare["clustering"].centers, kept["clustering"].centers),
                     (bare["metric"].matrix, kept["metric"].matrix)):
            np.testing.assert_array_equal(a, b)

    def test_transfer_assignment_consistency(self, iris_parts):
        train, validation, test = iris_parts
        tuned = cluster_transfer_tune(train, validation, 3, (1e-2,), (0.5,), seed=2)
        assigned = assign_to_centers(test.features, tuned["clustering"].centers,
                                     tuned["metric"])
        assert assigned.shape == (test.n,)
        assert set(assigned) <= {0, 1, 2}


def oracle_isomap(x, metric, n_neighbors, d):
    """Classical MDS with the dense centring matrix J = I - 1/n on a connected
    neighbor graph: (embedded squared pairwise distances, residual variance)."""
    geo = shortest_path(_neighbor_graph(_transform(x, metric), n_neighbors),
                        method="D", directed=False)
    n = len(geo)
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    w, u = np.linalg.eigh(-0.5 * j @ (geo ** 2) @ j)
    top = np.argsort(w)[::-1][:d]
    coords = u[:, top] * np.sqrt(w[top])
    sq = pairwise_sq_dists(coords, coords)
    iu = np.triu_indices(n, 1)
    return sq, 1.0 - np.corrcoef(geo[iu], np.sqrt(sq[iu]))[0, 1] ** 2


class TestIsomap:
    @pytest.mark.parametrize("n,dim,n_neighbors,d", [
        (25, 2, 6, 2), (40, 3, 8, 1), (60, 4, 10, 2), (50, 2, 4, 1)])
    def test_matches_dense_centring_oracle(self, n, dim, n_neighbors, d):
        rng = np.random.default_rng(n + dim)
        x = rng.normal(size=(n, dim)) * np.arange(1, dim + 1)
        metric = solve_local_metric(random_symmetric_indefinite(rng, dim))
        emb = isomap_embed(x, metric, n_neighbors, d)
        assert len(emb.kept_indices) == n
        sq, residual = oracle_isomap(x, metric, n_neighbors, d)
        np.testing.assert_allclose(pairwise_sq_dists(emb.coordinates, emb.coordinates), sq,
                                   rtol=1e-9, atol=1e-9)
        assert emb.residual_variance == pytest.approx(residual, rel=1e-9, abs=1e-12)

    def test_three_collinear_points(self):
        x = np.array([[0.0], [1.0], [2.0]])
        emb = isomap_embed(x, MetricMatrix.identity(1), 2, 1)
        c = emb.coordinates.ravel()
        dists = sorted([abs(c[0] - c[1]), abs(c[1] - c[2]), abs(c[0] - c[2])])
        np.testing.assert_allclose(dists, [1.0, 1.0, 2.0], atol=1e-8)
        assert emb.residual_variance < 1e-12

    def test_euclidean_configuration_recovered(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(25, 2))
        emb = isomap_embed(x, MetricMatrix.identity(2), 24, 2)
        assert emb.residual_variance < 1e-8
        assert np.abs(emb.coordinates.mean(axis=0)).max() < 1e-8

    def test_noisy_arc_ordering(self):
        rng = np.random.default_rng(10)
        angles = np.linspace(0, 1.5 * np.pi, 60)
        x = np.column_stack([np.cos(angles), np.sin(angles)])
        x += rng.normal(size=x.shape) * 0.01
        emb = isomap_embed(x, MetricMatrix.identity(2), 4, 1)
        rho = abs(spearmanr(emb.coordinates.ravel(),
                            angles[emb.kept_indices]).statistic)
        assert rho > 0.95

    def test_disconnected_graph_keeps_largest_component(self):
        x = np.vstack([np.arange(10.0)[:, None], np.arange(5.0)[:, None] + 1e4])
        emb = isomap_embed(x, MetricMatrix.identity(1), 2, 1)
        assert len(emb.kept_indices) == 10
        assert set(emb.kept_indices) == set(range(10))

    def test_geodesics_satisfy_triangle_inequality(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 2))
        geo = shortest_path(_neighbor_graph(_transform(x, MetricMatrix.identity(2)), 5),
                            method="D", directed=False)
        for _ in range(200):
            i, j, k = rng.integers(0, 30, 3)
            assert geo[i, j] <= geo[i, k] + geo[k, j] + 1e-9

    def test_dimension_exceeding_positive_eigenvalues(self):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="positive eigenvalues"):
            isomap_embed(x, MetricMatrix.identity(1), 2, 3)

    @pytest.mark.parametrize("n_neighbors", [3, 8])
    def test_neighbors_not_below_point_count(self, n_neighbors):
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=f"{n_neighbors} neighbors need more than the 3"):
            isomap_embed(x, MetricMatrix.identity(1), n_neighbors, 1)
