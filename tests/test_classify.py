import numpy as np
import pytest

from glmetric import classify
from glmetric.classify import (DEFAULT_BETA_GRID, DEFAULT_K_GRID, DEFAULT_LAMBDA_GRID,
                               _energy_labels, _glm_int_errors, _per_query_sq_dists,
                               _sorted_by_class, _vote_grid, energy_predict_batch,
                               knn_predict_batch, margin_candidates, tune_and_test)
from glmetric._linalg import pairwise_sq_dists, sym_sqrt
from glmetric.dataset import (LabeledDataset, SplitSpec, load_csv, make_synthetic_mixture,
                              scale_features, split, three_normal_preset)
from glmetric.generative import fit_gaussian_models
from glmetric.local_metric import (MetricMatrix, compute_all_local_metrics,
                                   interpolate_with_euclidean, local_metric_stack,
                                   solve_local_metric)
from test_local_metric import oracle_interpolate, random_symmetric_indefinite


def random_psd_metric(rng, dim):
    return solve_local_metric(random_symmetric_indefinite(rng, dim))


def oracle_mahalanobis_distance(metric, x, y):
    """Squared distance (x - y)^T M (x - y) of one pair, by its definition."""
    delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(delta @ metric.matrix @ delta)


def sq_dist(metric, x, y):
    """One pair through the batched distance path."""
    return pairwise_sq_dists(np.array([x], dtype=float), np.array([y], dtype=float),
                             metric.matrix)[0, 0]


class TestDistance:
    def test_euclidean_345(self):
        m = MetricMatrix.identity(2)
        assert sq_dist(m, [3.0, 4.0], [0.0, 0.0]) == 25.0

    def test_diagonal_weights(self):
        m = MetricMatrix(np.diag([2.0, 1.0]))
        assert sq_dist(m, [1.0, 1.0], [0.0, 0.0]) == 3.0

    def test_equals_euclidean_after_sqrt_transform(self):
        rng = np.random.default_rng(0)
        m = random_psd_metric(rng, 4)
        l = sym_sqrt(m.matrix)
        x, y = rng.normal(size=(2, 4))
        transformed = np.sum((x @ l - y @ l) ** 2)
        for direct in (sq_dist(m, x, y), oracle_mahalanobis_distance(m, x, y)):
            assert abs(direct - transformed) <= 1e-10 * direct


def brute_force_knn(train, metric, k, query):
    """Independent oracle: exhaustive scan in the square-root-transformed space,
    same tie rules (distance sum, then class index)."""
    l = sym_sqrt(metric.matrix)
    z_train = train.features @ l
    z_query = query @ l
    d = np.array([np.sum((z_query - z) ** 2) for z in z_train])
    idx = np.argsort(d, kind="stable")[:k]
    votes = {}
    for i in idx:
        votes.setdefault(int(train.labels[i]), []).append(d[i])
    best = max(len(v) for v in votes.values())
    cands = sorted([(sum(v), c) for c, v in votes.items() if len(v) == best])
    return cands[0][1]


class TestKnn:
    def test_exact_training_point(self):
        train = LabeledDataset(np.array([[0.0, 0.0], [5.0, 5.0]]), [0, 1], 2)
        metric = MetricMatrix.identity(2)
        assert knn_predict_batch(train, 1, metric, np.array([[5.0, 5.0]]))[0] == 1

    def test_majority_vote(self):
        train = LabeledDataset(np.array([[0.0], [0.1], [0.2], [5.0]]), [0, 0, 1, 1], 2)
        metric = MetricMatrix.identity(1)
        assert knn_predict_batch(train, 3, metric, np.array([[0.05]]))[0] == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        train = LabeledDataset(rng.normal(size=(200, 3)), rng.integers(0, 3, 200), 3)
        metric = random_psd_metric(rng, 3)
        queries = rng.normal(size=(40, 3))
        got = knn_predict_batch(train, 5, metric, queries)
        expect = [brute_force_knn(train, metric, 5, q) for q in queries]
        assert got.tolist() == expect

    def test_k_larger_than_train_rejected(self):
        train = LabeledDataset(np.zeros((2, 1)) + np.arange(2)[:, None], [0, 1], 2)
        with pytest.raises(ValueError):
            knn_predict_batch(train, 3, MetricMatrix.identity(1), np.array([[0.0]]))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        train = LabeledDataset(np.arange(4, dtype=float)[:, None], [0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="k must be at least 1"):
            knn_predict_batch(train, k, MetricMatrix.identity(1), np.array([[0.0]]))

    def test_scaling_invariance_of_decisions(self):
        rng = np.random.default_rng(2)
        train = LabeledDataset(rng.normal(size=(60, 3)), rng.integers(0, 2, 60), 2)
        metric = random_psd_metric(rng, 3)
        queries = rng.normal(size=(25, 3))
        base = knn_predict_batch(train, 3, metric, queries)
        for s in (1e-3, 7.0, 1e5):
            scaled = MetricMatrix(s * metric.matrix)
            got = knn_predict_batch(train, 3, scaled, queries)
            np.testing.assert_array_equal(got, base)

    def test_transform_rewrite_invariance(self):
        rng = np.random.default_rng(3)
        train = LabeledDataset(rng.normal(size=(80, 4)), rng.integers(0, 3, 80), 3)
        metric = random_psd_metric(rng, 4)
        queries = rng.normal(size=(30, 4))
        direct = knn_predict_batch(train, 4, metric, queries)
        l = sym_sqrt(metric.matrix)
        train_z = LabeledDataset(train.features @ l, train.labels, 3)
        rewritten = knn_predict_batch(train_z, 4, MetricMatrix.identity(4), queries @ l)
        np.testing.assert_array_equal(direct, rewritten)


def energy_oracle(train, metric, k, margin, query):
    """Independent re-implementation with explicit loops."""
    d = np.array([oracle_mahalanobis_distance(metric, query, x) for x in train.features])
    best, best_e = None, None
    for c in range(train.class_count):
        own = np.sort(d[train.labels == c])[:k]
        other = np.sort(d[train.labels != c])[:k]
        e = own.sum()
        for a in own:
            for b in other:
                e += max(0.0, margin + a - b)
        if best_e is None or e < best_e:
            best, best_e = c, e
    return best


class TestEnergy:
    def test_coincident_point_wins(self):
        train = LabeledDataset(np.array([[0.0], [0.1], [9.0], [9.1]]), [0, 0, 1, 1], 2)
        metric = MetricMatrix.identity(1)
        assert energy_predict_batch(train, 1, 0.0, metric, np.array([[0.0]]))[0] == 0

    def test_mirror_symmetric_tie_takes_lower_index(self):
        train = LabeledDataset(np.array([[-1.0], [-2.0], [1.0], [2.0]]), [0, 0, 1, 1], 2)
        metric = MetricMatrix.identity(1)
        assert energy_predict_batch(train, 2, 0.5, metric, np.array([[0.0]]))[0] == 0

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        train = LabeledDataset(rng.normal(size=(100, 2)), rng.integers(0, 2, 100), 2)
        metric = random_psd_metric(rng, 2)
        gamma0 = margin_candidates(train, metric, (1.0,))[0]
        queries = rng.normal(size=(30, 2))
        got = energy_predict_batch(train, 2, gamma0, metric, queries)
        expect = [energy_oracle(train, metric, 2, gamma0, q) for q in queries]
        assert got.tolist() == expect

    def test_no_queries_give_no_labels(self):
        train = LabeledDataset(np.arange(6, dtype=float)[:, None], [0, 0, 1, 1, 2, 2], 3)
        metric = MetricMatrix.identity(1)
        for got in (energy_predict_batch(train, 2, 0.5, metric, np.zeros((0, 1))),
                    knn_predict_batch(train, 2, metric, np.zeros((0, 1)))):
            assert got.shape == (0,)

    def test_class_smaller_than_k_rejected(self):
        train = LabeledDataset(np.arange(3, dtype=float)[:, None], [0, 0, 1], 2)
        with pytest.raises(ValueError, match="at least k"):
            energy_predict_batch(train, 2, 0.0, MetricMatrix.identity(1), np.array([[0.0]]))

    @pytest.mark.parametrize("k, margin, message", [
        (0, 0.5, "k must be at least 1"),
        (-1, 0.5, "k must be at least 1"),
        (1, -1e-12, "margin must be non-negative"),
    ])
    def test_bad_k_or_margin_rejected(self, k, margin, message):
        train = LabeledDataset(np.arange(4, dtype=float)[:, None], [0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match=message):
            energy_predict_batch(train, k, margin, MetricMatrix.identity(1), np.array([[0.0]]))


def oracle_vote(dist_row, idx, labels, class_count):
    """The per-row vote the array program replaced."""
    lab = labels[idx]
    counts = np.bincount(lab, minlength=class_count)
    best = counts.max()
    cands = np.flatnonzero(counts == best)
    if len(cands) == 1:
        return int(cands[0])
    sums = np.array([dist_row[idx[lab == c]].sum() for c in cands])
    return int(cands[np.argmin(sums)])


def oracle_vote_rows(d, labels, class_count, k):
    if k < d.shape[1]:
        idx = np.argpartition(d, k, axis=1)[:, :k]
    else:
        idx = np.tile(np.arange(d.shape[1]), (d.shape[0], 1))
    return np.array([oracle_vote(d[i], idx[i], labels, class_count) for i in range(len(d))])


def oracle_class_energy(d_row, labels, class_count, k, margin):
    """The per-row class energies the array program replaced."""
    energies = np.empty(class_count)
    order = np.argsort(d_row, kind="stable")
    sorted_labels = labels[order]
    sorted_d = d_row[order]
    for c in range(class_count):
        own = sorted_d[sorted_labels == c][:k]
        other = sorted_d[sorted_labels != c][:k]
        hinge = np.maximum(0.0, margin + own[:, None] - other[None, :])
        energies[c] = own.sum() + hinge.sum()
    return energies


def oracle_energy_labels(d, labels, class_count, k, margin):
    return np.array([int(np.argmin(oracle_class_energy(row, labels, class_count, k, margin)))
                     for row in d])


def distance_table(rng, lattice, n_query, n_train, class_count):
    """Query-to-train distances and balanced train labels; lattice data are
    small integers, so distances tie exactly within and across classes."""
    labels = rng.permutation(np.arange(n_train) % class_count)
    if lattice:
        return rng.integers(0, 6, size=(n_query, n_train)).astype(float), labels
    return rng.exponential(size=(n_query, n_train)), labels


class TestVoteMatchesOracle:
    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("class_count", [2, 3, 4])
    def test_labels(self, lattice, class_count):
        rng = np.random.default_rng(10 + class_count + 10 * lattice)
        for n_train in (12, 40):
            d, labels = distance_table(rng, lattice, 60, n_train, class_count)
            for k in range(1, 17):
                np.testing.assert_array_equal(
                    _vote_grid(d, labels, class_count, (k,))[0],
                    oracle_vote_rows(d, labels, class_count, k))

    def test_count_tie_goes_to_smaller_sum_then_lower_index(self):
        labels = np.array([0, 1, 2, 0, 1])
        d = np.array([[1.0, 2.0, 9.0, 4.0, 3.0],    # 0: 5.0, 1: 5.0 -> class 0
                      [2.0, 1.0, 9.0, 4.0, 3.0],    # 0: 6.0, 1: 4.0 -> class 1
                      [9.0, 9.0, 1.0, 9.0, 9.0]])   # k=1: class 2
        np.testing.assert_array_equal(_vote_grid(d[:2], labels, 3, (4,))[0], [0, 1])
        np.testing.assert_array_equal(_vote_grid(d[2:], labels, 3, (1,))[0], [2])


class TestVoteGridMatchesOracle:
    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("class_count", [2, 3, 4])
    def test_every_k_of_the_grid(self, lattice, class_count):
        rng = np.random.default_rng(40 + class_count + 10 * lattice)
        boundary_ties = 0
        for n_train in (12, 40, 300):
            d, labels = distance_table(rng, lattice, 60, n_train, class_count)
            ranked = np.sort(d, axis=1)
            # at n = 300 a partition at k = 195 and one at k = 13 or 62 pick
            # different members of a tied boundary
            for k_grid in ((1, 3, 5, 7, 9, 11), tuple(range(1, 17)), (16, 2),
                           (13, 62, 195), (n_train - 1, n_train, n_train + 3)):
                got = _vote_grid(d, labels, class_count, k_grid)
                assert got.shape == (len(k_grid), len(d))
                for k, row in zip(k_grid, got):
                    np.testing.assert_array_equal(
                        row, oracle_vote_rows(d, labels, class_count, k))
                    if k < n_train:
                        boundary_ties += int(np.sum(ranked[:, k - 1] == ranked[:, k]))
        # lattice tables exercise the rows that take a per-k partition
        assert (boundary_ties > 0) == lattice


class TestNonFiniteDistances:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vote_and_energy_sort_reject(self, bad):
        d, labels = distance_table(np.random.default_rng(50), False, 5, 12, 2)
        d[3, 4] = bad
        message = "non-finite distances in 1 of 5 query rows"
        with pytest.raises(ValueError, match=message):
            _vote_grid(d, labels, 2, (1, 3))
        with pytest.raises(ValueError, match=message):
            _vote_grid(d, labels, 2, (20,))
        with pytest.raises(ValueError, match=message):
            _sorted_by_class(d, labels, 2, 3)

    def test_overflowing_query_rejected(self):
        train = LabeledDataset(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1], 2)
        queries = np.array([[0.5], [1e300]])
        metric = MetricMatrix.identity(1)
        with pytest.raises(ValueError, match="non-finite distances in 1 of 2"):
            knn_predict_batch(train, 1, metric, queries)
        with pytest.raises(ValueError, match="non-finite distances in 1 of 2"):
            energy_predict_batch(train, 1, 0.0, metric, queries)


class TestEnergyMatchesOracle:
    @pytest.mark.parametrize("margin", [0.0, 0.37, 5.0])
    @pytest.mark.parametrize("class_count", [2, 3, 4])
    def test_continuous_labels(self, margin, class_count):
        rng = np.random.default_rng(20 + class_count)
        d, labels = distance_table(rng, False, 80, 12 * class_count, class_count)
        parts = _sorted_by_class(d, labels, class_count, 12)
        for k in range(1, 13):
            np.testing.assert_array_equal(
                _energy_labels(parts, k, margin),
                oracle_energy_labels(d, labels, class_count, k, margin))

    @pytest.mark.parametrize("margin", [0.0, 0.37])
    @pytest.mark.parametrize("class_count", [2, 3, 4])
    def test_lattice_ties_take_lower_index(self, margin, class_count):
        # margin 0 keeps the arithmetic exact; with 0.37 the exact ties
        # survive only if every energy adds its terms in the oracle's order
        rng = np.random.default_rng(30 + class_count)
        d, labels = distance_table(rng, True, 200, 8 * class_count, class_count)
        parts = _sorted_by_class(d, labels, class_count, 8)
        tied = 0
        for k in range(1, 9):
            got = _energy_labels(parts, k, margin)
            np.testing.assert_array_equal(
                got, oracle_energy_labels(d, labels, class_count, k, margin))
            energies = np.array([oracle_class_energy(r, labels, class_count, k, margin)
                                 for r in d])
            tied += int(np.sum((energies == energies.min(1, keepdims=True)).sum(1) > 1))
        assert tied > 0  # the data exercise the tie rule


class TestMargins:
    def test_constant_differences(self):
        # two parallel class rows: every point has a same-class neighbor at
        # squared distance 1 and an other-class neighbor at squared distance 3
        s = np.sqrt(3.0)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, s], [1.0, s]])
        train = LabeledDataset(x, [0, 0, 1, 1], 2)
        got = margin_candidates(train, MetricMatrix.identity(2), (1.0,))
        assert got[0] == pytest.approx(2.0, rel=1e-12)

    def test_single_beta(self):
        rng = np.random.default_rng(5)
        train = LabeledDataset(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), 2)
        m = MetricMatrix.identity(2)
        assert len(margin_candidates(train, m, (1.0,))) == 1

    def test_median_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        train = LabeledDataset(rng.normal(size=(50, 3)), rng.integers(0, 2, 50), 2)
        m = random_psd_metric(rng, 3)
        got = margin_candidates(train, m, (1.0,))[0]
        diffs = []
        for i in range(50):
            ds = [oracle_mahalanobis_distance(m, train.features[i], train.features[j])
                  for j in range(50) if j != i and train.labels[j] == train.labels[i]]
            do = [oracle_mahalanobis_distance(m, train.features[i], train.features[j])
                  for j in range(50) if train.labels[j] != train.labels[i]]
            diffs.append(min(do) - min(ds))
        expect = max(0.0, float(np.sort(diffs)[24:26].mean()))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_clipped_at_zero(self):
        # other-class points much closer than same-class ones
        x = np.array([[0.0], [10.0], [0.1], [10.1]])
        train = LabeledDataset(x, [0, 0, 1, 1], 2)
        got = margin_candidates(train, MetricMatrix.identity(1), (1.0, 2.0))
        assert got == [0.0, 0.0]


@pytest.fixture(scope="module")
def three_normal_split():
    ds = make_synthetic_mixture(three_normal_preset(dim=6), 300, seed=4)
    return split(ds, SplitSpec(seed=2))


@pytest.fixture(scope="module")
def iris_split():
    ds = load_csv("data/iris.csv", "label", has_header=True)
    train, validation, test = split(ds, SplitSpec(seed=1000))
    train, params = scale_features(train)
    return train, params.transform(validation), params.transform(test)


def oracle_tuning(method, train, validation, metric, k_grid, lam_grid, beta_grid):
    """The grid table and winner of the tuner, one classifier call per cell:
    records in k order (knn), lam-major (glm_int) or k-major over the k every
    class can supply (energy); the winner has the smallest error, then the
    smallest k, then the smallest second parameter."""
    labels, q = validation.labels, validation.features
    if method == "knn":
        grid = [{"k": k, "validation_error": float(np.mean(
            knn_predict_batch(train, k, metric, q) != labels))} for k in k_grid]
    elif method == "glm_int":
        errors = oracle_glm_int_errors(train, validation, labels,
                                       fit_gaussian_models(train, 1e-3), k_grid, lam_grid)
        grid = [{"k": k, "lam_int": lam, "validation_error": err}
                for (k, lam), err in errors.items()]
    else:
        smallest = np.bincount(train.labels).min()
        grid = [{"k": k, "beta": beta, "margin": margin, "validation_error": float(np.mean(
            energy_predict_batch(train, k, margin, metric, q) != labels))}
                for k in k_grid if k <= smallest
                for beta, margin in zip(beta_grid, margin_candidates(train, metric, beta_grid))]
    best = min(grid, key=lambda g: (g["validation_error"], *g.values()))
    return grid, {key: v for key, v in best.items() if key != "validation_error"}


class TestTuning:
    @pytest.mark.parametrize("method", ["knn", "glm_int", "energy"])
    @pytest.mark.parametrize("data", ["iris", "three_normal"])
    def test_grid_and_test_error_equal_per_cell_evaluation(self, data, method, iris_split,
                                                           three_normal_split):
        train, validation, test = iris_split if data == "iris" else three_normal_split
        metric = MetricMatrix.identity(train.dim)
        single = {"k_grid": (3,), "lam_grid": (0.5,), "beta_grid": (1.0,)}
        full = {"k_grid": DEFAULT_K_GRID, "lam_grid": DEFAULT_LAMBDA_GRID,
                "beta_grid": DEFAULT_BETA_GRID}
        # on three-normal, glm_int ties at (k, lam) = (1, 0.9) and (3, 0.0)
        # here, so the smaller k must win over the smaller lam
        tied = {"k_grid": (3, 1), "lam_grid": (0.9, 0.0), "beta_grid": (4.0, 0.25)}
        for grids in (single, tied, full):
            r = tune_and_test(method, train, validation, test, metric=metric, **grids)
            grid, chosen = oracle_tuning(method, train, validation, metric, **grids)
            assert r.grid == grid and r.chosen == chosen
            assert r.validation_error == min(g["validation_error"] for g in grid)
            k = chosen["k"]
            if method == "knn":
                direct = float(np.mean(knn_predict_batch(train, k, metric, test.features)
                                       != test.labels))
            elif method == "glm_int":
                lam = chosen["lam_int"]
                direct = _glm_int_errors(train, test, test.labels,
                                         fit_gaussian_models(train, 1e-3), (k,), (lam,))[(k, lam)]
            else:
                pred = energy_predict_batch(train, k, chosen["margin"], metric, test.features)
                direct = float(np.mean(pred != test.labels))
            assert r.test_error == direct
        # the full grid has tied validation errors, so its winner rests on the tie rule
        errors = [g["validation_error"] for g in r.grid]
        assert len(set(errors)) < len(errors)

    def test_dominating_config_selected(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 8.0])
        ds = LabeledDataset(x, [0] * 30 + [1] * 30, 2)
        train, validation, test = split(ds, SplitSpec(seed=0))
        # k=1 separates the blobs perfectly; a k spanning both classes cannot
        big = train.n
        r = tune_and_test("knn", train, validation, test,
                          metric=MetricMatrix.identity(2), k_grid=(1, big))
        assert r.chosen == {"k": 1}

    def test_tie_prefers_smaller_k(self, iris_split):
        train, validation, test = iris_split
        r = tune_and_test("knn", train, validation, test,
                          metric=MetricMatrix.identity(train.dim))
        errs = {g["k"]: g["validation_error"] for g in r.grid}
        best = min(errs.values())
        assert r.chosen["k"] == min(k for k, e in errs.items() if e == best)

    def test_seeded_rerun_reproduces_selection(self, iris_split):
        train, validation, test = iris_split
        a = tune_and_test("glm_int", train, validation, test, k_grid=(1, 3, 5),
                          lam_grid=(0.0, 0.5, 1.0))
        b = tune_and_test("glm_int", train, validation, test, k_grid=(1, 3, 5),
                          lam_grid=(0.0, 0.5, 1.0))
        assert a.chosen == b.chosen
        assert a.test_error == b.test_error

    def test_energy_method_runs(self, iris_split):
        train, validation, test = iris_split
        metric = MetricMatrix.identity(train.dim)
        r = tune_and_test("energy", train, validation, test, metric=metric,
                          k_grid=(1, 3), beta_grid=(0.5, 1.0))
        assert 0.0 <= r.test_error <= 1.0
        assert set(r.chosen) == {"k", "beta", "margin"}

    def test_empty_test_portion_cannot_be_built(self, iris_split):
        # tune_and_test scores the test portion without an emptiness check
        _, _, test = iris_split
        with pytest.raises(ValueError, match="non-empty"):
            test.subset([])

    def test_unknown_method(self, iris_split):
        train, validation, test = iris_split
        with pytest.raises(ValueError, match="unknown method"):
            tune_and_test("nope", train, validation, test)


def oracle_glm_int_errors(train, queries, labels, ms, k_grid, lam_grid):
    """The glm_int loop the stack path replaced: one interpolated MetricMatrix per
    (query, lam) pair."""
    base = compute_all_local_metrics(queries, ms)
    errors = {}
    for lam in lam_grid:
        d = np.empty((queries.n, train.n))
        for i, m in enumerate(base):
            mi = oracle_interpolate(m, lam)
            d[i] = pairwise_sq_dists(queries.features[i:i + 1], train.features, mi.matrix)[0]
        for k in k_grid:
            pred = _vote_grid(d, train.labels, train.class_count, (k,))[0]
            errors[(k, lam)] = float(np.mean(pred != labels))
    return errors


class TestGlmIntMatchesOracle:
    @pytest.mark.parametrize("data", ["iris", "three_normal"])
    def test_error_table(self, data, iris_split):
        if data == "iris":
            train, validation, _ = iris_split
        else:
            ds = make_synthetic_mixture(three_normal_preset(dim=6), 300, seed=4)
            train, validation, _ = split(ds, SplitSpec(seed=2))
        ms = fit_gaussian_models(train, 1e-3)
        args = (train, validation, validation.labels, ms, (1, 3, 5, 7),
                (0.0, 0.1, 0.25, 0.5, 0.9, 1.0))
        assert _glm_int_errors(*args) == oracle_glm_int_errors(*args)


def oracle_per_query_sq_dists(q, ms, x):
    """The per-row loop the batched glm_int distances replaced."""
    return np.stack([pairwise_sq_dists(q[i:i + 1], x, m)[0] for i, m in enumerate(ms)])


def interpolated_stack(train, queries, lam):
    base, _ = local_metric_stack(queries.features, fit_gaussian_models(train, 1e-3))
    return interpolate_with_euclidean(base, lam)


class TestPerQueryDistances:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("data", ["iris", "three_normal"])
    def test_matches_per_row_oracle(self, data, lam, iris_split, three_normal_split):
        train, validation, _ = iris_split if data == "iris" else three_normal_split
        ms = interpolated_stack(train, validation, lam)
        x = train.features
        got = _per_query_sq_dists(validation.features, ms, x)
        expect = oracle_per_query_sq_dists(validation.features, ms, x)
        # the products add the same terms in another order: float64 rounding
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * expect.max())
        assert got.min() >= 0.0

    def test_chunked_table_equals_whole(self, three_normal_split, monkeypatch):
        train, validation, _ = three_normal_split
        ms = interpolated_stack(train, validation, 0.3)
        x = train.features
        whole = _per_query_sq_dists(validation.features, ms, x)
        args = (train, validation, validation.labels, fit_gaussian_models(train, 1e-3),
                (1, 5), (0.0, 0.3))
        errors = _glm_int_errors(*args)
        monkeypatch.setattr(classify, "OUTER_TABLE_BYTES", 7 * 8 * x.shape[1] ** 2)
        chunked = _per_query_sq_dists(validation.features, ms, x)
        # BLAS may add a 7-column product in another order than a whole one
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-12 * whole.max())
        assert _glm_int_errors(*args) == errors
