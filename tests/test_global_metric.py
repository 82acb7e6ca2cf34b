import numpy as np
import pytest

from glmetric import global_metric
from glmetric._linalg import pairwise_sq_dists, sym_sqrt
from glmetric.classify import knn_predict_batch
from glmetric.dataset import (LabeledDataset, SplitSpec, make_synthetic_mixture,
                              split, three_normal_preset)
from glmetric.generative import fit_gaussian_models
from glmetric.global_metric import (_kde_log_density, density_weighted_combination,
                                    fixed_point_residual, select_kde_bandwidth,
                                    uniform_combination)
from glmetric.local_metric import (MetricMatrix, compute_all_local_metrics,
                                   local_metric_stack, solve_local_metric)
from test_local_metric import random_symmetric_indefinite


def gaussian_classes(dim, classes, n, seed, spread=2.0):
    rng = np.random.default_rng(seed)
    comps = []
    for c in range(classes):
        mean = rng.normal(size=dim) * spread
        a = rng.normal(size=(dim, dim))
        comps.append((1.0 / classes, mean, a @ a.T / dim + np.eye(dim), c))
    return make_synthetic_mixture(comps, n, seed + 1)


class TestUniform:
    def test_arithmetic(self):
        metrics = [MetricMatrix(np.diag([2.0, 0.5])), MetricMatrix(np.diag([0.5, 2.0]))]
        np.testing.assert_allclose(uniform_combination(metrics).matrix,
                                   np.diag([1.25, 1.25]))

    def test_identical_inputs(self):
        m = MetricMatrix(np.diag([3.0, 1.0]))
        out = uniform_combination([m] * 7)
        np.testing.assert_allclose(out.matrix, m.matrix)

    def test_min_eigenvalue_convexity_bound(self):
        rng = np.random.default_rng(0)
        metrics = [solve_local_metric(random_symmetric_indefinite(rng, 4))
                   for _ in range(10)]
        mins = [np.linalg.eigvalsh(m.matrix).min() for m in metrics]
        combined_min = np.linalg.eigvalsh(uniform_combination(metrics).matrix).min()
        assert combined_min >= min(mins) - 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        metrics = [solve_local_metric(random_symmetric_indefinite(rng, 3))
                   for _ in range(6)]
        a = uniform_combination(metrics).matrix
        b = uniform_combination(metrics[::-1]).matrix
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform_combination([])

    def test_stack_equals_list(self):
        ds = gaussian_classes(4, 3, 150, seed=2)
        metrics = compute_all_local_metrics(ds, fit_gaussian_models(ds, 1e-3))
        stack = np.stack([m.matrix for m in metrics])
        a = uniform_combination(metrics)
        b = uniform_combination(stack)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert (a.provenance, a.det_normalized) == (b.provenance, b.det_normalized)


class TestSqrtTransform:
    def test_diagonal(self):
        l = sym_sqrt(MetricMatrix(np.diag([4.0, 9.0])).matrix)
        np.testing.assert_allclose(l, np.diag([2.0, 3.0]))

    def test_identity(self):
        np.testing.assert_array_equal(sym_sqrt(MetricMatrix.identity(3).matrix), np.eye(3))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        m = MetricMatrix(a @ a.T + np.eye(5))
        l = sym_sqrt(m.matrix)
        err = np.linalg.norm(l.T @ l - m.matrix, "fro") / np.linalg.norm(m.matrix, "fro")
        assert err < 1e-10


class TestDensityWeighted:
    def setup_method(self):
        ds = gaussian_classes(3, 3, 120, seed=3)
        self.train, self.validation, _ = split(ds, SplitSpec(seed=0))

    def test_kde_weights_converge(self):
        # fixed-seed observation: the weight trajectory contracts below 1e-3
        # before the iteration cap, and a rerun reproduces it exactly
        ds = gaussian_classes(4, 3, 180, seed=3)
        train, validation, _ = split(ds, SplitSpec(seed=1))
        _, info = density_weighted_combination(train, validation, "kde", max_iter=20)
        gaps = [np.abs(a - b).sum()
                for a, b in zip(info["weights"][1:], info["weights"][:-1])]
        assert min(gaps[:19]) < 1e-3
        _, rerun = density_weighted_combination(train, validation, "kde", max_iter=20)
        for a, b in zip(info["weights"], rerun["weights"]):
            np.testing.assert_array_equal(a, b)

    def test_composed_transform_matches_sequential_factors(self):
        metric, info = density_weighted_combination(self.train, self.validation,
                                                    "kde", max_iter=4)
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3))
        za, zb = a.copy(), b.copy()
        for factor in info["factors"]:
            za, zb = za @ factor, zb @ factor
        sequential = np.sum((za - zb) ** 2)
        direct = (a - b) @ metric.matrix @ (a - b)
        assert abs(sequential - direct) <= 1e-8 * abs(direct)

    def test_gmm_variant_runs_and_reclassifies(self, monkeypatch):
        seen = []  # (coordinates, labels) of each iteration's class mixture
        fit = global_metric._mixture_from_labels
        monkeypatch.setattr(global_metric, "_mixture_from_labels",
                            lambda x, labels, lam_cov: seen.append((x, labels))
                            or fit(x, labels, lam_cov))
        metric, info = density_weighted_combination(self.train, self.validation,
                                                    "gmm", max_iter=3)
        assert info["bandwidths"] == []
        assert len(info["weights"]) == 3
        assert np.linalg.eigvalsh(metric.matrix).min() > 0
        # the first mixture uses the given labels, each later one the 3-NN
        # labels against the validation portion in the current coordinates
        assert len(seen) == 3
        np.testing.assert_array_equal(seen[0][1], self.train.labels)
        v = self.validation.features
        for it in (1, 2):
            v = v @ info["factors"][it - 1]
            ref = LabeledDataset(v, self.validation.labels, self.validation.class_count)
            knn = knn_predict_batch(ref, 3, MetricMatrix.identity(3), seen[it][0])
            np.testing.assert_array_equal(seen[it][1], knn)
        assert (seen[1][1] != self.train.labels).any()

    def test_all_zero_densities_fall_back_to_uniform(self, caplog, monkeypatch):
        import logging
        monkeypatch.setattr(global_metric, "_mixture_log_density",
                            lambda ms, x: np.full(len(x), -np.inf))
        with caplog.at_level(logging.WARNING, logger="glmetric.global_metric"):
            got, info = density_weighted_combination(self.train, self.validation, "gmm",
                                                     max_iter=1)
        assert "underflow" in caplog.text
        stack, _ = local_metric_stack(self.train.features,
                                      fit_gaussian_models(self.train, 1e-3))
        np.testing.assert_array_equal(got.matrix, uniform_combination(stack).matrix)
        np.testing.assert_array_equal(info["weights"][0],
                                      np.full(self.train.n, 1.0 / self.train.n))

    def test_unknown_kind_rejected_before_fitting(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the kind was checked")

        monkeypatch.setattr(global_metric, "fit_gaussian_models", no_fit)
        with pytest.raises(ValueError, match="unknown estimator kind 'custom'"):
            density_weighted_combination(self.train, self.validation, "custom")

    def test_invalid_iteration_count(self):
        with pytest.raises(ValueError):
            density_weighted_combination(self.train, self.validation, "kde", max_iter=0)


class TestFixedPointResidual:
    @pytest.mark.parametrize("dim,classes", [(2, 2), (5, 3), (10, 2), (5, 2), (2, 3), (10, 3)])
    def test_uniform_combination_is_fixed_point(self, dim, classes):
        ds = gaussian_classes(dim, classes, 90 * classes, seed=dim * 10 + classes)
        ms = fit_gaussian_models(ds, 0.0)
        metric = uniform_combination(compute_all_local_metrics(ds, ms))
        assert fixed_point_residual(ds, metric, lam_cov=0.0) < 1e-6

    def test_arbitrary_metric_far_from_fixed_point(self):
        ds = gaussian_classes(4, 2, 200, seed=11)
        metric = MetricMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert fixed_point_residual(ds, metric, lam_cov=0.0) > 1e-3

    def test_one_dimensional_is_always_zero(self):
        ds = gaussian_classes(1, 2, 100, seed=12)
        assert fixed_point_residual(ds, MetricMatrix(np.array([[2.5]])), 0.0) == 0.0


def kde_at(x_train, sigma, query):
    """Kernel density estimate at one point through the batched path."""
    sq = pairwise_sq_dists(np.array([query], dtype=float), x_train)
    with np.errstate(under="ignore"):
        return float(np.exp(_kde_log_density(sq, x_train.shape[1], sigma))[0])


def oracle_kde_log_density(x_train, sigma, queries):
    """The KDE log density that computed its own query-to-train distances."""
    n, d = x_train.shape
    log_h = np.log(n) + 0.5 * d * np.log(np.pi) + d * np.log(sigma)
    sq = pairwise_sq_dists(np.atleast_2d(queries), x_train) / sigma ** 2
    m = -sq.min(axis=1)
    with np.errstate(under="ignore"):
        lse = m + np.log(np.exp(-sq - m[:, None]).sum(axis=1))
    return lse - log_h


def oracle_select_kde_bandwidth(x_train, x_val):
    """The bandwidth search that recomputed the distances for every candidate."""
    d = pairwise_sq_dists(x_train, x_train)
    med = float(np.sqrt(np.median(d[np.triu_indices(len(x_train), 1)])))
    best = None
    for j in range(-3, 4):
        sigma = med * 2.0 ** j
        ll = float(oracle_kde_log_density(x_train, sigma, x_val).sum())
        if np.isfinite(ll) and (best is None or ll > best[0]):
            best = (ll, sigma)
    return best[1]


class TestKde:
    def test_single_training_point(self):
        sigma = 0.7
        val = kde_at(np.array([[1.5]]), sigma, [1.5])
        assert val == pytest.approx(1.0 / (np.sqrt(np.pi) * sigma), rel=1e-12)

    def test_far_query_underflows_to_zero(self):
        assert kde_at(np.array([[0.0]]), 0.5, [1e4]) == 0.0

    def test_consistency_on_standard_normal(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1000, 1))
        val = kde_at(x, 0.5, [0.0])
        assert abs(val - 0.3989) / 0.3989 < 0.15

    def test_bandwidth_selection_prefers_reasonable_scale(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 2))
        v = rng.standard_normal((80, 2))
        sigma = select_kde_bandwidth(x, v)
        assert 0.05 < sigma < 20.0

    def test_bandwidth_needs_a_positive_median(self):
        v = np.zeros((3, 2))
        for x in (np.zeros((4, 2)), np.array([[0.0, np.nan], [1.0, 0.0], [2.0, 0.0]])):
            with pytest.raises(ValueError, match="degenerate training set: median pairwise"):
                select_kde_bandwidth(x, v)
        with pytest.raises(ValueError, match="needs at least two points, got 1"):
            select_kde_bandwidth(np.ones((1, 2)), v)

    @pytest.mark.parametrize("dim,seed", [(1, 0), (3, 1), (5, 2)])
    def test_bandwidths_and_weights_match_per_candidate_oracle(self, dim, seed):
        ds = gaussian_classes(dim, 3, 150, seed=seed)
        train, validation, _ = split(ds, SplitSpec(seed=seed))
        _, info = density_weighted_combination(train, validation, "kde", max_iter=4)
        x, v = train.features, validation.features
        for it in range(4):
            sigma = oracle_select_kde_bandwidth(x, v)
            assert info["bandwidths"][it] == sigma
            with np.errstate(under="ignore"):
                w = np.exp(oracle_kde_log_density(x, sigma, x))
            np.testing.assert_array_equal(info["weights"][it], w / w.sum())
            if it < 3:
                x, v = x @ info["factors"][it], v @ info["factors"][it]
