import numpy as np
import pytest
from scipy.integrate import quad

from glmetric.dataset import LabeledDataset
from glmetric._linalg import symmetrize
from glmetric.generative import (GenerativeModelSet, _build_models, _fit_classes,
                                 asymptotic_error_mc, bias_integrand, bias_matrix,
                                 bias_matrices, density, fit_gaussian_models, hessian,
                                 log_density)
from glmetric.local_metric import MetricMatrix, solve_local_metric


def model_set(means, covs, priors=None):
    n = len(means)
    priors = priors or [1.0 / n] * n
    return _build_models(np.array([np.atleast_1d(np.asarray(m, dtype=float)) for m in means]),
                         np.array([np.atleast_2d(np.asarray(c, dtype=float)) for c in covs]),
                         np.array(priors, dtype=float))


def random_model_set(rng, dim, classes=2):
    means, covs = [], []
    for _ in range(classes):
        means.append(rng.normal(size=dim))
        a = rng.normal(size=(dim, dim))
        covs.append(a @ a.T / dim + np.eye(dim))
    return model_set(means, covs)


class TestFit:
    def test_two_point_covariance(self):
        ds = LabeledDataset(np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 5.0], [6.0, 6.0]]),
                            [0, 0, 1, 1], 2)
        with pytest.raises(ValueError, match="positive definite"):
            fit_gaussian_models(ds, 0.0)
        ms = fit_gaussian_models(ds, 1e-3)
        np.testing.assert_allclose(ms.means[0], [1.0, 0.0])
        # sample covariance diag(1, 0) plus 1e-3 * (trace/2) * I
        np.testing.assert_allclose(ms.covariances[0],
                                   np.diag([1.0005, 0.0005]), atol=1e-12)
        assert np.linalg.eigvalsh(ms.covariances[0]).min() > 0

    def test_class_without_spread_falls_back_to_lam_cov_identity(self):
        ds = LabeledDataset(np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [6.0, 7.0]]),
                            [0, 0, 1, 1], 2)
        ms = fit_gaussian_models(ds, 1e-2)
        np.testing.assert_array_equal(ms.means[0], [1.0, 2.0])
        np.testing.assert_array_equal(ms.covariances[0], 1e-2 * np.eye(2))

    def test_identical_classes_give_identical_models(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        ds = LabeledDataset(np.vstack([x, x]), [0] * 20 + [1] * 20, 2)
        ms = fit_gaussian_models(ds, 1e-3)
        np.testing.assert_array_equal(ms.means[0], ms.means[1])
        np.testing.assert_array_equal(ms.covariances[0], ms.covariances[1])

    def test_estimates_shrink_like_root_n(self):
        mu = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        chol = np.linalg.cholesky(cov)

        def errs(n, seed):
            rng = np.random.default_rng(seed)
            x = mu + rng.standard_normal((n, 2)) @ chol.T
            ds = LabeledDataset(np.vstack([x, x + 50]), [0] * n + [1] * n, 2)
            ms = fit_gaussian_models(ds, 0.0)
            return (np.linalg.norm(ms.means[0] - mu),
                    np.linalg.norm(ms.covariances[0] - cov, "fro"))

        small = np.mean([errs(500, s) for s in range(5)], axis=0)
        large = np.mean([errs(50000, s) for s in range(5)], axis=0)
        for s, l in zip(small, large):
            ratio = (s * np.sqrt(500)) / (l * np.sqrt(50000))
            assert 1 / 3 < ratio < 3

    def test_missing_class(self):
        ds = LabeledDataset(np.ones((3, 2)) * np.arange(3)[:, None], [0, 0, 0], 2)
        with pytest.raises(ValueError, match="class 1"):
            fit_gaussian_models(ds)

    def test_priors_sum_to_one(self):
        ds = LabeledDataset(np.random.default_rng(1).normal(size=(30, 2)),
                            [0] * 10 + [1] * 20, 2)
        ms = fit_gaussian_models(ds)
        assert ms.priors[0] == pytest.approx(1 / 3)
        assert sum(ms.priors) == pytest.approx(1.0, abs=1e-12)


def oracle_fit(train, lam_cov):
    """The per-class fit that the stacked one replaced: (mean, covariance,
    precision, log determinant, prior) of each class, one matrix at a time."""
    x, y = train.features, train.labels
    n, d = x.shape
    out = []
    for c in range(train.class_count):
        xc = x[y == c]
        mean = xc.mean(axis=0)
        centered = xc - mean
        cov = (centered.T @ centered) / len(xc)
        tr = np.trace(cov)
        cov = symmetrize(cov + lam_cov * (tr / d) * np.eye(d) if tr > 0 else lam_cov * np.eye(d))
        _, log_det = np.linalg.slogdet(cov)
        out.append((mean, cov, np.linalg.inv(cov), float(log_det), len(xc) / n))
    return out


FIELDS = ("means", "covariances", "precisions", "log_dets", "priors")


def assert_equals_oracle(ms, train, lam_cov):
    for field, want in zip(FIELDS, zip(*oracle_fit(train, lam_cov))):
        np.testing.assert_array_equal(getattr(ms, field), np.array(want), err_msg=field)


class TestStackedFit:
    @pytest.mark.parametrize("dim, classes, lam_cov", [(1, 2, 1e-3), (4, 3, 0.0),
                                                       (10, 3, 1e-3), (6, 5, 1e-1)])
    def test_fit_equals_the_per_class_oracle_bit_for_bit(self, dim, classes, lam_cov):
        rng = np.random.default_rng(10 * dim + classes)
        labels = np.concatenate([np.arange(classes), rng.integers(0, classes, 40 * classes)])
        x = rng.normal(size=(len(labels), dim)) * rng.uniform(0.5, 3.0, dim) + labels[:, None]
        ds = LabeledDataset(x, labels, classes)
        assert_equals_oracle(fit_gaussian_models(ds, lam_cov), ds, lam_cov)

    def test_class_without_spread_matches_the_oracle(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0], [6.0, 7.0], [4.0, 1.0]])
        ds = LabeledDataset(x, [0, 0, 1, 1, 1], 2)
        assert_equals_oracle(fit_gaussian_models(ds, 1e-2), ds, 1e-2)

    def test_relabelled_subset_equals_the_remapped_dataset(self):
        # the cluster path: fit the clusters in keep, leave the other rows out
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 3))
        assignments = rng.integers(0, 5, size=80)
        keep = np.array([0, 2, 3])
        remap = np.full(assignments.max() + 1, -1)
        remap[keep] = np.arange(len(keep))
        mask = remap[assignments] >= 0
        pseudo = LabeledDataset(x[mask], remap[assignments][mask], len(keep))
        assert_equals_oracle(_fit_classes(x, assignments, keep, 1e-3), pseudo, 1e-3)
        # the density-weighting path: every row, over the labels present
        labels = np.array([4, 1, 4, 6] * 20)
        present = np.unique(labels)
        remap = np.full(labels.max() + 1, -1)
        remap[present] = np.arange(len(present))
        assert_equals_oracle(_fit_classes(x, labels, present, 1e-3),
                             LabeledDataset(x, remap[labels], len(present)), 1e-3)

    def test_non_finite_rows_are_rejected(self):
        x = np.random.default_rng(13).normal(size=(20, 2))
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match="means and covariances must be finite"):
            _fit_classes(x, np.arange(20) % 2, [0, 1], 1e-3)


def valid_stacks():
    covs = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]])
    return {"means": np.array([[0.0, 0.0], [1.0, 1.0]]), "covariances": covs,
            "precisions": np.linalg.inv(covs),
            "log_dets": np.linalg.slogdet(covs)[1], "priors": np.array([0.25, 0.75])}


@pytest.mark.parametrize("field, first, message", [
    ("covariances", [[2.0, 0.501], [0.5, 1.0]], "symmetric"),
    ("covariances", [[1.0, 2.0], [2.0, 1.0]], "positive definite"),
    ("covariances", [[2.0, np.nan], [np.nan, 1.0]], "finite"),
    ("means", [np.inf, 0.0], "finite"),
    ("precisions", [[2.0, 0.0], [0.0, 2.0]], "inverse of the covariance"),
    ("priors", -0.5, r"\(0, 1\]"),
    ("priors", 0.3, "sum to 1"),
], ids=["asymmetric", "indefinite", "non_finite", "non_finite_mean", "wrong_precision",
        "prior_out_of_range", "priors_not_summing_to_1"])
def test_batched_check_rejects_each_bad_stack(field, first, message):
    stacks = valid_stacks()
    GenerativeModelSet(**stacks)  # the valid stacks pass
    stacks[field][0] = first  # class 0 of one stack goes bad
    if field == "covariances":  # a matching precision, so only the covariance is bad
        stacks["precisions"][0] = np.linalg.inv(np.nan_to_num(stacks[field][0]))
    with pytest.raises(ValueError, match=message):
        GenerativeModelSet(**stacks)


class TestDensity:
    def test_standard_normal_at_zero(self):
        ms = model_set([[0.0], [10.0]], [[[1.0]], [[1.0]]])
        assert density(ms, [0.0])[0] == pytest.approx(0.398942, abs=1e-6)

    def test_bivariate_at_center(self):
        ms = model_set([[0.0, 0.0], [9.0, 9.0]], [np.eye(2), np.eye(2)])
        assert density(ms, [0.0, 0.0])[0] == pytest.approx(1 / (2 * np.pi), rel=1e-12)

    def test_log_density_finite_when_density_underflows(self):
        ms = model_set([[0.0], [1.0]], [[[1.0]], [[1.0]]])
        assert log_density(ms, [50.0])[0] == pytest.approx(-1250.918939, abs=1e-6)
        assert density(ms, [50.0])[0] == 0.0

    def test_transform_jacobian_invariance(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        l = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        ms = model_set([mu, mu + 20], [cov, cov])
        ms_z = model_set([l @ mu, l @ (mu + 20)],
                         [l @ cov @ l.T, l @ cov @ l.T])
        x = rng.normal(size=3)
        p_x = density(ms, x)[0]
        p_z = density(ms_z, l @ x)[0]
        assert p_z == pytest.approx(p_x / abs(np.linalg.det(l)), rel=1e-8)


class TestHessian:
    def test_at_mean_is_negative_scaled_precision(self):
        rng = np.random.default_rng(4)
        ms = random_model_set(rng, 3)
        mean = ms.means[0]
        h = hessian(ms, mean)[0]
        np.testing.assert_allclose(h, -density(ms, mean)[0] * ms.precisions[0], rtol=1e-12)

    def test_univariate_inflection_point(self):
        ms = model_set([[0.0], [5.0]], [[[1.0]], [[1.0]]])
        assert hessian(ms, [1.0])[0][0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        ms = random_model_set(rng, 2)
        x = ms.means[0] + rng.normal(size=2) * 0.8
        h = hessian(ms, x)[0]
        step = 1e-4
        fd = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * step
                ej = np.eye(2)[j] * step
                fd[i, j] = (density(ms, x + ei + ej)[0] - density(ms, x + ei - ej)[0]
                            - density(ms, x - ei + ej)[0] + density(ms, x - ei - ej)[0]
                            ) / (4 * step ** 2)
        assert np.abs(fd - h).max() / np.abs(h).max() < 1e-5

    def test_trace_at_mean(self):
        rng = np.random.default_rng(6)
        ms = random_model_set(rng, 4)
        mean = ms.means[0]
        assert np.trace(hessian(ms, mean)[0]) == pytest.approx(
            -density(ms, mean)[0] * np.trace(ms.precisions[0]), rel=1e-12)


class TestBiasMatrix:
    def test_zero_at_symmetry_midpoint(self):
        ms = model_set([[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        bias, degenerate = bias_matrix([0.0], ms)
        assert not degenerate
        assert np.abs(bias).max() < 1e-18

    def test_zero_when_all_classes_identical(self):
        ms = model_set([[0.0, 0.0]] * 3, [np.eye(2)] * 3)
        bias, degenerate = bias_matrix([0.3, -0.2], ms)
        assert np.abs(bias).max() == 0.0
        assert not degenerate

    def test_binary_identity_against_pairwise_expression(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = rng.integers(1, 4)
            ms = random_model_set(rng, dim)
            x = rng.normal(size=dim) * 2
            bias, _ = bias_matrix(x, ms)
            p1, p2 = density(ms, x)
            bs = []
            for mean, precision in zip(ms.means, ms.precisions):
                a = precision @ (x - mean)
                bs.append(np.outer(a, a) - precision)
            oracle = p1 * p2 * (p2 - p1) * (bs[0] - bs[1])
            assert np.abs(bias - oracle).max() <= 1e-10 * max(np.abs(oracle).max(), 1e-300)

    def test_degenerate_when_all_densities_underflow(self):
        ms = model_set([[0.0], [1.0]], [[[1.0]], [[1.0]]])
        bias, degenerate = bias_matrix([1e6], ms)
        assert degenerate
        assert np.abs(bias).max() == 0.0

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        ms = random_model_set(rng, 4, classes=3)
        biases, _ = bias_matrices(rng.normal(size=(50, 4)), ms)
        assert np.abs(biases - biases.transpose(0, 2, 1)).max() == 0.0

    def test_single_class_rejected(self):
        ms = model_set([[0.0]], [[[1.0]]], priors=[1.0])
        with pytest.raises(ValueError, match="two classes"):
            bias_matrix([0.0], ms)

    def test_unequal_priors_weight_the_densities(self):
        x = np.array([0.4])
        skewed = model_set([[-1.0], [1.0]], [[[1.0]], [[4.0]]], priors=[0.8, 0.2])
        bias, _ = bias_matrix(x, skewed)
        p1 = 0.8 * density(skewed, x)[0]
        p2 = 0.2 * density(skewed, x)[1]
        bs = []
        for mean, precision in zip(skewed.means, skewed.precisions):
            a = precision @ (x - mean)
            bs.append(np.outer(a, a) - precision)
        oracle = p1 * p2 * (p2 - p1) * (bs[0] - bs[1])
        np.testing.assert_allclose(bias, oracle, rtol=1e-10)
        # and the prior weighting changes more than an overall scale
        balanced = model_set([[-1.0], [1.0]], [[[1.0]], [[4.0]]])
        bias_balanced, _ = bias_matrix(x, balanced)
        assert not np.isclose(bias[0, 0] / bias_balanced[0, 0],
                              (0.8 * 0.2) ** 1.5, rtol=1e-3)


class TestAsymptoticError:
    def test_identical_models_give_half(self):
        ms = model_set([[0.0], [0.0]], [[[1.0]], [[1.0]]])
        est, se = asymptotic_error_mc(ms, 20000, seed=0)
        assert est == pytest.approx(0.5, abs=1e-12)

    def test_far_separation(self):
        ms = model_set([[0.0], [100.0]], [[[1.0]], [[1.0]]])
        est, _ = asymptotic_error_mc(ms, 5000, seed=1)
        assert est < 1e-6

    def test_matches_quadrature(self):
        ms = model_set([[0.0], [2.0]], [[[1.0]], [[1.0]]])

        def integrand(x):
            # p1 p2 / (p1 + p2) evaluated in log space
            l1 = -0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)
            l2 = -0.5 * (x - 2) ** 2 - 0.5 * np.log(2 * np.pi)
            return np.exp(l1 + l2 - np.logaddexp(l1, l2))

        truth, quad_err = quad(integrand, -np.inf, np.inf)
        assert quad_err < 1e-7
        est, se = asymptotic_error_mc(ms, 200000, seed=2)
        assert abs(est - truth) <= 3 * se

    def test_requires_binary(self):
        ms = model_set([[0.0], [1.0], [2.0]], [[[1.0]]] * 3)
        with pytest.raises(ValueError):
            asymptotic_error_mc(ms, 100, seed=0)


class TestBiasIntegrand:
    def test_zero_at_midpoint(self):
        ms = model_set([[-1.0], [1.0]], [[[1.0]], [[1.0]]])
        val = bias_integrand([0.0], MetricMatrix.identity(1), ms)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_zero_at_solver_metric(self):
        rng = np.random.default_rng(9)
        ms = random_model_set(rng, 3)
        x = rng.normal(size=3)
        bias, _ = bias_matrix(x, ms)
        metric = solve_local_metric(bias)
        norm = np.linalg.norm(bias)
        if norm > 0 and not metric.degenerate:
            assert abs(bias_integrand(x, metric, ms)) < 1e-8 * max(norm, 1e-10)

    def test_univariate_symbolic_oracle(self):
        import sympy as sp
        xs = sp.symbols("x")
        p1 = sp.exp(-xs ** 2 / 2) / sp.sqrt(2 * sp.pi)
        p2 = sp.exp(-(xs - 2) ** 2 / 2) / sp.sqrt(2 * sp.pi)
        expr = (p1 * p2 * (p2 - p1) / (p1 + p2) ** 2
                * (sp.diff(p1, xs, 2) / p1 - sp.diff(p2, xs, 2) / p2))
        truth = float(expr.subs(xs, sp.Rational(1, 5)))
        ms = model_set([[0.0], [2.0]], [[[1.0]], [[1.0]]])
        val = bias_integrand([0.2], MetricMatrix.identity(1), ms)
        assert val == pytest.approx(truth, rel=1e-10)

    def test_singular_metric_rejected(self):
        ms = model_set([[0.0], [2.0]], [[[1.0]], [[1.0]]])
        bad = MetricMatrix(np.zeros((1, 1)), "euclidean")
        with pytest.raises(ValueError, match="singular"):
            bias_integrand([0.2], bad, ms)
