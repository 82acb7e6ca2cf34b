import dataclasses
import logging

import numpy as np
import pytest

from glmetric import _linalg, kernel_mkl, make_synthetic_mixture, three_normal_preset
from glmetric._linalg import pairwise_sq_dists, sym_sqrt
from glmetric.dataset import SplitSpec, scale_features, split
from glmetric.kernel_mkl import (BaseKernel, MklModel, SvmSolution, _combine,
                                 _decision_values, _objective_rounding, _rejects,
                                 build_kernel_bank, gram_bank,
                                 gram_matrix, mkl_train,
                                 predict_one_vs_all, project_simplex,
                                 svm_solve, train_one_vs_all, DEFAULT_TAU_GRID)
from glmetric.local_metric import MetricMatrix, solve_local_metric
from test_local_metric import random_symmetric_indefinite

logger = logging.getLogger(__name__)


# Oracles: the column-read SMO loop run to the end, the whole-matrix
# sum-every-kernel combination and the one-distance-matrix-per-kernel Gram
# that the row-read, masked-gradient loop with its early stop at a rejection
# bound, the blocked zero-weight-skipping combination and the
# one-distance-matrix-per-metric bank replaced. The fast paths must
# reproduce them bit for bit.

def oracle_svm_solve(k, y, c, tol=1e-4, max_iter=200000):
    """Soft-margin SVM dual by most-violating-pair coordinate ascent.

    k is the (symmetric, PSD within tolerance) Gram matrix and y the +-1
    labels. Stops when the maximum KKT violation drops below tol; at the
    iteration cap the best iterate is returned with converged=False and a
    warning. The bias averages -y * gradient over unbounded support vectors.
    peak is the largest dual value on the whole path.
    """
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +-1")
    n = len(y)
    q = k * np.outer(y, y)
    diag = np.diag(q).copy()
    beta = np.zeros(n)
    grad = -np.ones(n)  # gradient of 0.5 b'Qb - e'b
    it = 0
    violation = np.inf
    peak = 0.0
    for it in range(1, max_iter + 1):
        yg = -y * grad
        up = np.where(y > 0, beta < c - 1e-12, beta > 1e-12)
        low = np.where(y > 0, beta > 1e-12, beta < c - 1e-12)
        if not up.any() or not low.any():
            violation = 0.0
            break
        i_cand = np.flatnonzero(up)
        j_cand = np.flatnonzero(low)
        i = i_cand[np.argmax(yg[i_cand])]
        j = j_cand[np.argmin(yg[j_cand])]
        violation = yg[i] - yg[j]
        if violation < tol:
            break
        quad = max(diag[i] + diag[j] - 2.0 * y[i] * y[j] * q[i, j], 1e-12)
        step = violation / quad
        # box limits along the feasible pair direction
        step = min(step,
                   c - beta[i] if y[i] > 0 else beta[i],
                   beta[j] if y[j] > 0 else c - beta[j])
        beta[i] += y[i] * step
        beta[j] -= y[j] * step
        peak = max(peak, beta[i], beta[j])
        grad += step * (y[i] * q[:, i] - y[j] * q[:, j])
    converged = violation < tol
    if not converged:
        logger.warning("SVM solver hit the iteration cap (violation %.3g)", violation)
    yg = -y * grad
    unbounded = (beta > 1e-8) & (beta < c - 1e-8)
    if unbounded.any():
        bias = float(yg[unbounded].mean())
    else:
        up = np.where(y > 0, beta < c - 1e-12, beta > 1e-12)
        low = np.where(y > 0, beta > 1e-12, beta < c - 1e-12)
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        bias = float(0.5 * (hi + lo))
    objective = float(beta.sum() - 0.5 * beta @ q @ beta)
    return SvmSolution(beta, bias, objective, it, converged, float(max(violation, 0.0)),
                       float(peak))


def oracle_mkl_train(grams, y, c, tol=1e-4, max_outer=50, svm_tol=1e-4):
    """Simplex-weighted kernel combination minimizing the SVM dual optimum.

    Alternates an exact SVM solve on the combined kernel with a projected
    gradient step on the weights (gradient -0.5 beta^T (y K_k y) beta per
    kernel), backtracking until the dual optimum does not increase, so the
    recorded objective curve is non-increasing. Stops when the weights move
    less than tol in l1 or the objective decrease falls below tol.
    """
    y = np.asarray(y, dtype=float)
    m = len(grams)
    if m == 0:
        raise ValueError("need at least one kernel")
    weights = np.full(m, 1.0 / m)
    sol = oracle_svm_solve(oracle_combine(weights, grams), y, c, tol=svm_tol)
    curve = [sol.objective]
    step = 1.0
    converged = False
    for _ in range(max_outer):
        yb = y * sol.beta
        grad = np.array([-0.5 * yb @ kk @ yb for kk in grams])
        accepted = None
        for _ in range(25):
            cand = project_simplex(weights - step * grad)
            move = np.abs(cand - weights).sum()
            if move < 1e-14:
                break
            cand_sol = oracle_svm_solve(oracle_combine(cand, grams), y, c, tol=svm_tol)
            if cand_sol.objective <= curve[-1] + 1e-12:
                accepted = (cand, cand_sol, move)
                break
            step *= 0.5
        if accepted is None:
            converged = True  # no descent direction left at this scale
            break
        weights, sol, move = accepted
        decrease = curve[-1] - sol.objective
        curve.append(sol.objective)
        if move < tol or decrease < tol * max(1.0, abs(curve[0])):
            converged = True
            break
        step *= 1.5
    return MklModel(weights, sol.beta, sol.bias, y, float(c),
                    objective_curve=curve, converged=converged)


def oracle_gram_matrix(bk: BaseKernel, x, x2=None):
    """Kernel matrix between rows of x and rows of x2 (or x with itself)."""
    x = np.asarray(x, dtype=float)
    other = x if x2 is None else np.asarray(x2, dtype=float)
    with np.errstate(under="ignore"):
        k = np.exp(-pairwise_sq_dists(x, other, bk.metric.matrix) / bk.sigma_sq)
    if x2 is None:
        np.fill_diagonal(k, 1.0)
        k = 0.5 * (k + k.T)
    return k


def oracle_combine(weights, grams):
    """sum_k a_k K_k over every kernel, whole matrices at a time."""
    out = weights[0] * grams[0]
    for a, kk in zip(weights[1:], grams[1:]):
        out = out + a * kk
    return out


def oracle_decision_values(model: MklModel, test_grams):
    return oracle_combine(model.weights, test_grams) @ (model.beta * model.labels) + model.bias


def kernel_value(bk, x, y):
    """One kernel value through the batched Gram path."""
    return gram_matrix(bk, np.array([x], dtype=float), np.array([y], dtype=float))[0, 0]


class TestRbfKernel:
    def test_same_point_gives_one(self):
        bk = BaseKernel(MetricMatrix.identity(2), 1.3)
        assert kernel_value(bk, [0.4, -1.0], [0.4, -1.0]) == 1.0

    def test_unit_ratio_gives_inverse_e(self):
        bk = BaseKernel(MetricMatrix.identity(2), 25.0)
        assert kernel_value(bk, [3.0, 4.0], [0.0, 0.0]) == pytest.approx(np.exp(-1), rel=1e-12)

    def test_equals_rbf_on_transformed_points(self):
        rng = np.random.default_rng(0)
        metric = solve_local_metric(random_symmetric_indefinite(rng, 3))
        l = sym_sqrt(metric.matrix)
        x, y = rng.normal(size=(2, 3))
        bk = BaseKernel(metric, 2.0)
        standard = np.exp(-np.sum((x @ l - y @ l) ** 2) / 2.0)
        assert kernel_value(bk, x, y) == pytest.approx(standard, rel=1e-12)


class TestKernelBank:
    def test_identity_bank_has_grid_size(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        bank = build_kernel_bank([MetricMatrix.identity(4)], x)
        assert len(bank) == 15
        # sigma^2 = sigma0^2 / tau, and dividing by a power of two is exact
        taus = [2.0 ** k for k in range(-6, 9)]
        assert [bank[0].sigma_sq / bk.sigma_sq * taus[0] for bk in bank] == taus

    def test_cartesian_count(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 3))
        metrics = [solve_local_metric(random_symmetric_indefinite(rng, 3)) for _ in range(4)]
        bank = build_kernel_bank(metrics, x)
        assert len(bank) == 4 * 15

    def test_sigma0_scales_with_metric(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        small = MetricMatrix(0.01 * np.eye(2), "euclidean")
        bank = build_kernel_bank([MetricMatrix.identity(2), small], x)
        assert bank[15].sigma_sq == pytest.approx(0.01 * bank[0].sigma_sq, rel=1e-9)

    @pytest.mark.parametrize("n", [40, 1500])
    def test_bandwidth_is_the_exact_median_over_every_pair(self, n):
        # 1,500 points have 1,124,250 pairs, more than the 10^6 a sample once read
        rng = np.random.default_rng(11)
        x = rng.normal(size=(n, 3))
        metric = solve_local_metric(random_symmetric_indefinite(rng, 3))
        d = pairwise_sq_dists(x, x, metric.matrix)
        median = float(np.median(d[np.triu_indices(n, 1)]))
        bank = build_kernel_bank([metric], x, tau_grid=(1.0, 4.0))
        assert [bk.sigma_sq for bk in bank] == [median, median / 4.0]

    def test_duplicated_points_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError, match="degenerate pairwise distances"):
            build_kernel_bank([MetricMatrix.identity(2)], x)

    def test_nan_median_and_one_point_rejected(self):
        x = np.zeros((10, 2))
        x[3, 1] = np.nan  # every pair with row 3 is NaN, and so is the median
        with pytest.raises(ValueError, match="degenerate pairwise distances"):
            build_kernel_bank([MetricMatrix.identity(2)], x)
        with pytest.raises(ValueError, match="needs at least two points, got 1"):
            build_kernel_bank([MetricMatrix.identity(2)], np.ones((1, 2)))


class TestGram:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 3))
        bk = BaseKernel(MetricMatrix.identity(3), 1.0)
        assert (np.diag(gram_matrix(bk, x)) == 1.0).all()

    def test_numerically_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=(30, 3))
            metric = solve_local_metric(random_symmetric_indefinite(rng, 3))
            k = gram_matrix(BaseKernel(metric, float(rng.uniform(0.5, 4.0))), x)
            assert np.linalg.eigvalsh(k).min() >= -1e-8 * len(x)

    def test_collinear_hand_values(self):
        x = np.array([[0.0], [1.0], [2.0]])
        bk = BaseKernel(MetricMatrix.identity(1), 1.0)  # sigma = spacing
        k = gram_matrix(bk, x)
        assert k[0, 1] == pytest.approx(np.exp(-1), rel=1e-12)
        assert k[1, 2] == pytest.approx(np.exp(-1), rel=1e-12)
        assert k[0, 2] == pytest.approx(np.exp(-4), rel=1e-12)

    def test_cross_gram_shape(self):
        bk = BaseKernel(MetricMatrix.identity(2), 1.0)
        k = gram_matrix(bk, np.zeros((3, 2)), np.ones((5, 2)))
        assert k.shape == (3, 5)


class TestGramBankMatchesOracle:
    @pytest.mark.parametrize("cross", [False, True], ids=["train", "cross"])
    def test_one_distance_matrix_per_metric(self, monkeypatch, cross):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 3))
        x2 = rng.normal(size=(25, 3)) if cross else None
        metrics = [MetricMatrix.identity(3)] + [
            solve_local_metric(random_symmetric_indefinite(rng, 3)) for _ in range(2)]
        bank = build_kernel_bank(metrics, x)
        assert len(bank) == 3 * len(DEFAULT_TAU_GRID)
        # a metric that comes back after another needs its distances again
        mixed = [bank[0], bank[20], bank[1], bank[2]]
        calls = []

        def counted(*args):
            calls.append(args[2])
            return pairwise_sq_dists(*args)

        monkeypatch.setattr(kernel_mkl, "pairwise_sq_dists", counted)
        for kernels, metric_runs in ((bank, metrics), (mixed, metrics[:2] + metrics[:1])):
            calls.clear()
            grams = gram_bank(kernels, x, x2)
            assert len(calls) == len(metric_runs)
            assert all(m is run.matrix for m, run in zip(calls, metric_runs))
            assert len(grams) == len(kernels)
            for bk, k in zip(kernels, grams):
                want = oracle_gram_matrix(bk, x, x2)
                np.testing.assert_array_equal(k, want)
                np.testing.assert_array_equal(gram_matrix(bk, x, x2), want)
        assert len({k.tobytes() for k in grams}) == len(grams)


def project_box_hyperplane(v, y, c):
    """Projection onto {0 <= b <= C, sum(b y) = 0} (labels y of +-1), exactly.

    The balance sum(clip(v - t y, 0, C) y) is piecewise linear and
    non-increasing in the shift t, with breakpoints where a coordinate
    meets 0 or C. It is positive below the smallest breakpoint (both classes
    present), so the root lies on the one segment where it changes sign.
    """
    t = np.sort(np.concatenate([v * y, (v - c) * y]))
    balance = np.clip(v - t[:, None] * y, 0.0, c) @ y
    j = np.flatnonzero(balance <= 0.0)[0]
    t0, t1, b0, b1 = t[j - 1], t[j], balance[j - 1], balance[j]
    root = t1 if b1 == 0.0 else t0 + (t1 - t0) * b0 / (b0 - b1)
    return np.clip(v - root * y, 0.0, c)


def projected_gradient_svm(k, y, c, steps=20000):
    """Independent slow-but-sure dual maximizer used as an oracle."""
    q = k * np.outer(y, y)
    eta = 1.0 / max(np.linalg.eigvalsh(q).max(), 1e-12)
    beta = project_box_hyperplane(np.zeros(len(y)), y, c)
    for _ in range(steps):
        grad = 1.0 - q @ beta
        beta = project_box_hyperplane(beta + eta * grad, y, c)
    return beta.sum() - 0.5 * beta @ q @ beta


class TestSvm:
    def test_two_point_hand_solution(self):
        k = np.eye(2)
        y = np.array([1.0, -1.0])
        sol = svm_solve(k, y, 10.0)
        np.testing.assert_allclose(sol.beta, [1.0, 1.0], atol=1e-6)
        assert sol.bias == pytest.approx(0.0, abs=1e-6)
        # stationarity of 2t - t^2 at t = 1
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_separable_blobs_reach_zero_training_error(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) + 6.0])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        bk = BaseKernel(MetricMatrix.identity(2), 4.0)
        k = gram_matrix(bk, x)
        sol = svm_solve(k, y, 1000.0)
        decision = k @ (sol.beta * y) + sol.bias
        assert (np.sign(decision) == y).all()

    def test_objective_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 3))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        y[:2] = [1.0, -1.0]  # both classes present
        k = gram_matrix(BaseKernel(MetricMatrix.identity(3), 3.0), x)
        sol = svm_solve(k, y, 1.0)
        oracle = projected_gradient_svm(k, y, 1.0)
        assert abs(sol.objective - oracle) <= 1e-3 * max(abs(oracle), 1.0)
        assert sol.objective >= oracle - 1e-6  # ours is at least as optimal

    def test_kkt_violation_below_tolerance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 2))
        y = np.where(x[:, 0] + 0.3 * rng.normal(size=50) > 0, 1.0, -1.0)
        k = gram_matrix(BaseKernel(MetricMatrix.identity(2), 2.0), x)
        assert kernel_mkl.SVM_TOL == 1e-4
        sol = svm_solve(k, y, 10.0)
        assert sol.converged
        assert sol.kkt_violation < 1e-4

    def test_unbounded_support_vector_reproduces_label(self, monkeypatch):
        monkeypatch.setattr(kernel_mkl, "SVM_TOL", 1e-6)
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 4.0])
        y = np.array([-1.0] * 15 + [1.0] * 15)
        k = gram_matrix(BaseKernel(MetricMatrix.identity(2), 8.0), x)
        sol = svm_solve(k, y, 10.0)
        unbounded = (sol.beta > 1e-6) & (sol.beta < 10.0 - 1e-6)
        assert unbounded.any()
        decision = k @ (sol.beta * y) + sol.bias
        np.testing.assert_allclose(decision[unbounded], y[unbounded], atol=1e-4)


def random_svm_problem(seed, n):
    """RBF Gram matrix of n random points and +-1 labels with both classes."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    k = gram_matrix(BaseKernel(MetricMatrix.identity(3), float(rng.uniform(0.5, 4.0))), x)
    return k, y


def assert_same_solution(got, want):
    np.testing.assert_array_equal(got.beta, want.beta)
    assert got.bias == want.bias
    assert got.objective == want.objective
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.kkt_violation == want.kkt_violation
    assert got.peak == want.peak
    assert got.stopped == want.stopped


class TestSvmMatchesOracle:
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n", [2, 40, 360])
    def test_random_gram(self, n, c):
        k, y = random_svm_problem(n + int(10 * c), n)
        assert_same_solution(svm_solve(k, y, c), oracle_svm_solve(k, y, c))

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_single_class(self, label):
        k, _ = random_svm_problem(19, 30)
        y = np.full(30, label)
        sol = svm_solve(k, y, 1.0)
        assert_same_solution(sol, oracle_svm_solve(k, y, 1.0))
        assert sol.converged and sol.iterations == 1

    def test_c_below_the_box_margin(self):
        k, y = random_svm_problem(23, 20)
        sol = svm_solve(k, y, 1e-13)
        assert_same_solution(sol, oracle_svm_solve(k, y, 1e-13))
        assert sol.iterations == 1 and not sol.beta.any()

    def test_fortran_ordered_gram(self):
        k, y = random_svm_problem(30, 150)
        k = np.asfortranarray(k)
        assert_same_solution(svm_solve(k, y, 20.0), oracle_svm_solve(k, y, 20.0))

    def test_slightly_non_symmetric_gram(self):
        k, y = random_svm_problem(20, 60)
        k = k + 1e-3 * np.random.default_rng(21).normal(size=k.shape)
        assert not np.array_equal(k, k.T)
        assert_same_solution(svm_solve(k, y, 10.0), oracle_svm_solve(k, y, 10.0))

    def test_iteration_cap(self, caplog, monkeypatch):
        k, y = random_svm_problem(22, 40)
        monkeypatch.setattr(kernel_mkl, "SVM_MAX_ITER", 5)
        with caplog.at_level(logging.WARNING, logger="glmetric.kernel_mkl"):
            sol = svm_solve(k, y, 10.0)
        assert not sol.converged and sol.iterations == 5
        assert [r.name for r in caplog.records] == ["glmetric.kernel_mkl"]
        assert "iteration cap" in caplog.records[0].getMessage()
        assert_same_solution(sol, oracle_svm_solve(k, y, 10.0, max_iter=5))


def three_normal_problem():
    """The 360-point train Gram of the three-normal preset (tau = 1) with the
    class-0-against-the-rest labels."""
    data = make_synthetic_mixture(three_normal_preset(), 600, seed=7)
    train, _, _ = split(data, SplitSpec(seed=1000))
    train, _ = scale_features(train)
    bank = build_kernel_bank([MetricMatrix.identity(train.dim)], train.features, (1.0,))
    return gram_matrix(bank[0], train.features), np.where(train.labels == 0, 1.0, -1.0)


class TestSvmMasksMatchOracle:
    """The masked gradient copies give up and take back a point's value each
    time its dual leaves or joins a set; the solution must not show it."""

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_three_normal_gram(self, caplog, monkeypatch, c):
        k, y = three_normal_problem()
        assert k.shape == (360, 360)
        sol = svm_solve(k, y, c)
        assert_same_solution(sol, oracle_svm_solve(k, y, c))
        # count the set changes between solves capped every 25 steps: duals
        # cross between the up and low sets many times on the way
        changes, before = 0, None
        with caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"):
            for cap in range(25, sol.iterations + 25, 25):
                monkeypatch.setattr(kernel_mkl, "SVM_MAX_ITER", cap)
                b = svm_solve(k, y, c).beta
                sets = np.stack([np.where(y > 0, b < c - 1e-12, b > 1e-12),
                                 np.where(y > 0, b > 1e-12, b < c - 1e-12)])
                changes += 0 if before is None else int((sets != before).sum())
                before = sets
        assert changes >= 100


class TestSvmStepEdgeCases:
    """Ties in the working-set choice and in the step limits, the quad floor
    and tiny C, where the scalar comparisons of the step must act as the
    builtin min and max of the oracle."""

    def test_tied_gradients_pick_the_first_index(self):
        k0, y0 = random_svm_problem(25, 20)
        twice = np.tile(np.arange(20), 2)  # every point twice: exact duplicate rows
        k, y = k0[np.ix_(twice, twice)], y0[twice]
        sol = svm_solve(k, y, 1e6)
        assert_same_solution(sol, oracle_svm_solve(k, y, 1e6))
        # duplicates keep equal gradients, and the box is never reached, so the
        # second copy of every point is never chosen
        assert sol.beta[:20].any() and not sol.beta[20:].any()

    @pytest.mark.parametrize("k, y, c, beta", [
        (np.eye(2), [1.0, -1.0], 1.0, [1.0, 1.0]),  # step == C on both duals
        ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.5],
          [0.0, 0.5, 0.5, 1.0]], [1.0, 1.0, 1.0, -1.0], 2.0,
         [0.0, 1.0, 1.0, 2.0]),  # step 4 == beta_j of a positive j
        ([[1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.0],
          [0.0, 0.0, 0.0, 1.0]], [-1.0, -1.0, 1.0, -1.0], 0.5,
         [0.0, 0.375, 0.5, 0.125]),  # step 2 == beta_i of a negative i and C - beta_j
    ], ids=["c-limits", "beta-j-limit", "beta-i-limit"])
    def test_step_equal_to_a_box_limit(self, k, y, c, beta):
        k, y = np.array(k), np.array(y)
        sol = svm_solve(k, y, c)
        assert_same_solution(sol, oracle_svm_solve(k, y, c))
        np.testing.assert_array_equal(sol.beta, beta)
        assert sol.peak == max(beta)

    @pytest.mark.parametrize("off", [1.0, 1.0 - 1e-13], ids=["zero", "below-floor"])
    def test_quad_at_its_floor(self, off):
        # one point twice with opposite labels: quad is 0 or 2e-13, so the
        # step is violation / 1e-12 and the box clips it
        k, y = np.array([[1.0, off], [off, 1.0]]), np.array([1.0, -1.0])
        sol = svm_solve(k, y, 1.0)
        assert_same_solution(sol, oracle_svm_solve(k, y, 1.0))
        np.testing.assert_array_equal(sol.beta, [1.0, 1.0])

    def test_quad_floor_inside_a_larger_problem(self, caplog, monkeypatch):
        # point 0 again at index 1 with label -1: the first step pairs the two
        # copies, so its quad is exactly 0 and the box clips the floored step
        k0, y0 = random_svm_problem(26, 24)
        idx = np.r_[0, np.arange(24)]
        k, y = k0[np.ix_(idx, idx)], np.r_[1.0, -1.0, y0[1:]]
        for c in (0.5, 10.0):
            with (caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"),
                  monkeypatch.context() as capped):
                capped.setattr(kernel_mkl, "SVM_MAX_ITER", 1)
                first = svm_solve(k, y, c)
            np.testing.assert_array_equal(first.beta, np.r_[c, c, np.zeros(23)])
            assert_same_solution(svm_solve(k, y, c), oracle_svm_solve(k, y, c))

    def test_duals_in_neither_index_set(self, monkeypatch):
        # at C <= 2e-12 a dual can end in [C - 1e-12, 1e-12] and leave both
        # sets; a tolerance far below SVM_TOL lets steps stop short of the box
        monkeypatch.setattr(kernel_mkl, "SVM_TOL", 1e-30)
        k, y = random_svm_problem(22, 12)
        sol = svm_solve(k, y, 1.2e-12)
        assert_same_solution(sol, oracle_svm_solve(k, y, 1.2e-12, tol=1e-30))
        b, c_hi = sol.beta, 1.2e-12 - 1e-12
        up = np.where(y > 0, b < c_hi, b > 1e-12)
        low = np.where(y > 0, b > 1e-12, b < c_hi)
        assert (~up & ~low).sum() == 6

    def test_c_between_the_index_and_bias_margins(self):
        # 1e-12 < C < 1e-8: duals move, but none counts as unbounded for the bias
        k, y = random_svm_problem(27, 20)
        sol = svm_solve(k, y, 5e-9)
        assert_same_solution(sol, oracle_svm_solve(k, y, 5e-9))
        assert sol.iterations > 1 and sol.beta.any()


class TestSolveReuse:
    """A solution whose path stayed below min(C, C') - 1e-8 is the solve at C'."""

    def separable_problem(self):
        """Two separated blobs whose duals overshoot on the path: at C = 10
        the peak is about 1.0001 and the largest final dual about 0.77."""
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + 5.0])
        y = np.array([-1.0] * 30 + [1.0] * 30)
        return gram_matrix(BaseKernel(MetricMatrix.identity(2), 4.0), x), y

    def test_peak_is_the_largest_dual_on_the_path(self, caplog, monkeypatch):
        k, y = self.separable_problem()
        sol = svm_solve(k, y, 10.0)
        prefixes = []
        with caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"):
            for t in range(1, sol.iterations + 1):
                monkeypatch.setattr(kernel_mkl, "SVM_MAX_ITER", t)
                prefixes.append(svm_solve(k, y, 10.0).beta.max())
        assert sol.peak == max(prefixes) > sol.beta.max()

    def test_solution_below_the_box_is_the_solve_at_other_c(self):
        k, y = self.separable_problem()
        sol = svm_solve(k, y, 10.0)
        assert 0.0 < sol.peak < 10.0 - 1e-8
        for other in (sol.peak + 2e-8, 0.5 * (sol.peak + 10.0), 100.0, 1e6):
            assert_same_solution(svm_solve(k, y, other), sol)
        clipped = svm_solve(k, y, 0.5 * sol.peak)
        assert clipped.peak == pytest.approx(0.5 * sol.peak, rel=1e-12)
        assert not np.array_equal(clipped.beta, sol.beta)


def overlapping_three_class_problem():
    """A 3-class bank whose classes overlap, so C = 0.1 clips duals at the box
    while larger C leave some solves below it."""
    rng = np.random.default_rng(24)
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    x = np.vstack([rng.normal(size=(20, 2)) + c for c in centers])
    labels = np.repeat(np.arange(3), 20)
    bank = build_kernel_bank([MetricMatrix.identity(2)], x,
                             tau_grid=(0.25, 1.0, 4.0, 16.0))
    return [gram_matrix(bk, x) for bk in bank], labels


class TestGridReuse:
    @pytest.mark.parametrize("c_grid", [(0.1, 1.0, 10.0, 100.0), (100.0, 10.0, 1.0, 0.1)],
                             ids=["increasing", "decreasing"])
    def test_grid_models_equal_fresh_per_c_fits(self, monkeypatch, c_grid):
        grams, labels = overlapping_three_class_problem()
        runs = []  # (kernel bytes, C, bound, solution) of every solve actually run

        def recording_solve(k, y, c, reject_above=None):
            sol = svm_solve(k, y, c, reject_above)
            runs.append((k.tobytes() + y.tobytes(), c, reject_above, sol))
            return sol

        monkeypatch.setattr("glmetric.kernel_mkl.svm_solve", recording_solve)
        per_c = train_one_vs_all(grams, labels, 3, c_grid)
        monkeypatch.undo()
        assert len(per_c) == len(c_grid)
        reused_across_c = 0
        for c, models in zip(c_grid, per_c):
            assert len(models) == 3
            for cls, model in enumerate(models):
                fresh = mkl_train(grams, np.where(labels == cls, 1.0, -1.0), c)
                np.testing.assert_array_equal(model.weights, fresh.weights)
                np.testing.assert_array_equal(model.beta, fresh.beta)
                np.testing.assert_array_equal(model.labels, fresh.labels)
                assert model.bias == fresh.bias
                assert model.C == fresh.C == c
                assert model.objective_curve == fresh.objective_curve
                assert model.converged == fresh.converged
                # the same solutions, fewer of them run
                assert (model.svm_solves + model.reused_solves
                        == fresh.svm_solves + fresh.reused_solves)
                assert (model.gradients + model.reused_gradients
                        == fresh.gradients + fresh.reused_gradients)
                assert model.unconverged_solves == fresh.unconverged_solves
                assert model.max_kkt_violation == fresh.max_kkt_violation
                reused_across_c += model.reused_solves - fresh.reused_solves
        assert reused_across_c > 0
        assert sum(m.svm_solves for ms in per_c for m in ms) == len(runs)
        # a problem solved again had no earlier solution that mkl_train's
        # memo rule lets serve it: each had touched the box at another C, or
        # stopped at a bound that does not prove this rejection
        earlier = {}
        resolved = 0
        for key, c, bound, sol in runs:
            for c0, sol0 in earlier.get(key, ()):
                assert not ((c0 == c or sol0.peak < min(c0, c) - 1e-8)
                            and (not sol0.stopped
                                 or bound is not None and _rejects(sol0.objective, bound)))
            resolved += key in earlier
            earlier.setdefault(key, []).append((c, sol))
        assert resolved > 0

    def test_grid_computes_one_gradient_per_solution(self, monkeypatch):
        grams, labels = overlapping_three_class_problem()
        memos = []  # the memo of every fit, in call order

        def recording_train(grams, y, c, memo=None, **kwargs):
            memos.append((y, memo))
            return mkl_train(grams, y, c, memo=memo, **kwargs)

        monkeypatch.setattr("glmetric.kernel_mkl.mkl_train", recording_train)
        per_c = train_one_vs_all(grams, labels, 3, (0.1, 1.0, 10.0, 100.0))
        monkeypatch.undo()
        for cls in range(3):
            y, memo = memos[cls]
            assert all(m is memo for _, m in memos[cls::3])  # one memo per class
            stored = [e for known in memo.values() for e in known if e[2] is not None]
            models = [ms[cls] for ms in per_c]
            # every computation filled one empty entry, so none ran twice
            assert sum(m.gradients for m in models) == len(stored)
            for _, sol, grad in stored:
                yb = y * sol.beta
                np.testing.assert_array_equal(
                    grad, [-0.5 * yb @ kk @ yb for kk in grams])
        assert sum(m.reused_gradients for ms in per_c[1:] for m in ms) > 0

    def test_one_uniform_sum_per_grid(self, monkeypatch):
        grams, labels = overlapping_three_class_problem()
        c_grid = (0.1, 1.0, 10.0, 100.0)
        sums = []  # the weights of every kernel sum

        def counted(weights, *args):
            sums.append(np.array(weights))
            return _combine(weights, *args)

        monkeypatch.setattr(kernel_mkl, "_combine", counted)
        per_c = train_one_vs_all(grams, labels, 3, c_grid)
        uniform = np.full(len(grams), 1.0 / len(grams))
        assert sum(np.array_equal(a, uniform) for a in sums) == 1
        sums.clear()
        for c, models in zip(c_grid, per_c):
            for cls, model in enumerate(models):
                fresh = mkl_train(grams, np.where(labels == cls, 1.0, -1.0), c)
                np.testing.assert_array_equal(model.weights, fresh.weights)
                np.testing.assert_array_equal(model.beta, fresh.beta)
                assert model.bias == fresh.bias
                assert model.objective_curve == fresh.objective_curve
                assert model.converged == fresh.converged
        # a fit alone sums the uniform weights itself
        assert sum(np.array_equal(a, uniform) for a in sums) == 3 * len(c_grid)

    def test_memo_is_filled_by_weight_bytes(self):
        grams, labels = overlapping_three_class_problem()
        y = np.where(labels == 0, 1.0, -1.0)
        memo = {}
        model = mkl_train(grams, y, 1.0, memo=memo)
        uniform = np.full(len(grams), 0.25)
        (c, sol, _), = memo[uniform.tobytes()]
        assert c == 1.0
        assert_same_solution(sol, svm_solve(_combine(uniform, grams), y, 1.0))
        assert model.svm_solves == sum(len(v) for v in memo.values())
        again = mkl_train(grams, y, 1.0, memo=memo)
        assert again.svm_solves == again.gradients == 0
        assert again.reused_solves == model.svm_solves + model.reused_solves
        assert again.reused_gradients == model.gradients + model.reused_gradients
        np.testing.assert_array_equal(again.beta, model.beta)


def small_three_normal_bank():
    """The 90-point train bank of a three-normal draw, identity metric over
    four bandwidths, with its class labels."""
    data = make_synthetic_mixture(three_normal_preset(), 150, seed=3)
    train, _, _ = split(data, SplitSpec(seed=1000))
    train, _ = scale_features(train)
    bank = build_kernel_bank([MetricMatrix.identity(train.dim)], train.features,
                             (0.25, 1.0, 4.0, 16.0))
    return gram_bank(bank, train.features), train.labels


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(got.beta, want.beta)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.bias == want.bias
    assert got.C == want.C
    assert got.objective_curve == want.objective_curve
    assert got.converged == want.converged


def solve_ignoring_bound(k, y, c, reject_above=None):
    return svm_solve(k, y, c)


class TestEarlyReject:
    """A candidate solve stops once its dual clears the rejection bound, and
    no weight, dual, bias or objective moves."""

    GRID = (0.1, 1.0, 10.0, 100.0)

    @pytest.mark.parametrize("problem", [overlapping_three_class_problem,
                                         small_three_normal_bank])
    def test_one_vs_all_equals_oracle_and_unbounded_solves(self, monkeypatch, problem):
        grams, labels = problem()
        per_c = train_one_vs_all(grams, labels, 3, self.GRID)
        monkeypatch.setattr(kernel_mkl, "svm_solve", solve_ignoring_bound)
        unbounded = train_one_vs_all(grams, labels, 3, self.GRID)
        monkeypatch.undo()
        assert sum(m.early_rejects for ms in per_c for m in ms) > 0
        for c, models, fulls in zip(self.GRID, per_c, unbounded):
            for cls, (model, full) in enumerate(zip(models, fulls)):
                assert_same_fit(model, full)
                assert_same_fit(model, oracle_mkl_train(
                    grams, np.where(labels == cls, 1.0, -1.0), c))
                # the same decisions, some of them proved by a stopped solve
                assert model.backtracks == full.backtracks >= model.early_rejects
                assert full.early_rejects == 0
                assert model.unconverged_solves == full.unconverged_solves
                assert model.max_kkt_violation == full.max_kkt_violation

    def test_reject_tol_moves_the_stop_and_the_decision_together(self, monkeypatch):
        # mkl_train's acceptance and svm_solve's stop share one rejection
        # test: at a wider tolerance the fits change, and stopping still
        # changes nothing
        grams, labels = overlapping_three_class_problem()
        default = train_one_vs_all(grams, labels, 3, self.GRID)
        monkeypatch.setattr(kernel_mkl, "REJECT_TOL", 1e-2)
        per_c = train_one_vs_all(grams, labels, 3, self.GRID)
        monkeypatch.setattr(kernel_mkl, "svm_solve", solve_ignoring_bound)
        unbounded = train_one_vs_all(grams, labels, 3, self.GRID)
        assert sum(m.early_rejects for ms in per_c for m in ms) > 0
        assert any(m.objective_curve != d.objective_curve
                   for ms, ds in zip(per_c, default) for m, d in zip(ms, ds))
        for models, fulls in zip(per_c, unbounded):
            for model, full in zip(models, fulls):
                assert_same_fit(model, full)

    @pytest.mark.parametrize("problem", [overlapping_three_class_problem,
                                         small_three_normal_bank])
    def test_every_stopped_solve_ends_above_its_bound(self, caplog, monkeypatch, problem):
        grams, labels = problem()
        stopped = []  # (kernel, labels, C, bound, solution)

        def recording_solve(k, y, c, reject_above=None):
            sol = svm_solve(k, y, c, reject_above)
            if sol.stopped:
                stopped.append((k.copy(), y, c, reject_above, sol))
            return sol

        monkeypatch.setattr(kernel_mkl, "svm_solve", recording_solve)
        with caplog.at_level(logging.WARNING, logger="glmetric.kernel_mkl"):
            train_one_vs_all(grams, labels, 3, self.GRID)
        monkeypatch.undo()
        assert not caplog.records  # a stop is not the iteration cap
        assert len(stopped) >= 10
        for k, y, c, bound, sol in stopped:
            assert not sol.converged and _rejects(sol.objective, bound)
            full = svm_solve(k, y, c)
            assert full.converged and not full.stopped
            assert full.objective >= sol.objective > bound + 1e-12
            assert full.peak >= sol.peak
            # the stopped iterate is the path of the full solve up to there
            monkeypatch.setattr(kernel_mkl, "SVM_MAX_ITER", sol.iterations)
            with caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"):
                prefix = svm_solve(k, y, c)
            monkeypatch.undo()
            np.testing.assert_array_equal(prefix.beta, sol.beta)
            assert prefix.peak == sol.peak
            # its objective is the dual there less both rounding margins
            n, kmax = len(y), np.abs(k).max()
            assert sol.objective == (prefix.objective
                                     - _objective_rounding(n, prefix.beta.sum(), kmax)
                                     - _objective_rounding(n, n * c, kmax))

    def test_a_bound_within_the_margin_of_the_optimum_changes_nothing(self):
        k, y = three_normal_problem()
        sol = svm_solve(k, y, 10.0)
        assert not sol.stopped
        # the optimum is above the second bound, but by less than the margin
        # that a stop keeps for the rounding of the final objective
        margin = _objective_rounding(len(y), len(y) * 10.0, np.abs(k).max())
        for bound in (sol.objective, sol.objective - 0.5 * margin):
            assert_same_solution(svm_solve(k, y, 10.0, reject_above=bound), sol)
        stopped = svm_solve(k, y, 10.0, reject_above=0.5 * sol.objective)
        assert stopped.stopped and stopped.iterations < sol.iterations

    def test_the_margin_grows_with_n_and_c(self):
        # n = 360, C = 1e4: the final objective's rounding bound is about 1,
        # far over 1e-9 of the objective; a stop still proves a rejection,
        # and a bound within that margin of the optimum stops nothing
        k, y = three_normal_problem()
        c = 1e4
        full = svm_solve(k, y, c)
        assert full.converged and not full.stopped
        margin = _objective_rounding(len(y), len(y) * c, np.abs(k).max())
        assert margin > 1e-3 * full.objective
        bound = 0.5 * full.objective
        stopped = svm_solve(k, y, c, reject_above=bound)
        assert stopped.stopped and stopped.iterations < full.iterations
        assert full.objective >= stopped.objective and _rejects(stopped.objective, bound)
        assert_same_solution(svm_solve(k, y, c, reject_above=full.objective - 0.5 * margin),
                             full)

    def test_partial_entries_serve_only_the_rejections_they_prove(self, monkeypatch):
        grams, labels = overlapping_three_class_problem()
        y, c = np.where(labels == 1, 1.0, -1.0), 100.0
        bounds = {}  # id of each stopped solution -> its bound

        def recording_solve(k, y, c, reject_above=None):
            sol = svm_solve(k, y, c, reject_above)
            bounds[id(sol)] = reject_above
            return sol

        monkeypatch.setattr(kernel_mkl, "svm_solve", recording_solve)
        memo = {}
        want = mkl_train(grams, y, c, memo=memo)
        monkeypatch.undo()
        partial = [(key, e[1]) for key, known in memo.items() for e in known
                   if e[1].stopped]
        assert len(partial) >= 2 and all(sol.peak < c - 1e-8 for _, sol in partial)

        def refit(entries):
            """A fit from a memo of the given (weight bytes, C, solution)."""
            memo = {}
            for key, c0, sol in entries:
                memo.setdefault(key, []).append([c0, sol, None])
            model = mkl_train(grams, y, c, memo=memo)
            assert_same_fit(model, want)
            assert model.svm_solves + model.reused_solves == want.svm_solves + want.reused_solves
            # a stopped solution never gets a gradient
            assert all(e[2] is None for known in memo.values() for e in known
                       if e[1].stopped)
            return model

        # reused at its own C and at any C over its partial path's peak
        for c0 in (c, 1e3):
            model = refit([(key, c0, sol) for key, sol in partial])
            assert model.svm_solves == want.svm_solves - len(partial)
        # solved again under the peak rule's other side
        model = refit([(key, 0.5 * sol.peak, sol) for key, sol in partial])
        assert model.svm_solves == want.svm_solves
        # solved again when its objective does not reject against the fit's
        # own bound: the same stopped solutions, certified only up to it
        lower = [(key, c, dataclasses.replace(sol, objective=bounds[id(sol)]))
                 for key, sol in partial]
        model = refit(lower)
        assert model.svm_solves == want.svm_solves
        # a stopped solution never serves a first solve, which has no bound
        uniform = np.full(len(grams), 1.0 / len(grams))
        first = svm_solve(_combine(uniform, grams), y, c, reject_above=0.0)
        assert first.stopped
        model = refit([(uniform.tobytes(), c, first)])
        assert model.svm_solves == want.svm_solves


class TestBlockedCombine:
    """_combine sums blocks of rows over every kernel; each element must get
    the whole-matrix sum's value."""

    @pytest.mark.parametrize("shape, block_rows", [
        ((60, 60), 4),  # square, a block that divides the rows
        ((25, 60), 4),  # validation x train, a block that does not
        ((60, 60), 7),
        ((360, 360), None),  # the default block: 91 of 360 rows
        ((3, 360), None),  # fewer rows than one default block
    ])
    @pytest.mark.parametrize("nonzero", [1, 4])
    def test_equals_whole_matrix_sum(self, monkeypatch, shape, block_rows, nonzero):
        rng = np.random.default_rng(shape[0] + nonzero)
        grams = [rng.random(shape) for _ in range(6)]
        weights = np.zeros(6)
        weights[rng.choice(6, nonzero, replace=False)] = rng.dirichlet(np.ones(nonzero))
        if block_rows is not None:
            monkeypatch.setattr(_linalg, "ROW_BLOCK_BYTES", 8 * shape[1] * block_rows)
        want = oracle_combine(weights, grams)
        np.testing.assert_array_equal(_combine(weights, grams), want)
        out = np.full(shape, np.nan)
        assert _combine(weights, grams, out) is out
        np.testing.assert_array_equal(out, want)


class TestInputChecks:
    def test_gram_shape_must_match_labels(self):
        y = np.array([1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match=r"shape \(1, 1\); 3 labels need \(3, 3\)"):
            svm_solve(np.ones((1, 1)), y, 1.0)
        with pytest.raises(ValueError, match="3 labels need"):
            svm_solve(np.eye(4), y, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gram_must_be_finite(self, bad):
        k = np.eye(2)
        k[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            svm_solve(k, [1.0, -1.0], 1.0)

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_c_must_be_positive(self, c):
        with pytest.raises(ValueError, match="C must be positive"):
            svm_solve(np.eye(2), [1.0, -1.0], c)

    def test_mkl_grams_must_share_shape(self):
        with pytest.raises(ValueError, match="Gram matrices differ in shape"):
            mkl_train([np.eye(4), np.eye(3)], [1.0, -1.0, 1.0, -1.0], 1.0)


class TestSimplexProjection:
    def test_output_on_simplex(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 8)) * 3
            p = project_simplex(v)
            assert (p >= 0).all()
            assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_idempotent_on_simplex_points(self):
        v = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_is_nearest_point(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=4)
        p = project_simplex(v)
        for _ in range(200):
            q = rng.dirichlet(np.ones(4))
            assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-12


class TestMkl:
    def two_blob_problem(self, rng, n=30):
        x = np.vstack([rng.normal(size=(n, 2)), rng.normal(size=(n, 2)) + 5.0])
        y = np.array([-1.0] * n + [1.0] * n)
        return x, y

    def test_single_kernel_equals_plain_svm(self):
        rng = np.random.default_rng(12)
        x, y = self.two_blob_problem(rng)
        k = gram_matrix(BaseKernel(MetricMatrix.identity(2), 4.0), x)
        model = mkl_train([k], y, 1.0)
        np.testing.assert_array_equal(model.weights, [1.0])
        sol = svm_solve(k, y, 1.0)
        assert model.objective_curve[-1] == pytest.approx(sol.objective, rel=1e-9)

    def test_identical_kernels_reach_single_kernel_objective(self):
        rng = np.random.default_rng(13)
        x, y = self.two_blob_problem(rng)
        k = gram_matrix(BaseKernel(MetricMatrix.identity(2), 4.0), x)
        model = mkl_train([k, k.copy()], y, 1.0)
        sol = svm_solve(k, y, 1.0)
        assert model.objective_curve[-1] == pytest.approx(sol.objective, abs=1e-6)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-8)

    def test_informative_kernel_outweighs_noise(self):
        rng = np.random.default_rng(14)
        x, y = self.two_blob_problem(rng)
        informative = gram_matrix(BaseKernel(MetricMatrix.identity(2), 16.0), x)
        noise_feats = rng.normal(size=(len(y), 2))
        noise = gram_matrix(BaseKernel(MetricMatrix.identity(2), 4.0), noise_feats)
        model = mkl_train([informative, noise], y, 10.0)
        # corner oracle: the informative corner attains the lower objective
        j_info = svm_solve(informative, y, 10.0).objective
        j_noise = svm_solve(noise, y, 10.0).objective
        assert j_info < j_noise
        assert model.weights[0] > model.weights[1]

    def test_objective_curve_non_increasing(self):
        rng = np.random.default_rng(15)
        x, y = self.two_blob_problem(rng)
        bank = build_kernel_bank([MetricMatrix.identity(2)], x,
                                 tau_grid=DEFAULT_TAU_GRID[4:9])
        grams = [gram_matrix(bk, x) for bk in bank]
        model = mkl_train(grams, y, 1.0)
        curve = model.objective_curve
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_weights_stay_on_simplex(self):
        rng = np.random.default_rng(16)
        x, y = self.two_blob_problem(rng)
        grams = [gram_matrix(BaseKernel(MetricMatrix.identity(2), s), x)
                 for s in (0.5, 2.0, 8.0, 32.0)]
        model = mkl_train(grams, y, 1.0)
        assert (model.weights >= 0).all()
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-8)

    def test_zero_weights_match_oracle_combination(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([rng.normal(size=(20, 2)) + c for c in centers])
        labels = np.repeat(np.arange(3), 20)
        bank = build_kernel_bank([MetricMatrix.identity(2)], x,
                                 tau_grid=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        grams = [gram_matrix(bk, x) for bk in bank]
        test_grams = [gram_matrix(bk, rng.normal(size=(25, 2)) * 2 + 1, x) for bk in bank]
        models = train_one_vs_all(grams, labels, 3, [10.0])[0]
        oracles = [oracle_mkl_train(grams, np.where(labels == cls, 1.0, -1.0), 10.0)
                   for cls in range(3)]
        assert all(m.weights[0] == 0.0 for m in models)
        assert any(0 < (m.weights > 0).sum() < len(bank) - 1 for m in models)
        for m, o in zip(models, oracles):
            np.testing.assert_array_equal(m.weights, o.weights)
            np.testing.assert_array_equal(m.beta, o.beta)
            assert m.bias == o.bias
            assert m.objective_curve == o.objective_curve
            assert m.converged == o.converged
            np.testing.assert_array_equal(_decision_values(m, test_grams),
                                          oracle_decision_values(o, test_grams))
        scores = np.stack([oracle_decision_values(o, test_grams) for o in oracles], axis=1)
        np.testing.assert_array_equal(predict_one_vs_all(models, test_grams),
                                      scores.argmax(axis=1))

    def test_solver_diagnostics_count_every_solve(self, monkeypatch):
        rng = np.random.default_rng(16)
        x, y = self.two_blob_problem(rng)
        grams = [gram_matrix(BaseKernel(MetricMatrix.identity(2), s), x)
                 for s in (0.5, 2.0, 8.0, 32.0)]
        seen = []  # (bound, solution) of every solve

        def recording_solve(k, y, c, reject_above=None):
            seen.append((reject_above, svm_solve(k, y, c, reject_above)))
            return seen[-1][1]

        monkeypatch.setattr("glmetric.kernel_mkl.svm_solve", recording_solve)
        model = mkl_train(grams, y, 1.0)
        assert model.svm_solves == len(seen) >= len(model.objective_curve)
        assert model.smo_iterations == sum(s.iterations for _, s in seen)
        # convergence is counted over the solutions the fit rests on: its
        # first solve and the accepted steps, whose objectives are the curve
        used = [next(s for bound, s in seen if s.objective == v and not s.stopped
                     and (bound is None or not _rejects(v, bound)))
                for v in model.objective_curve]
        assert model.unconverged_solves == sum(not s.converged for s in used) == 0
        assert model.max_kkt_violation == max(s.kkt_violation for s in used) < 1e-4
        # every other candidate run or reused is backtracked from; each
        # stopped solve rejects its candidate, and maybe a reused candidate
        assert (model.backtracks == model.svm_solves + model.reused_solves
                - len(model.objective_curve) >= model.early_rejects)
        stopped = sum(s.stopped for _, s in seen)
        assert 0 < stopped <= model.early_rejects <= stopped + model.reused_solves


class TestMklPredict:
    def test_all_zero_duals_predict_bias_sign(self):
        model = MklModel(np.array([1.0]), np.zeros(4), -0.7,
                         np.array([1.0, 1.0, -1.0, -1.0]), 1.0)
        assert (_decision_values(model, [np.zeros((6, 4))]) < 0).all()

    def test_test_point_at_unbounded_sv_reproduces_sign(self):
        rng = np.random.default_rng(17)
        x = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 4.0])
        y = np.array([-1.0] * 15 + [1.0] * 15)
        bk = BaseKernel(MetricMatrix.identity(2), 8.0)
        k = gram_matrix(bk, x)
        model = mkl_train([k], y, 10.0)
        unbounded = (model.beta > 1e-6) & (model.beta < 10.0 - 1e-6)
        i = int(np.flatnonzero(unbounded)[0])
        value = _decision_values(model, [gram_matrix(bk, x[i:i + 1], x)])[0]
        assert np.sign(value) == y[i]

    def test_one_vs_all_matches_binary_composition(self):
        rng = np.random.default_rng(18)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        x = np.vstack([rng.normal(size=(15, 2)) + c for c in centers])
        labels = np.repeat(np.arange(3), 15)
        bank = build_kernel_bank([MetricMatrix.identity(2)], x,
                                 tau_grid=(0.5, 1.0, 2.0))
        grams = [gram_matrix(bk, x) for bk in bank]
        queries = rng.normal(size=(20, 2)) * 3 + 2
        test_grams = [gram_matrix(bk, queries, x) for bk in bank]
        models = train_one_vs_all(grams, labels, 3, [10.0])[0]
        combined = predict_one_vs_all(models, test_grams)
        # compositional oracle: per-class decision values, argmax by hand
        scores = []
        for m in models:
            kc = sum(a * kk for a, kk in zip(m.weights, test_grams))
            scores.append(kc @ (m.beta * m.labels) + m.bias)
        expect = np.argmax(np.stack(scores, axis=1), axis=1)
        np.testing.assert_array_equal(combined, expect)
        train_pred = predict_one_vs_all(models, grams)
        assert np.mean(train_pred == labels) > 0.95

    def test_grams_of_unweighted_kernels_may_be_none(self):
        grams, labels = overlapping_three_class_problem()
        per_c = train_one_vs_all(grams, labels, 3, [0.1, 100.0])
        for models in per_c:
            used = np.any([m.weights != 0 for m in models], axis=0)
            assert 0 < used.sum() < len(grams)
            sparse = [k if u else None for k, u in zip(grams, used)]
            for m in models:
                np.testing.assert_array_equal(_decision_values(m, sparse),
                                              _decision_values(m, grams))
            np.testing.assert_array_equal(predict_one_vs_all(models, sparse),
                                          predict_one_vs_all(models, grams))
