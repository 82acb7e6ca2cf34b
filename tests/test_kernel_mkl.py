import logging

import numpy as np
import pytest

from glmetric._linalg import sym_sqrt
from glmetric.kernel_mkl import (BaseKernel, MklModel, SvmSolution, _combine,
                                 _decision_values, build_kernel_bank,
                                 gram_matrix, mkl_train,
                                 predict_one_vs_all, project_simplex,
                                 svm_solve, train_one_vs_all, DEFAULT_TAU_GRID)
from glmetric.local_metric import MetricMatrix, solve_local_metric
from test_local_metric import random_symmetric_indefinite

logger = logging.getLogger(__name__)


# Oracles: the column-read SMO loop and the sum-every-kernel combination that
# the row-read, signed-gradient loop and the zero-weight-skipping combination
# replaced. The fast paths must reproduce them bit for bit.

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

    def combine(a):
        out = a[0] * grams[0]
        for ak, kk in zip(a[1:], grams[1:]):
            out = out + ak * kk
        return out

    sol = oracle_svm_solve(combine(weights), y, c, tol=svm_tol)
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
            cand_sol = oracle_svm_solve(combine(cand), y, c, tol=svm_tol)
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


def oracle_decision_values(model: MklModel, test_grams):
    combined = None
    for a, kk in zip(model.weights, test_grams):
        combined = a * kk if combined is None else combined + a * kk
    return combined @ (model.beta * model.labels) + model.bias


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
        assert [bk.tau for bk in bank] == [2.0 ** k for k in range(-6, 9)]

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
        assert bank[15].sigma0_sq == pytest.approx(0.01 * bank[0].sigma0_sq, rel=1e-9)

    def test_duplicated_points_rejected(self):
        x = np.zeros((10, 2))
        with pytest.raises(ValueError, match="degenerate pairwise distances"):
            build_kernel_bank([MetricMatrix.identity(2)], x)


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
        sol = svm_solve(k, y, 10.0, tol=1e-4)
        assert sol.converged
        assert sol.kkt_violation < 1e-4

    def test_unbounded_support_vector_reproduces_label(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(size=(15, 2)), rng.normal(size=(15, 2)) + 4.0])
        y = np.array([-1.0] * 15 + [1.0] * 15)
        k = gram_matrix(BaseKernel(MetricMatrix.identity(2), 8.0), x)
        sol = svm_solve(k, y, 10.0, tol=1e-6)
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

    def test_iteration_cap(self, caplog):
        k, y = random_svm_problem(22, 40)
        with caplog.at_level(logging.WARNING, logger="glmetric.kernel_mkl"):
            sol = svm_solve(k, y, 10.0, max_iter=5)
        assert not sol.converged and sol.iterations == 5
        assert [r.name for r in caplog.records] == ["glmetric.kernel_mkl"]
        assert "iteration cap" in caplog.records[0].getMessage()
        assert_same_solution(sol, oracle_svm_solve(k, y, 10.0, max_iter=5))


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

    def test_quad_floor_inside_a_larger_problem(self, caplog):
        # point 0 again at index 1 with label -1: the first step pairs the two
        # copies, so its quad is exactly 0 and the box clips the floored step
        k0, y0 = random_svm_problem(26, 24)
        idx = np.r_[0, np.arange(24)]
        k, y = k0[np.ix_(idx, idx)], np.r_[1.0, -1.0, y0[1:]]
        for c in (0.5, 10.0):
            with caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"):
                first = svm_solve(k, y, c, max_iter=1)
            np.testing.assert_array_equal(first.beta, np.r_[c, c, np.zeros(23)])
            assert_same_solution(svm_solve(k, y, c), oracle_svm_solve(k, y, c))

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

    def test_peak_is_the_largest_dual_on_the_path(self, caplog):
        k, y = self.separable_problem()
        sol = svm_solve(k, y, 10.0)
        with caplog.at_level(logging.ERROR, logger="glmetric.kernel_mkl"):
            prefixes = [svm_solve(k, y, 10.0, max_iter=t).beta.max()
                        for t in range(1, sol.iterations + 1)]
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
        runs = []  # (kernel bytes, C, solution) of every solve actually run

        def recording_solve(k, y, c, **kwargs):
            sol = svm_solve(k, y, c, **kwargs)
            runs.append((k.tobytes() + y.tobytes(), c, sol))
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
        # a problem solved again at another C had touched the box of one of them
        first = {}
        resolved = 0
        for key, c, sol in runs:
            if key in first:
                c0, sol0 = first[key]
                assert c0 != c and sol0.peak >= min(c0, c) - 1e-8
                resolved += 1
            else:
                first[key] = (c, sol)
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
        seen = []

        def recording_solve(*args, **kwargs):
            seen.append(svm_solve(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr("glmetric.kernel_mkl.svm_solve", recording_solve)
        model = mkl_train(grams, y, 1.0)
        assert model.svm_solves == len(seen) >= len(model.objective_curve)
        assert model.smo_iterations == sum(s.iterations for s in seen)
        assert model.unconverged_solves == sum(not s.converged for s in seen) == 0
        assert model.max_kkt_violation == max(s.kkt_violation for s in seen) < 1e-4


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
