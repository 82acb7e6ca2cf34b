import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from glmetric._linalg import det_normalize_eigs, symmetrize
from glmetric.dataset import LabeledDataset, make_synthetic_mixture, three_normal_preset
from glmetric.generative import bias_matrices, fit_gaussian_models
from glmetric.global_metric import uniform_combination
from glmetric.local_metric import (MetricMatrix, _check_stack, _solve_stack, _split_stack,
                                   compute_all_local_metrics, interpolate_with_euclidean,
                                   local_metric_stack, regional_metrics, solve_local_metric)
from test_generative import model_set


def random_symmetric_indefinite(rng, dim):
    a = rng.normal(size=(dim, dim))
    bias = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(bias)
    if w.min() > -1e-3 or w.max() < 1e-3:
        bias = bias - np.mean(w) * np.eye(dim)
    return bias


def check_constraints(metric, bias):
    w = np.linalg.eigvalsh(metric.matrix)
    assert w.min() >= -1e-10 * w.max()
    log_det = np.sum(np.log(w))
    assert abs(np.exp(log_det) - 1.0) < 1e-6
    trace = np.trace(np.linalg.solve(metric.matrix, bias))
    assert abs(trace) < 1e-8 * np.linalg.norm(bias)


class TestSolver:
    def test_hand_worked_indefinite_example(self):
        metric = solve_local_metric(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(np.diag(metric.matrix), [1.414214, 0.707107], atol=1e-6)
        assert metric.det_normalized
        check_constraints(metric, np.diag([2.0, -1.0]))

    def test_zero_matrix_gives_identity_with_flag(self):
        metric = solve_local_metric(np.zeros((3, 3)))
        np.testing.assert_array_equal(metric.matrix, np.eye(3))
        assert metric.degenerate

    def test_positive_definite_fallback_is_true_minimizer(self):
        bias = np.diag([8.0, 2.0])
        metric = solve_local_metric(bias)
        np.testing.assert_allclose(metric.matrix, np.diag([2.0, 0.5]), atol=1e-12)

        # oracle: minimize (8/m + 2/(1/m))^2 over det-one diagonal metrics
        def objective(t):
            return (8.0 * np.exp(-t) + 2.0 * np.exp(t)) ** 2

        res = minimize_scalar(objective, bounds=(-5, 5), method="bounded")
        np.testing.assert_allclose(np.exp(res.x), 2.0, rtol=1e-5)

    def test_negative_definite_fallback(self):
        metric = solve_local_metric(np.diag([-8.0, -2.0]))
        np.testing.assert_allclose(metric.matrix, np.diag([2.0, 0.5]), atol=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            solve_local_metric(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 5, 10, 30])
    def test_constraints_hold_on_random_indefinite(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(50):
            bias = random_symmetric_indefinite(rng, dim)
            check_constraints(solve_local_metric(bias), bias)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        bias = random_symmetric_indefinite(rng, 5)
        base = solve_local_metric(bias).matrix
        for s in (1e-6, 0.5, 3.0, 1e8):
            scaled = solve_local_metric(s * bias).matrix
            assert np.abs(scaled - base).max() < 1e-10 * np.abs(base).max()

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(2)
        bias = random_symmetric_indefinite(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = solve_local_metric(q @ bias @ q.T).matrix
        expected = q @ solve_local_metric(bias).matrix @ q.T
        assert np.abs(rotated - expected).max() < 1e-8

    def test_grouping_stability_under_perturbation(self):
        rng = np.random.default_rng(3)
        bias = np.diag([3.0, 1.0, -1.0, -2.0])  # spectral gap far from zero
        noise = rng.normal(size=(4, 4))
        noise = 0.5 * (noise + noise.T)
        noise *= 1e-12 * np.linalg.norm(bias) / np.linalg.norm(noise)
        a = solve_local_metric(bias).matrix
        b = solve_local_metric(bias + noise).matrix
        assert np.abs(a - b).max() < 1e-6

    def test_split_stack_counts(self):
        rng = np.random.default_rng(4)
        bias = random_symmetric_indefinite(rng, 6)
        w, u, eps, d_plus, d_minus, degenerate = _split_stack(bias[None], 1e-9)
        assert d_plus[0] + d_minus[0] + int((np.abs(w[0]) <= eps[0]).sum()) == 6
        assert d_plus[0] >= 1 and d_minus[0] >= 1 and not degenerate[0]
        assert (np.diff(w[0]) <= 0).all()
        # eigenvectors orthonormal
        gram = u[0].T @ u[0]
        assert np.abs(gram - np.eye(6)).max() < 1e-8


def reference_solve(matrix, eps_rel=1e-9):
    """Oracle: the per-matrix solver the batched core replaced (argsort-based
    spectral split, block scaling, log-space determinant normalization).
    Returns (metric, degenerate)."""
    w, u = np.linalg.eigh(matrix)
    order = np.argsort(w)[::-1]
    w, u = w[order], u[:, order]
    amax = np.abs(w).max() if len(w) else 0.0
    if amax == 0.0 or not np.isfinite(amax):
        return np.eye(len(w)), True
    eps = eps_rel * amax
    d_plus, d_minus = int((w > eps).sum()), int((w < -eps).sum())
    if d_plus == 0 or d_minus == 0:
        m = np.maximum(np.abs(w), eps)
    else:
        m = np.where(w > eps, d_plus * w, (len(w) - d_plus) * np.maximum(np.abs(w), eps))
    m = m / np.exp(np.mean(np.log(m)))
    out = (u * m) @ u.T
    return 0.5 * (out + out.T), False


def assert_matches_reference(biases, stack, degenerate):
    assert stack.shape == biases.shape and degenerate.shape == (len(biases),)
    for bias, metric, bad in zip(biases, stack, degenerate):
        expected, expected_bad = reference_solve(bias)
        np.testing.assert_array_equal(metric, expected)
        assert bool(bad) == expected_bad


class TestBatchedCore:
    def test_fitted_three_normal_matches_per_matrix_oracle(self):
        ds = make_synthetic_mixture(three_normal_preset(dim=10), 1200, seed=7)
        ms = fit_gaussian_models(ds, 1e-3)
        stack, degenerate = local_metric_stack(ds.features, ms)
        biases, _ = bias_matrices(ds.features, ms)
        assert_matches_reference(biases, stack, degenerate)
        assert not degenerate.any()

    @pytest.mark.parametrize("dim", [2, 5, 10, 30])
    def test_mixed_random_stack_matches_per_matrix_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        biases = []
        for i in range(60):
            kind = i % 4
            if kind == 0:
                biases.append(random_symmetric_indefinite(rng, dim))
            elif kind == 1:  # alternately positive and negative definite
                a = rng.normal(size=(dim, dim))
                biases.append((1 if i % 8 == 1 else -1) * (a @ a.T + 0.1 * np.eye(dim)))
            elif kind == 2:
                biases.append(np.zeros((dim, dim)))
            else:  # positive semidefinite with one (near-)zero eigenvalue
                q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
                w = np.abs(rng.normal(size=dim)) + 0.1
                w[0] = 0.0
                b = (q * w) @ q.T
                biases.append(0.5 * (b + b.T))
        biases = np.stack(biases)
        stack, degenerate = _solve_stack(biases, 1e-9)
        assert_matches_reference(biases, stack, degenerate)
        np.testing.assert_array_equal(degenerate, np.arange(60) % 4 == 2)
        for bias, metric in zip(biases[:8], stack[:8]):
            np.testing.assert_array_equal(solve_local_metric(bias).matrix, metric)

    def test_far_tail_point_is_degenerate_identity(self):
        ds = make_synthetic_mixture(three_normal_preset(dim=4), 60, seed=1)
        ms = fit_gaussian_models(ds, 1e-3)
        x = np.vstack([ds.features[:3], np.full(4, 1e6)])
        stack, degenerate = local_metric_stack(x, ms)
        np.testing.assert_array_equal(degenerate, [False, False, False, True])
        np.testing.assert_array_equal(stack[3], np.eye(4))
        assert_matches_reference(bias_matrices(x, ms)[0], stack, degenerate)


def oracle_interpolate(metric, lam_int):
    """The single-matrix interpolation the stack path replaced: one eigh per metric."""
    if lam_int == 0.0:
        return metric
    blended = (1.0 - lam_int) * metric.matrix + lam_int * np.eye(metric.dim)
    if metric.det_normalized:
        w, u = np.linalg.eigh(blended)
        blended = symmetrize((u * det_normalize_eigs(w)) @ u.T)
    return MetricMatrix(blended, det_normalized=metric.det_normalized,
                        degenerate=metric.degenerate)


def mixed_local_inputs(dim, seed=0):
    """Fitted points plus two far-tail points, as a LabeledDataset, and the
    class Gaussians fitted to the fitted points."""
    rng = np.random.default_rng(seed)
    comps = []
    for c in range(3):
        a = rng.normal(size=(dim, dim))
        comps.append((1.0 / 3.0, 2.0 * rng.normal(size=dim), a @ a.T / dim + np.eye(dim), c))
    ds = make_synthetic_mixture(comps, 90, seed=seed)
    ms = fit_gaussian_models(ds, 1e-3)
    x = np.vstack([ds.features, np.full((2, dim), 1e6)])
    return LabeledDataset(x, np.append(ds.labels, [0, 1]), 3), ms


def mixed_local_stack(dim, seed=0):
    """Local metrics at fitted points plus identity rows at far-tail points."""
    train, ms = mixed_local_inputs(dim, seed)
    stack, degenerate = local_metric_stack(train.features, ms)
    assert degenerate[-2:].all() and not degenerate[:-2].all()
    return stack, degenerate


class TestInterpolation:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("dim", [2, 4, 10])
    def test_stack_matches_single_matrix_oracle(self, dim, lam):
        stack, degenerate = mixed_local_stack(dim)
        out = interpolate_with_euclidean(stack, lam)
        assert out.shape == stack.shape
        for row, m, bad in zip(out, stack, degenerate):
            single = MetricMatrix(m, det_normalized=True, degenerate=bool(bad))
            expect = oracle_interpolate(single, lam)
            np.testing.assert_array_equal(row, expect.matrix)
            np.testing.assert_array_equal(interpolate_with_euclidean(m[None], lam)[0],
                                          expect.matrix)

    def test_zero_weight_returns_the_stack(self):
        stack, _ = mixed_local_stack(3)
        assert interpolate_with_euclidean(stack, 0.0) is stack

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4), (0, 3, 3), (1, 2, 3, 3)])
    def test_non_stack_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(N, D, D\) stack"):
            interpolate_with_euclidean(np.ones(shape), 0.5)
        with pytest.raises(ValueError, match=r"\(N, D, D\) stack"):
            uniform_combination(np.ones(shape))

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_list_input_gives_the_stack_result(self, lam):
        stack, degenerate = mixed_local_stack(3)
        metrics = [MetricMatrix(m, det_normalized=True, degenerate=bool(bad))
                   for m, bad in zip(stack, degenerate)]
        out = interpolate_with_euclidean(metrics, lam)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, interpolate_with_euclidean(stack, lam))

    def test_full_weight_gives_identity(self):
        m = solve_local_metric(np.diag([2.0, -1.0]))
        out = interpolate_with_euclidean(m.matrix[None], 1.0)
        np.testing.assert_allclose(out[0], np.eye(2), atol=1e-12)

    def test_zero_weight_is_noop(self):
        stack = solve_local_metric(np.diag([2.0, -1.0])).matrix[None]
        assert interpolate_with_euclidean(stack, 0.0) is stack

    def test_hand_worked_midpoint(self):
        m = MetricMatrix(np.diag([2.0, 0.5]), det_normalized=True)
        out = interpolate_with_euclidean(m.matrix[None], 0.5)
        np.testing.assert_allclose(np.diag(out[0]), [1.414214, 0.707107], atol=1e-6)

    def test_out_of_range_rejected(self):
        m = MetricMatrix.identity(2)
        with pytest.raises(ValueError):
            interpolate_with_euclidean(m.matrix[None], 1.5)


class TestComputeAll:
    def test_symmetry_locus_gives_identity(self):
        ms = model_set([[1.0, 0.0], [-1.0, 0.0]], [np.eye(2), np.eye(2)])
        pts = np.column_stack([np.zeros(5), np.linspace(-2, 2, 5)])
        train = LabeledDataset(pts, [0, 1, 0, 1, 0], 2)
        for m in compute_all_local_metrics(train, ms):
            assert m.degenerate or np.abs(m.matrix - np.eye(2)).max() < 1e-9
            np.testing.assert_allclose(m.matrix, np.eye(2), atol=1e-9)

    def test_repeated_point_gives_identical_metrics(self):
        rng = np.random.default_rng(5)
        ms = model_set([rng.normal(size=3), rng.normal(size=3)],
                       [np.eye(3), 2 * np.eye(3)])
        x = np.tile(rng.normal(size=3), (8, 1))
        train = LabeledDataset(x, [0, 1] * 4, 2)
        metrics = compute_all_local_metrics(train, ms)
        for m in metrics[1:]:
            np.testing.assert_array_equal(m.matrix, metrics[0].matrix)

    def test_invariant_sweep_on_synthetic(self):
        ds = make_synthetic_mixture(three_normal_preset(dim=5), 600, seed=0)
        ms = fit_gaussian_models(ds, 1e-3)
        t0 = time.perf_counter()
        metrics = compute_all_local_metrics(ds, ms)
        assert time.perf_counter() - t0 < 10.0
        assert len(metrics) == 600
        from glmetric.generative import bias_matrices
        biases, degenerate = bias_matrices(ds.features, ms)
        for metric, bias, bad in zip(metrics, biases, degenerate):
            if bad or metric.degenerate:
                continue
            check_constraints(metric, bias)


    @pytest.mark.parametrize("dim", [2, 4, 10])
    def test_batched_check_matches_per_row_construction(self, dim):
        train, ms = mixed_local_inputs(dim)
        stack, degenerate = local_metric_stack(train.features, ms)
        metrics = compute_all_local_metrics(train, ms)
        assert len(metrics) == len(stack) and degenerate.any()
        for i, (metric, row, bad) in enumerate(zip(metrics, stack, degenerate)):
            expect = MetricMatrix(row, det_normalized=True, degenerate=bool(bad))
            np.testing.assert_array_equal(metric.matrix, expect.matrix)
            np.testing.assert_array_equal(metric.matrix, oracle_check_metric(row, True))
            assert (metric.det_normalized, metric.degenerate) == (True, expect.degenerate)


def oracle_check_metric(matrix, det_normalized):
    """The per-matrix check that _check_stack batches: the symmetrized matrix,
    or ValueError."""
    m = np.asarray(matrix, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("metric matrix must be finite")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.T).max() >= 1e-12 * scale:
        raise ValueError("metric matrix must be symmetric")
    m = symmetrize(m)
    w = np.linalg.eigvalsh(m)
    if w.min() < -1e-10 * max(w.max(), 0.0):
        raise ValueError("metric matrix must be positive semidefinite")
    if det_normalized:
        pos = w[w > 0]
        log_det = np.sum(np.log(pos)) if len(pos) == len(w) else -np.inf
        if abs(np.exp(log_det) - 1.0) >= 1e-6:
            raise ValueError("det_normalized metric must have unit determinant")
    return m


class TestCheckStack:
    def test_valid_stack_matches_per_row_oracle(self):
        stack, _ = mixed_local_stack(4)
        checked = _check_stack(stack, det_normalized=True)
        for row, got in zip(stack, checked):
            np.testing.assert_array_equal(got, oracle_check_metric(row, True))

    @pytest.mark.parametrize("defect, message", [
        ("non_finite", "finite"), ("asymmetric", "symmetric"),
        ("indefinite", "semidefinite"), ("determinant", "unit determinant"),
    ])
    def test_one_bad_row_rejects_the_stack(self, defect, message):
        stack, _ = mixed_local_stack(3)
        bad, row = stack.copy(), 7
        if defect == "non_finite":
            bad[row, 0, 0] = np.inf
        elif defect == "asymmetric":
            bad[row, 0, 1] += 1e-6
        elif defect == "indefinite":
            bad[row] = np.diag([2.0, 1.0, -0.5])
        else:
            bad[row] *= 2.0
        for check in (lambda m: _check_stack(m, det_normalized=True),
                      lambda m: oracle_check_metric(m[row], True),
                      lambda m: MetricMatrix(m[row], det_normalized=True)):
            with pytest.raises(ValueError, match=message):
                check(bad)
        if defect == "determinant":  # the determinant is checked only when claimed
            np.testing.assert_array_equal(_check_stack(bad, det_normalized=False)[row],
                                          oracle_check_metric(bad[row], False))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            MetricMatrix(np.ones(shape))


class TestRegional:
    def make_locals(self, n, dim, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            out.append(solve_local_metric(random_symmetric_indefinite(rng, dim)))
        return out

    def test_single_partition_equals_uniform_combination(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 3))
        locals_ = self.make_locals(12, 3)
        regionals, assign = regional_metrics(locals_, x, 1, seed=0)
        assert (assign == 0).all()
        np.testing.assert_allclose(regionals[0].matrix,
                                   uniform_combination(locals_).matrix, rtol=1e-12)

    def test_n_partitions_recover_locals(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 2)) * 10  # distinct, well separated
        locals_ = self.make_locals(6, 2, seed=1)
        regionals, assign = regional_metrics(locals_, x, 6, seed=0)
        assert sorted(assign.tolist()) == list(range(6))
        for i, j in enumerate(assign):
            np.testing.assert_allclose(regionals[j].matrix, locals_[i].matrix, rtol=1e-12)

    def test_two_blobs_average_their_own_locals(self):
        rng = np.random.default_rng(8)
        blob_a = rng.normal(size=(10, 2)) * 0.1
        blob_b = rng.normal(size=(10, 2)) * 0.1 + 50.0
        x = np.vstack([blob_a, blob_b])
        locals_ = self.make_locals(20, 2, seed=2)
        regionals, assign = regional_metrics(locals_, x, 2, seed=0)
        assert len(set(assign[:10])) == 1 and len(set(assign[10:])) == 1
        stack = np.stack([m.matrix for m in locals_])
        for j in range(2):
            np.testing.assert_allclose(regionals[j].matrix,
                                       stack[assign == j].mean(axis=0), rtol=1e-12)

    def test_stack_input_equals_list_input(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(15, 3))
        locals_ = self.make_locals(15, 3, seed=4)
        from_list, assign_list = regional_metrics(locals_, x, 3, seed=0)
        stack = np.stack([m.matrix for m in locals_])
        from_stack, assign_stack = regional_metrics(stack, x, 3, seed=0)
        np.testing.assert_array_equal(assign_stack, assign_list)
        for a, b in zip(from_stack, from_list):
            np.testing.assert_array_equal(a.matrix, b.matrix)
        with pytest.raises(ValueError, match="one local metric per row"):
            regional_metrics(stack[:-1], x, 3, seed=0)

    def test_regional_metrics_not_renormalized(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 2))
        regionals, _ = regional_metrics(self.make_locals(5, 2, seed=3), x, 1, seed=0)
        assert not regionals[0].det_normalized

    def test_invalid_partition_count(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            regional_metrics(self.make_locals(3, 2), x, 4, seed=0)


class TestMetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MetricMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            MetricMatrix(np.diag([1.0, -1.0]))

    def test_rejects_false_det_claim(self):
        with pytest.raises(ValueError, match="unit determinant"):
            MetricMatrix(np.diag([2.0, 2.0]), det_normalized=True)

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_non_finite_from_json(self, entry):
        # Python's json reads NaN and Infinity, so they can arrive from a metric file
        d = json.loads('{"matrix": [[%s, 0.0], [0.0, 1.0]], "provenance": "global:UNI",'
                       ' "det_normalized": false}' % entry)
        with pytest.raises(ValueError, match="finite"):
            MetricMatrix.from_dict(d)

    def test_dict_round_trip(self):
        m = solve_local_metric(np.diag([3.0, -1.0, 0.5]))
        clone = MetricMatrix.from_dict(m.to_dict())
        np.testing.assert_array_equal(clone.matrix, m.matrix)
        assert clone.det_normalized == m.det_normalized
        assert clone.degenerate == m.degenerate
        assert m.to_dict().keys() == {"matrix", "det_normalized", "degenerate"}

    def test_from_dict_reads_files_with_provenance(self):
        # metric files written before MetricMatrix dropped provenance carry the key
        d = {"matrix": [[2.0, 0.0], [0.0, 0.5]], "provenance": "global:UNI",
             "det_normalized": True, "degenerate": False}
        m = MetricMatrix.from_dict(d)
        np.testing.assert_array_equal(m.matrix, np.diag([2.0, 0.5]))
        assert (m.det_normalized, m.degenerate) == (True, False)
        assert not hasattr(m, "provenance")
