"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one PASS line on success (run with -s or -v to see them);
a pytest failure is the corresponding FAIL.
"""
import itertools
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from glmetric.classify import knn_predict_batch
from glmetric.dataset import (LabeledDataset, SplitSpec, load_csv,
                              make_synthetic_mixture, scale_features, split,
                              three_normal_preset)
from glmetric.generative import (asymptotic_error_mc, bias_matrix, density,
                                 fit_gaussian_models, hessian)
from glmetric.global_metric import (fixed_point_residual, metric_sqrt_transform,
                                    uniform_combination)
from glmetric.kernel_mkl import (BaseKernel, build_kernel_bank, gram_matrix,
                                 mkl_train)
from glmetric.local_metric import (MetricMatrix, compute_all_local_metrics,
                                   solve_local_metric)
from glmetric.unsupervised import (assign_to_centers, cluster_transfer_tune,
                                   isomap_embed, kmeans, rand_score)
from glmetric.cli import parse_experiment_config, run_experiment
from test_generative import model_set, random_model_set


def ok(line):
    print(f"PASS {line}")


def iris():
    return load_csv("data/iris.csv", "label", has_header=True)


def benchmark(dataset, methods, n_repeats, out_dir, base_seed=1000):
    cfg = parse_experiment_config({
        "version": 1,
        "dataset": dataset,
        "split": {"ratios": [0.6, 0.2, 0.2], "n_repeats": n_repeats,
                  "base_seed": base_seed},
        "methods": methods,
    })
    report, code = run_experiment(cfg, out_dir)
    assert code == 0
    return report["methods"]


def test_criterion_01_local_metric_constraints():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    count = 0
    for dim in (2, 5, 10, 30):
        for _ in range(250):
            a = rng.normal(size=(dim, dim))
            bias = 0.5 * (a + a.T)
            w = np.linalg.eigvalsh(bias)
            if w.min() >= 0 or w.max() <= 0:
                bias -= np.mean(w) * np.eye(dim)
            metric = solve_local_metric(bias)
            eigs = np.linalg.eigvalsh(metric.matrix)
            assert eigs.min() >= -1e-10 * eigs.max()
            assert abs(np.exp(np.sum(np.log(eigs))) - 1.0) < 1e-6
            trace = np.trace(np.linalg.solve(metric.matrix, bias))
            assert abs(trace) < 1e-8 * np.linalg.norm(bias)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count == 1000
    assert elapsed < 5.0
    ok(f"criterion 1: local-metric det/PSD/trace constraints on 1000 random "
       f"indefinite matrices in {elapsed:.2f}s")


def test_criterion_02_fixed_point_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    comps = []
    for c in range(3):
        a = rng.normal(size=(5, 5))
        comps.append((1 / 3, rng.normal(size=5) * 2.0, a @ a.T / 5 + np.eye(5), c))
    ds = make_synthetic_mixture(comps, 600, seed=7)
    ms = fit_gaussian_models(ds, 0.0)
    metric = uniform_combination(compute_all_local_metrics(ds, ms))
    residual = fixed_point_residual(ds, metric, lam_cov=0.0)
    elapsed = time.perf_counter() - t0
    assert residual < 1e-6
    assert elapsed < 10.0
    ok(f"criterion 2: transformed-space recombination residual {residual:.2e} "
       f"< 1e-6 in {elapsed:.2f}s")


def test_criterion_03_hessian_vs_finite_differences():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        ms = random_model_set(rng, dim)
        m = ms.models[0]
        x = m.mean + rng.normal(size=dim)
        h = hessian(m, x)
        step = 1e-4
        fd = np.empty((dim, dim))
        basis = np.eye(dim) * step
        for i in range(dim):
            for j in range(dim):
                fd[i, j] = (density(m, x + basis[i] + basis[j])
                            - density(m, x + basis[i] - basis[j])
                            - density(m, x - basis[i] + basis[j])
                            + density(m, x - basis[i] - basis[j])) / (4 * step ** 2)
        rel = np.abs(fd - h).max() / np.abs(h).max()
        worst = max(worst, rel)
        assert rel < 1e-5
    ok(f"criterion 3: Hessian matches finite differences on 100 models "
       f"(worst rel err {worst:.2e})")


def test_criterion_04_binary_bias_matrix_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        ms = random_model_set(rng, dim)
        x = rng.normal(size=dim) * 2.0
        bias, degenerate = bias_matrix(x, ms)
        assert not degenerate
        m1, m2 = ms.models
        p1, p2 = density(m1, x), density(m2, x)
        bs = []
        for m in (m1, m2):
            a = m.precision @ (x - m.mean)
            bs.append(np.outer(a, a) - m.precision)
        oracle = p1 * p2 * (p2 - p1) * (bs[0] - bs[1])
        scale = max(np.abs(oracle).max(), 1e-300)
        rel = np.abs(bias - oracle).max() / scale
        worst = max(worst, rel)
        assert rel <= 1e-10
    ok(f"criterion 4: multiway bias matrix equals binary expression "
       f"(worst rel err {worst:.2e})")


def test_criterion_05_decision_invariances():
    rng = np.random.default_rng(505)
    train = LabeledDataset(rng.normal(size=(150, 4)), rng.integers(0, 3, 150), 3)
    a = rng.normal(size=(4, 4))
    metric = MetricMatrix(a @ a.T + 0.5 * np.eye(4))
    queries = rng.normal(size=(500, 4))
    base = knn_predict_batch(train, 5, metric, queries)
    for s in (1e-4, 3.7, 1e6):
        scaled = MetricMatrix(s * metric.matrix)
        np.testing.assert_array_equal(
            knn_predict_batch(train, 5, scaled, queries), base)
    factor = metric_sqrt_transform(metric).L
    train_z = LabeledDataset(train.features @ factor, train.labels, 3)
    rewritten = knn_predict_batch(train_z, 5, MetricMatrix.identity(4), queries @ factor)
    np.testing.assert_array_equal(rewritten, base)
    ok("criterion 5: kNN decisions invariant under metric scaling and the "
       "transform rewrite on 500 queries")


def test_criterion_06_gram_psd_and_mkl_monotonicity():
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(15, 40))
        dim = int(rng.integers(2, 5))
        x = rng.normal(size=(n, dim))
        a = rng.normal(size=(dim, dim))
        metric = MetricMatrix(a @ a.T + 0.1 * np.eye(dim))
        bk = BaseKernel(metric, float(rng.uniform(0.2, 8.0)))
        k = gram_matrix(bk, x)
        assert np.linalg.eigvalsh(k).min() >= -1e-8 * n

    x = np.vstack([rng.normal(size=(25, 2)), rng.normal(size=(25, 2)) + 4.0])
    y = np.array([-1.0] * 25 + [1.0] * 25)
    bank = build_kernel_bank([MetricMatrix.identity(2)], x)
    grams = [gram_matrix(bk, x) for bk in bank]
    model = mkl_train(grams, y, 10.0)
    curve = model.objective_curve
    assert len(curve) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
    ok(f"criterion 6: 50 Gram banks numerically PSD; MKL objective "
       f"non-increasing over {len(curve)} accepted steps")


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def test_criterion_07_rand_score_exhaustive():
    rng = np.random.default_rng(707)
    checked = 0
    for n in range(2, 7):
        labelings = []
        for part in set_partitions(list(range(n))):
            lab = np.empty(n, dtype=int)
            for cid, block in enumerate(part):
                lab[block] = cid
            labelings.append(lab)
        for a, b in itertools.product(labelings, repeat=2):
            agree = sum((a[i] == a[j]) == (b[i] == b[j])
                        for i, j in itertools.combinations(range(n), 2))
            expect = agree / (n * (n - 1) / 2)
            assert rand_score(a, b) == pytest.approx(expect, abs=1e-12)
            checked += 1
        # renaming invariance on a random sample
        for _ in range(20):
            a = labelings[rng.integers(len(labelings))]
            perm = rng.permutation(a.max() + 1)
            assert rand_score(a, perm[a]) == 1.0
    ok(f"criterion 7: Rand score equals brute-force pair counting on all "
       f"{checked} labeling pairs with n <= 6")


def test_criterion_08_asymptotic_error_mc_vs_quadrature():
    ms = model_set([[0.0], [2.0]], [[[1.0]], [[1.0]]])

    def integrand(x):
        l1 = -0.5 * x ** 2 - 0.5 * np.log(2 * np.pi)
        l2 = -0.5 * (x - 2) ** 2 - 0.5 * np.log(2 * np.pi)
        return np.exp(l1 + l2 - np.logaddexp(l1, l2))

    truth, _ = quad(integrand, -np.inf, np.inf)
    est, se = asymptotic_error_mc(ms, 200000, seed=808)
    assert abs(est - truth) <= 3 * se
    ok(f"criterion 8: Monte Carlo error estimate {est:.5f} within 3 standard "
       f"errors ({3 * se:.1e}) of quadrature {truth:.5f}")


def test_criterion_09_iris_benchmark():
    t0 = time.perf_counter()
    methods = benchmark({"csv": "data/iris.csv", "label_column": "label",
                         "has_header": True},
                        ["euclidean", "m_uni"], 30, "/tmp/acc_iris")
    elapsed = time.perf_counter() - t0
    euclid = 100 * methods["euclidean"]["mean"]
    uni = 100 * methods["m_uni"]["mean"]
    assert 3.5 <= euclid <= 7.0
    assert 1.8 <= uni <= 5.5
    assert uni <= euclid
    assert elapsed < 120.0
    ok(f"criterion 9: Iris 30 splits, Euclidean {euclid:.2f}% in [3.5, 7.0], "
       f"uniform metric {uni:.2f}% in [1.8, 5.5] and <= Euclidean "
       f"({elapsed:.1f}s)")


def test_criterion_10_wine_benchmark():
    t0 = time.perf_counter()
    methods = benchmark({"csv": "data/wine.csv", "label_column": "label",
                         "has_header": True},
                        ["euclidean", "m_uni"], 30, "/tmp/acc_wine")
    elapsed = time.perf_counter() - t0
    euclid = 100 * methods["euclidean"]["mean"]
    uni = 100 * methods["m_uni"]["mean"]
    assert uni <= 4.5
    assert uni <= euclid
    assert elapsed < 120.0
    ok(f"criterion 10: Wine 30 splits, uniform metric {uni:.2f}% <= 4.5% and "
       f"<= Euclidean {euclid:.2f}% ({elapsed:.1f}s)")


def test_criterion_11_synthetic_preset_directions():
    methods = benchmark({"synthetic": "three_normal", "n": 1200, "seed": 7},
                        ["euclidean", "m_uni"], 30, "/tmp/acc_3normal")
    euclid = methods["euclidean"]["per_split"]
    uni = methods["m_uni"]["per_split"]
    wins = sum(1 for u, e in zip(uni, euclid) if u < e)
    assert wins >= 27

    mkl = benchmark({"synthetic": "three_normal", "n": 600, "seed": 7},
                    ["mkl_baseline", {"name": "mkl_metric", "partitions": 5}],
                    5, "/tmp/acc_mkl")
    base = mkl["mkl_baseline"]["per_split"]
    metric = mkl["mkl_metric(P=5)"]["per_split"]
    kernel_wins = sum(1 for m, b in zip(metric, base) if m <= b)
    assert kernel_wins >= 4
    ok(f"criterion 11: synthetic preset, uniform metric beats Euclidean on "
       f"{wins}/30 splits (>= 27); metric kernels <= baseline kernels on "
       f"{kernel_wins}/5 splits (>= 4)")


def test_criterion_12_iris_clustering():
    t0 = time.perf_counter()
    ds = iris()
    euclid_scores, metric_scores = [], []
    for rep in range(30):
        train, validation, test = split(ds, SplitSpec(seed=1000 + rep))
        train, params = scale_features(train)
        validation = params.transform(validation)
        test = params.transform(test)

        base = kmeans(train.features, 3, MetricMatrix.identity(train.dim),
                      seed=1000 + rep)
        assigned = assign_to_centers(test.features, base.centers, base.metric)
        euclid_scores.append(rand_score(assigned, test.labels))

        tuned = cluster_transfer_tune(train, validation, 3,
                                      (1e-3, 1e-2, 1e-1),
                                      (0.0, 0.25, 0.5, 0.75), seed=1000 + rep)
        assigned = assign_to_centers(test.features, tuned["clustering"].centers,
                                     tuned["metric"])
        metric_scores.append(rand_score(assigned, test.labels))
    elapsed = time.perf_counter() - t0
    mean_euclid = float(np.mean(euclid_scores))
    mean_metric = float(np.mean(metric_scores))
    assert mean_metric >= mean_euclid
    assert elapsed < 180.0
    ok(f"criterion 12: Iris clustering, mean Rand with learned metric "
       f"{mean_metric:.3f} >= Euclidean {mean_euclid:.3f} ({elapsed:.1f}s)")


def test_criterion_13_isomap_fixtures():
    emb = isomap_embed(np.array([[0.0], [1.0], [2.0]]),
                       MetricMatrix.identity(1), 2, 1)
    c = emb.coordinates.ravel()
    dists = sorted([abs(c[0] - c[1]), abs(c[1] - c[2]), abs(c[0] - c[2])])
    np.testing.assert_allclose(dists, [1.0, 1.0, 2.0], atol=1e-8)

    rng = np.random.default_rng(1313)
    angles = np.linspace(0, 1.5 * np.pi, 60)
    x = np.column_stack([np.cos(angles), np.sin(angles)])
    x += rng.normal(size=x.shape) * 0.01
    emb = isomap_embed(x, MetricMatrix.identity(2), 4, 1)
    rho = abs(spearmanr(emb.coordinates.ravel(), angles[emb.kept_indices]).statistic)
    assert rho > 0.95
    ok(f"criterion 13: collinear fixture distances exact to 1e-8; circle "
       f"fixture Spearman rho {rho:.3f} > 0.95")
