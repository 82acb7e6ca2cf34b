"""Metric RBF kernel learning versus a plain RBF kernel bank.

Builds regional metrics from a partition of the training data, forms the
bandwidth-grid kernel bank for each, learns simplex weights per one-vs-all
binary problem, and compares test errors.
"""
import numpy as np

from glmetric import (MetricMatrix, SplitSpec, build_kernel_bank,
                      fit_gaussian_models, compute_all_local_metrics,
                      gram_bank, make_synthetic_mixture, regional_metrics,
                      three_normal_preset)
from glmetric.dataset import scale_features, split
from glmetric.kernel_mkl import predict_one_vs_all, train_one_vs_all

ds = make_synthetic_mixture(three_normal_preset(), 600, seed=7)
train, validation, test = split(ds, SplitSpec(seed=0))
train, params = scale_features(train)
validation, test = params.transform(validation), params.transform(test)


def run(metrics, label):
    bank = build_kernel_bank(metrics, train.features)
    c_grid = (0.1, 1.0, 10.0, 100.0)
    # one Gram bank at a time: the train bank is dropped once the grid is fitted
    k_tr = gram_bank(bank, train.features)
    per_c = train_one_vs_all(k_tr, train.labels, train.class_count, c_grid)
    del k_tr
    k_va = gram_bank(bank, validation.features, train.features)
    errs = [np.mean(predict_one_vs_all(models, k_va) != validation.labels)
            for models in per_c]
    del k_va
    best = int(np.argmin(errs))  # the first C of the lowest validation error
    c, models = c_grid[best], per_c[best]
    k_te = gram_bank(bank, test.features, train.features)
    test_err = np.mean(predict_one_vs_all(models, k_te) != test.labels)
    weights = np.concatenate([m.weights for m in models])
    print(f"{label:<18} {len(bank):>3} kernels  C = {c:<6g} "
          f"active weights = {int((weights > 1e-3).sum())}  "
          f"test error = {100 * test_err:.2f}%")


run([MetricMatrix.identity(train.dim)], "baseline RBF")

models = fit_gaussian_models(train, lam_cov=1e-3)
locals_ = compute_all_local_metrics(train, models)
for p in (1, 5, 10):
    regionals, _ = regional_metrics(locals_, train.features, p, seed=0)
    run(regionals, f"metric RBF (P = {p})")
