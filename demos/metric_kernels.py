"""Metric RBF kernel learning versus a plain RBF kernel bank.

Builds regional metrics from a partition of the training data and runs one
MKL cell (kernel_mkl.mkl_cell) for each family: the bandwidth-grid kernel
bank, simplex weights per one-vs-all binary problem at each C, the C chosen
on validation, and its test error.
"""
import numpy as np

from glmetric import (MetricMatrix, SplitSpec, fit_gaussian_models,
                      compute_all_local_metrics, make_synthetic_mixture, mkl_cell,
                      regional_metrics, three_normal_preset)
from glmetric.dataset import scale_features, split

ds = make_synthetic_mixture(three_normal_preset(), 600, seed=7)
train, validation, test = split(ds, SplitSpec(seed=0))
train, params = scale_features(train)
validation, test = params.transform(validation), params.transform(test)


def run(metrics, label):
    cell = mkl_cell(train, validation, test, metrics, (0.1, 1.0, 10.0, 100.0))
    weights = np.concatenate([m.weights for m in cell["models"]])
    print(f"{label:<18} {cell['chosen']['kernels']:>3} kernels  C = {cell['chosen']['C']:<6g} "
          f"active weights = {int((weights > 1e-3).sum())}  "
          f"test error = {100 * cell['value']:.2f}%")


run([MetricMatrix.identity(train.dim)], "baseline RBF")

models = fit_gaussian_models(train, lam_cov=1e-3)
locals_ = compute_all_local_metrics(train, models)
for p in (1, 5, 10):
    regionals, _ = regional_metrics(locals_, train.features, p, seed=0)
    run(regionals, f"metric RBF (P = {p})")
