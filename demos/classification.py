"""Benchmark Euclidean kNN against the uniform metric combination on Iris.

Runs the standard protocol: 30 stratified 60/20/20 splits, [-1, 1] scaling
fit on each training portion, neighbor count tuned on validation.
"""
import numpy as np

from glmetric import (MetricMatrix, SplitSpec, fit_gaussian_models,
                      compute_all_local_metrics, load_csv, scale_features,
                      tune_and_test, uniform_combination)
from glmetric.dataset import split

ds = load_csv("data/iris.csv", "label", has_header=True)
results = {"euclidean": [], "m_uni": []}

for rep in range(30):
    train, validation, test = split(ds, SplitSpec(seed=1000 + rep))
    train, params = scale_features(train)
    validation, test = params.transform(validation), params.transform(test)

    r = tune_and_test("knn", train, validation, test,
                      metric=MetricMatrix.identity(train.dim))
    results["euclidean"].append(r.test_error)

    models = fit_gaussian_models(train, lam_cov=1e-3)
    metric = uniform_combination(compute_all_local_metrics(train, models))
    r = tune_and_test("knn", train, validation, test, metric=metric)
    results["m_uni"].append(r.test_error)

print(f"{'method':<12}{'error (%)':>16}")
for name, errs in results.items():
    errs = np.asarray(errs)
    stderr = errs.std(ddof=1) / np.sqrt(len(errs))
    print(f"{name:<12}{100 * errs.mean():>9.2f} +- {100 * stderr:.2f}")
