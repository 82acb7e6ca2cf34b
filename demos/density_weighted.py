"""Density-weighted combination of local metrics, with the weight trajectory.

Shows the iterated estimate-combine-transform loop for both density
estimators and compares the resulting kNN errors against the plain uniform
combination.
"""
import numpy as np

from glmetric import (MetricMatrix, SplitSpec, density_weighted_combination,
                      fit_gaussian_models, compute_all_local_metrics,
                      make_synthetic_mixture, three_normal_preset,
                      tune_and_test, uniform_combination)
from glmetric.dataset import scale_features, split

ds = make_synthetic_mixture(three_normal_preset(), 600, seed=3)
train, validation, test = split(ds, SplitSpec(seed=0))
train, params = scale_features(train)
validation, test = params.transform(validation), params.transform(test)

models = fit_gaussian_models(train, lam_cov=1e-3)
uni = uniform_combination(compute_all_local_metrics(train, models))

rows = [("euclidean", MetricMatrix.identity(train.dim)), ("uniform", uni)]
for kind in ("kde", "gmm"):
    metric, info = density_weighted_combination(train, validation, kind, max_iter=20)
    gaps = [np.abs(a - b).sum()
            for a, b in zip(info["weights"][1:], info["weights"][:-1])]
    print(f"{kind}: weight movement per iteration "
          f"{['%.1e' % g for g in gaps[:6]]} ... final {gaps[-1]:.1e}")
    rows.append((f"{kind} x20", metric))
    # single iteration: a pure density-weighted convex combination, directly
    # comparable to the uniform average (no composed transforms)
    rows.append((f"{kind} x1",
                 density_weighted_combination(train, validation, kind, max_iter=1)[0]))

print(f"\n{'metric':<12}{'test error (%)':>16}")
for name, metric in rows:
    r = tune_and_test("knn", train, validation, test, metric=metric)
    print(f"{name:<12}{100 * r.test_error:>15.2f}  (k = {r.chosen['k']})")
