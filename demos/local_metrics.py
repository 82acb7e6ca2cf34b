"""Walk through the local metric machinery on a two-class Gaussian problem.

Fits class Gaussians, evaluates the bias matrix at a few points, solves the
spectral problem, and verifies the solution's constraints numerically.
"""
import numpy as np

from glmetric import (LabeledDataset, bias_integrand, bias_matrix,
                      compute_all_local_metrics, fit_gaussian_models,
                      solve_local_metric)

rng = np.random.default_rng(0)

# two anisotropic classes
n = 150
x0 = rng.normal(size=(n, 2)) @ np.array([[1.5, 0.4], [0.0, 0.6]]) + [-1.5, 0.0]
x1 = rng.normal(size=(n, 2)) @ np.array([[0.7, 0.0], [0.3, 1.4]]) + [1.5, 0.0]
train = LabeledDataset(np.vstack([x0, x1]), [0] * n + [1] * n, 2)

models = fit_gaussian_models(train, lam_cov=1e-3)
print("class means:", [np.round(mean, 3) for mean in models.means])

for point in ([0.0, 0.0], [1.0, 1.0], [-2.0, 0.5]):
    bias, degenerate = bias_matrix(np.array(point), models)
    metric = solve_local_metric(bias)
    trace = np.trace(np.linalg.solve(metric.matrix, bias)) if not metric.degenerate else 0.0
    print(f"\nx = {point}")
    print("  bias matrix:\n", np.array2string(bias, precision=4))
    print("  local metric:\n", np.array2string(metric.matrix, precision=4))
    print(f"  det = {np.linalg.det(metric.matrix):.9f}   "
          f"trace[M^-1 bias] = {trace:.2e}   "
          f"bias integrand = {bias_integrand(np.array(point), metric, models):.2e}")

metrics = compute_all_local_metrics(train, models)
dets = [np.linalg.det(m.matrix) for m in metrics]
print(f"\n{len(metrics)} local metrics at the training points; "
      f"determinants in [{min(dets):.6f}, {max(dets):.6f}]")
