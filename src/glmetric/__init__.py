"""Generative local metric learning.

Local Mahalanobis metrics solved in closed form from Gaussian class models,
combined into global metrics (uniform or density-weighted) or metric RBF
kernel banks with learned simplex weights, and evaluated through kNN,
energy-based classification, clustering, and geodesic embedding.
"""
from .dataset import (LabeledDataset, ProjectionParams, ScaleParams, SplitSpec,
                      load_csv, make_synthetic_mixture, pca_reduce,
                      scale_features, split, three_normal_preset)
from .generative import (GaussianModel, GenerativeModelSet, asymptotic_error_mc,
                         bias_integrand, bias_matrix, density,
                         fit_gaussian_models, hessian, log_density)
from .local_metric import (MetricMatrix, compute_all_local_metrics,
                           interpolate_with_euclidean, local_metric_stack,
                           regional_metrics, solve_local_metric)
from .global_metric import (density_weighted_combination, fixed_point_residual,
                            uniform_combination)
from .classify import (TunedResult, energy_predict_batch, knn_predict_batch,
                       margin_candidates, tune_and_test)
from .kernel_mkl import (BaseKernel, MklModel, build_kernel_bank, gram_bank,
                         gram_matrix, mkl_train, svm_solve)
from .unsupervised import (ClusteringResult, Embedding, cluster_transfer_tune,
                           isomap_embed, iterative_metric_kmeans, kmeans,
                           rand_score)

__version__ = "0.1.0"
