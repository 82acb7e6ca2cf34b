"""Metric RBF kernel banks, a soft-margin SVM dual solver, and simplex-weight
multiple kernel learning.

A bank's Gram matrices are built with one distance matrix per metric, shared
by the kernels of its bandwidth grid; gram_matrix is the one-kernel view.

The SVM solver is pairwise coordinate ascent on the standard dual
(max sum(beta) - 0.5 beta^T (y K y) beta, 0 <= beta <= C, sum(beta y) = 0)
with most-violating-pair working-set selection (first index on ties). Each
step reads two kernel columns as contiguous rows of one k.T copy, updates the
signed gradient -y * grad in place as two masked copies, one per index set,
so the working pair is read off them directly, and touches only the two
changed duals and their index-set flags. Kernel weights are learned by
projected gradient on the simplex with backtracking on the optimal dual
value, which shares its fixed points with reduced-gradient descent on the
same objective. Weighted kernel sums skip zero weights, which would add only
+0.0, and reuse one buffer per fit; the uniform-weight sum that every fit
starts from is summed once per train_one_vs_all call.

Each solution records peak, the largest dual value on the solver's path. C
steers the path only through duals that reach C - 1e-8, so a solution found
at C0 is the solve at C bit for bit when C == C0 or peak < min(C0, C) - 1e-8,
for the same kernel and labels. mkl_train keeps the solutions of a fit in a
memo keyed by the weight bytes and reuses them by this rule, skipping both the
kernel sum and the solve; train_one_vs_all(grams, labels, class_count, c_grid)
shares one memo per class across the whole C grid. A memo entry also keeps the
weight gradient at its solution, computed the first time a fit steps from it.
The gradient depends only on the grams, y and the solution, so a fit that
continues from a reused solution reuses its gradient too, and each distinct
solution gets one gradient per memo.
"""
import logging
from dataclasses import dataclass, field

import numpy as np

from ._linalg import pairwise_sq_dists
from .local_metric import MetricMatrix

__all__ = [
    "BaseKernel",
    "SvmSolution",
    "MklModel",
    "DEFAULT_TAU_GRID",
    "build_kernel_bank",
    "gram_bank",
    "gram_matrix",
    "svm_solve",
    "project_simplex",
    "mkl_train",
    "train_one_vs_all",
    "predict_one_vs_all",
]

logger = logging.getLogger(__name__)

DEFAULT_TAU_GRID = tuple(2.0 ** k for k in range(-6, 9))
MKL_TOL = 1e-4  # mkl_train stops when a step moves the weights or lowers the objective less
MKL_MAX_OUTER = 50  # most weight steps of one mkl_train fit
SVM_TOL = 1e-4  # KKT tolerance of every SVM solve
SVM_MAX_ITER = 200000  # most coordinate steps of one SVM solve


@dataclass(frozen=True, eq=False)
class BaseKernel:
    """RBF kernel exp(-d_M(x, x') / sigma^2) with a fixed metric M."""

    metric: MetricMatrix
    sigma_sq: float

    def __post_init__(self):
        if self.sigma_sq <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(eq=False)
class SvmSolution:
    beta: np.ndarray
    bias: float
    objective: float
    iterations: int
    converged: bool
    kkt_violation: float
    peak: float = np.inf  # largest dual on the solver's path; inf if unknown


@dataclass(eq=False)
class MklModel:
    """Learned simplex weights over base kernels plus the SVM dual solution."""

    weights: np.ndarray
    beta: np.ndarray
    bias: float
    labels: np.ndarray  # the +-1 training labels the duals refer to
    C: float
    objective_curve: list = field(default_factory=list)
    converged: bool = True
    # SVM solver record of the fit that produced this model: the solves run
    # and their iterations, the solutions taken from the memo instead, the
    # weight gradients computed and those taken from the memo, and the
    # convergence of every solution the fit used, run or reused
    svm_solves: int = 0
    smo_iterations: int = 0
    reused_solves: int = 0
    gradients: int = 0
    reused_gradients: int = 0
    unconverged_solves: int = 0
    max_kkt_violation: float = 0.0

    def __post_init__(self):
        a = self.weights
        if (a < -1e-12).any() or abs(a.sum() - 1.0) > 1e-8:
            raise ValueError("kernel weights must lie on the simplex")


def build_kernel_bank(metrics, x_train, tau_grid=DEFAULT_TAU_GRID):
    """One kernel per (metric, tau): sigma^2 = sigma0^2(metric) / tau.

    sigma0^2 is the median squared distance under the metric over every pair
    of training points. The baseline family is the special case
    metrics = [identity].
    """
    if not metrics or not len(tau_grid):
        raise ValueError("need at least one metric and one tau value")
    x_train = np.asarray(x_train, dtype=float)
    upper = np.triu_indices(len(x_train), 1)
    bank = []
    for metric in metrics:
        sigma0_sq = float(np.median(pairwise_sq_dists(x_train, x_train, metric.matrix)[upper]))
        if sigma0_sq <= 0:
            raise ValueError("degenerate pairwise distances")
        bank += [BaseKernel(metric, sigma0_sq / tau) for tau in tau_grid]
    return bank


def gram_bank(bank, x, x2=None):
    """The Gram matrix of every kernel of bank between rows of x and rows of
    x2 (or x with itself), in bank order.

    Consecutive kernels with the same metric object, as build_kernel_bank
    makes them, share one distance matrix: exp(-d / sigma^2) on the same d is
    the same value.
    """
    x = np.asarray(x, dtype=float)
    other = x if x2 is None else np.asarray(x2, dtype=float)
    grams, metric = [], None
    with np.errstate(under="ignore"):
        for bk in bank:
            if bk.metric is not metric:
                metric = bk.metric
                neg_d = -pairwise_sq_dists(x, other, metric.matrix)
            k = np.exp(neg_d / bk.sigma_sq)
            if x2 is None:
                np.fill_diagonal(k, 1.0)
                k = 0.5 * (k + k.T)
            grams.append(k)
    return grams


def gram_matrix(bk: BaseKernel, x, x2=None):
    """Kernel matrix between rows of x and rows of x2 (or x with itself)."""
    return gram_bank([bk], x, x2)[0]


def svm_solve(k, y, c):
    """Soft-margin SVM dual by most-violating-pair coordinate ascent.

    k is the (n, n) Gram matrix, PSD within tolerance, and y the n +-1
    labels. Stops when the maximum KKT violation drops below SVM_TOL; at the
    cap of SVM_MAX_ITER steps the best iterate is returned with
    converged=False and a warning. The bias averages -y * gradient over
    unbounded support vectors.

    The solution records peak, the largest dual value on the whole path. C
    enters the path only once a dual reaches C - 1e-8 (the box step limits,
    the index sets at C - 1e-12, the bias set at C - 1e-8), so the solution
    is bit for bit the solve at any C' with peak < min(C, C') - 1e-8, for the
    same k, y, SVM_TOL and SVM_MAX_ITER.
    """
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +-1")
    n = len(y)
    k = np.asarray(k, dtype=float)
    if k.shape != (n, n):
        raise ValueError(f"Gram matrix has shape {k.shape}; {n} labels need ({n}, {n})")
    if not np.isfinite(k).all():
        raise ValueError("Gram matrix has non-finite entries")
    if not c > 0:
        raise ValueError(f"C must be positive, got {c}")
    tol, max_iter = SVM_TOL, SVM_MAX_ITER
    # Only the two chosen duals change per step, so only their entries of the
    # index sets and of beta are updated. The signed gradient yg = -y * grad
    # moves by step * (K[:, j] - K[:, i]), which equals the product form bit
    # for bit since y is +-1; the columns of k are read as rows of k.T. yg is
    # kept only as two masked copies: g_up holds it on the up set and -inf
    # elsewhere, g_low on the low set and +inf elsewhere. Both take the same
    # delta each step (an infinity stays put), and a point that joins a set
    # takes its value from the copy of the set it was in. A point can leave
    # both sets only when C <= 2e-12; it then never moves again and is not in
    # the bias set, so its lost value is never read. Every scalar is a
    # Python float read with .item, and each builtin min or max is spelled as
    # the comparisons it makes, so ties keep the same value.
    kt = np.ascontiguousarray(k.T)
    rows, kt_item = list(kt), kt.item
    kdiag = np.diag(k).tolist()
    ys = y.tolist()
    c_hi = c - 1e-12
    up = [yr > 0 and c_hi > 0 for yr in ys]  # beta_r may move along +y_r
    low = [yr < 0 and c_hi > 0 for yr in ys]  # beta_r may move along -y_r
    n_up, n_low = sum(up), sum(low)
    g_up = np.where(up, y, -np.inf)
    g_low = np.where(low, y, np.inf)
    beta = [0.0] * n
    delta = np.empty(n)
    scale = np.empty(())  # the step as an array: a float operand costs a conversion
    add, subtract, multiply = np.add, np.subtract, np.multiply
    argmax, argmin, up_item, low_item = g_up.argmax, g_low.argmin, g_up.item, g_low.item
    it = 0
    violation = np.inf
    peak = 0.0
    for it in range(1, max_iter + 1):
        if not n_up or not n_low:
            violation = 0.0
            break
        i = int(argmax())
        j = int(argmin())
        violation = up_item(i) - low_item(j)
        if violation < tol:
            break
        yi, yj = ys[i], ys[j]
        quad = kdiag[i] + kdiag[j] - 2.0 * kt_item(j, i)
        if 1e-12 > quad:
            quad = 1e-12
        step = violation / quad
        # box limits along the feasible pair direction
        bi, bj = beta[i], beta[j]
        limit = c - bi if yi > 0 else bi
        if limit < step:
            step = limit
        limit = bj if yj > 0 else c - bj
        if limit < step:
            step = limit
        beta[i] = bi = bi + yi * step
        beta[j] = bj = bj - yj * step
        if bi > peak:
            peak = bi
        if bj > peak:
            peak = bj
        subtract(rows[j], rows[i], delta)
        scale[()] = step
        multiply(delta, scale, delta)
        add(g_up, delta, g_up)
        add(g_low, delta, g_low)
        for r, b, pos in ((i, bi, yi > 0), (j, bj, yj > 0)):
            u = b < c_hi if pos else b > 1e-12
            l = b > 1e-12 if pos else b < c_hi
            if u != up[r] or l != low[r]:
                v = up_item(r) if up[r] else low_item(r)
                g_up[r] = v if u else -np.inf
                g_low[r] = v if l else np.inf
                n_up += u - up[r]
                n_low += l - low[r]
                up[r], low[r] = u, l
    converged = violation < tol
    if not converged:
        logger.warning("SVM solver hit the iteration cap (violation %.3g)", violation)
    beta = np.array(beta)
    yg = np.where(up, g_up, g_low)  # -y * grad wherever a set holds it
    unbounded = (beta > 1e-8) & (beta < c - 1e-8)
    if unbounded.any():
        bias = float(yg[unbounded].mean())
    else:
        hi = yg[up].max() if n_up else 0.0
        lo = yg[low].min() if n_low else 0.0
        bias = float(0.5 * (hi + lo))
    # beta @ (K * yy^T) without the product matrix: flipping the signs of a
    # whole column of terms flips the sign of their sum exactly. That product
    # is C-ordered whatever the layout of k, and the layout sets the BLAS
    # summation order, so read k in C order too.
    yb_k = ((beta * y) @ np.ascontiguousarray(k)) * y
    objective = float(beta.sum() - 0.5 * yb_k @ beta)
    return SvmSolution(beta, bias, objective, it, converged,
                       float(max(violation, 0.0)), float(peak))


def project_simplex(v):
    """Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u * np.arange(1, len(v) + 1) > css)[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def mkl_train(grams, y, c, memo=None):
    """Simplex-weighted kernel combination minimizing the SVM dual optimum.

    Alternates an exact SVM solve on the combined kernel with a projected
    gradient step on the weights (gradient -0.5 beta^T (y K_k y) beta per
    kernel), backtracking until the dual optimum does not increase, so the
    recorded objective curve is non-increasing. Stops when the weights move
    less than MKL_TOL in l1 or the objective decrease falls below MKL_TOL.

    memo maps weights.tobytes() to the [C, SvmSolution, gradient] entries
    already solved for those weights; it is filled in place and defaults to a
    fresh dict. Share one memo only between fits of the same grams and y. A
    stored solution is used instead of combining and solving when its C
    equals c or its peak is below min(C, c) - 1e-8: then it is the solve at c
    bit for bit (see svm_solve), so every iterate stays what a fit without the
    memo computes. The weight gradient depends only on the grams, y and the
    solution, so it is computed once per entry, the first time a fit steps from
    that solution, and every later fit that steps from the entry reuses it.
    The memos of train_one_vs_all also carry the uniform-weight sum of the
    grams, which the first solve of a fit then takes instead of summing it.
    """
    y = np.asarray(y, dtype=float)
    grams = _as_bank(grams)
    weights = np.full(len(grams), 1.0 / len(grams))
    combined, scratch = np.empty_like(grams[0]), np.empty_like(grams[0])
    memo = {} if memo is None else memo
    stats = {"svm_solves": 0, "smo_iterations": 0, "reused_solves": 0,
             "gradients": 0, "reused_gradients": 0,
             "unconverged_solves": 0, "max_kkt_violation": 0.0}

    def solve(a, k=None):  # k: the combined kernel of a, when already summed
        known = memo.setdefault(a.tobytes(), [])
        entry = next((e for e in known if e[0] == c or e[1].peak < min(e[0], c) - 1e-8),
                     None)
        if entry is None:
            s = svm_solve(_combine(a, grams, combined, scratch) if k is None else k, y, c)
            entry = [c, s, None]
            known.append(entry)
            stats["svm_solves"] += 1
            stats["smo_iterations"] += s.iterations
        else:
            stats["reused_solves"] += 1
        s = entry[1]
        stats["unconverged_solves"] += not s.converged
        stats["max_kkt_violation"] = max(stats["max_kkt_violation"], s.kkt_violation)
        return entry

    entry = solve(weights, getattr(memo, "uniform", None))
    sol = entry[1]
    curve = [sol.objective]
    step = 1.0
    converged = False
    for _ in range(MKL_MAX_OUTER):
        if entry[2] is None:
            yb = y * sol.beta
            entry[2] = np.array([-0.5 * yb @ kk @ yb for kk in grams])
            stats["gradients"] += 1
        else:
            stats["reused_gradients"] += 1
        grad = entry[2]
        accepted = None
        for _ in range(25):
            cand = project_simplex(weights - step * grad)
            move = np.abs(cand - weights).sum()
            if move < 1e-14:
                break
            cand_entry = solve(cand)
            if cand_entry[1].objective <= curve[-1] + 1e-12:
                accepted = (cand, cand_entry, move)
                break
            step *= 0.5
        if accepted is None:
            converged = True  # no descent direction left at this scale
            break
        weights, entry, move = accepted
        sol = entry[1]
        decrease = curve[-1] - sol.objective
        curve.append(sol.objective)
        if move < MKL_TOL or decrease < MKL_TOL * max(1.0, abs(curve[0])):
            converged = True
            break
        step *= 1.5
    return MklModel(weights, sol.beta, sol.bias, y, float(c),
                    objective_curve=curve, converged=converged, **stats)


def _as_bank(grams):
    """grams as a list of float arrays; raises ValueError when it is empty or
    its shapes differ."""
    if len(grams) == 0:
        raise ValueError("need at least one kernel")
    grams = [np.asarray(kk, dtype=float) for kk in grams]
    shapes = {kk.shape for kk in grams}
    if len(shapes) > 1:
        raise ValueError(f"Gram matrices differ in shape: {sorted(shapes)}")
    return grams


class _BankMemo(dict):
    """A solve memo (see mkl_train) that also carries the uniform-weight sum
    of its grams, which every fit solves first."""

    def __init__(self, uniform):
        super().__init__()
        self.uniform = uniform


def _combine(weights, grams, out=None, scratch=None):
    """sum_k a_k K_k into out, adding only the non-zero weights in index order.

    A zero weight would add +0.0, so skipping it changes no value.
    """
    (a, kk), *rest = [(a, kk) for a, kk in zip(weights, grams) if a != 0]
    out = np.multiply(kk, a, out=out)
    for a, kk in rest:
        scratch = np.multiply(kk, a, out=scratch)
        out += scratch
    return out


def _decision_values(model: MklModel, test_grams):
    return _combine(model.weights, test_grams) @ (model.beta * model.labels) + model.bias


def train_one_vs_all(grams, labels, class_count, c_grid):
    """One binary MKL model per class against the rest, for each C of c_grid.

    Returns one model list per C, in grid order. Each class keeps one solve
    memo across the grid, so a solve that never reached its box is reused at
    every C where it is provably the same (see mkl_train). The uniform-weight
    sum that every fit starts from is summed once for the whole grid.
    """
    grams = _as_bank(grams)
    uniform = _combine(np.full(len(grams), 1.0 / len(grams)), grams)
    targets = [np.where(labels == cls, 1.0, -1.0) for cls in range(class_count)]
    memos = [_BankMemo(uniform) for _ in targets]
    return [[mkl_train(grams, y, c, memo=memo) for y, memo in zip(targets, memos)]
            for c in c_grid]


def predict_one_vs_all(models, test_grams):
    """Class with the largest decision value; ties pick the lower index."""
    scores = np.stack([_decision_values(m, test_grams) for m in models], axis=1)
    return scores.argmax(axis=1)
