"""Spans around the public functions of every glmetric module.

The tracer is installed from outside the library: each traced function is
replaced by a timing wrapper in every glmetric namespace that binds it (the
defining module, the modules that import it by name, and the package root),
so calls made through any of those names are recorded. `uninstall` puts the
original objects back; untraced runs execute the library's own functions.

A span's self time is its duration minus the durations of the spans it
called. Spans are named `<module>.<function>` with the leading underscore of
the private helper modules dropped (`_lloyd` -> `lloyd`, `_linalg` ->
`linalg`), because benchmark metric names must start with a letter.
"""
import functools
import sys
import time

# (defining module, attribute); "Class.method" wraps a method on the class.
TRACED = (
    ("cli", "run_experiment"),
    ("dataset", "load_csv"),
    ("dataset", "make_synthetic_mixture"),
    ("dataset", "split"),
    ("dataset", "scale_features"),
    ("generative", "fit_gaussian_models"),
    ("generative", "bias_matrices"),
    ("local_metric", "compute_all_local_metrics"),
    ("local_metric", "solve_local_metric"),
    ("local_metric", "interpolate_with_euclidean"),
    ("local_metric", "regional_metrics"),
    ("local_metric", "MetricMatrix.__post_init__"),
    ("global_metric", "uniform_combination"),
    ("global_metric", "density_weighted_combination"),
    ("global_metric", "select_kde_bandwidth"),
    ("classify", "tune_and_test"),
    ("classify", "margin_candidates"),
    ("classify", "knn_predict_batch"),
    ("classify", "energy_predict_batch"),
    ("kernel_mkl", "build_kernel_bank"),
    ("kernel_mkl", "gram_matrix"),
    ("kernel_mkl", "train_one_vs_all"),
    ("kernel_mkl", "mkl_train"),
    ("kernel_mkl", "svm_solve"),
    ("kernel_mkl", "predict_one_vs_all"),
    ("unsupervised", "cluster_transfer_tune"),
    ("unsupervised", "iterative_metric_kmeans"),
    ("unsupervised", "kmeans"),
    ("unsupervised", "assign_to_centers"),
    ("unsupervised", "rand_score"),
    ("_lloyd", "lloyd_best_of"),
    ("_lloyd", "lloyd"),
    ("_linalg", "pairwise_sq_dists"),
    ("_linalg", "sym_sqrt"),
)

TUNE_METHODS = ("knn", "glm_int", "energy")


def span_base(module, attr):
    return f"{module.lstrip('_')}.{attr.split('.')[0]}"


def span_names():
    """Every span name the tracer can report, in table order."""
    names = []
    for module, attr in TRACED:
        base = span_base(module, attr)
        if base == "classify.tune_and_test":
            names.extend(f"{base}.{m}" for m in TUNE_METHODS)
        else:
            names.append(base)
    return names


# Work counters, read from a span's arguments and result.
def _count_bias_matrices(args, kwargs, result):
    return {"generative.bias_matrices.rows": len(result[1])}


def _count_local_metrics(args, kwargs, result):
    return {"local_metric.degenerate_points": sum(1 for m in result if m.degenerate)}


def _count_svm(args, kwargs, result):
    return {"kernel_mkl.svm_solve.iters": result.iterations,
            "kernel_mkl.svm_solve.unconverged": int(not result.converged)}


def _count_mkl_train(args, kwargs, result):
    return {"kernel_mkl.mkl_train.accepted_steps": len(result.objective_curve) - 1}


def _count_gram(args, kwargs, result):
    return {"kernel_mkl.gram_matrix.out_bytes": result.nbytes}


def _count_lloyd(args, kwargs, result):
    return {"lloyd.lloyd.iters": len(result[3])}


def _count_pairwise(args, kwargs, result):
    return {"linalg.pairwise_sq_dists.out_bytes": result.nbytes}


COUNTERS = {
    "generative.bias_matrices": _count_bias_matrices,
    "local_metric.compute_all_local_metrics": _count_local_metrics,
    "kernel_mkl.svm_solve": _count_svm,
    "kernel_mkl.mkl_train": _count_mkl_train,
    "kernel_mkl.gram_matrix": _count_gram,
    "lloyd.lloyd": _count_lloyd,
    "linalg.pairwise_sq_dists": _count_pairwise,
}

# every counter with its per-split unit, as reported
COUNTER_UNITS = {
    "generative.bias_matrices.rows": "rows/split",
    "local_metric.degenerate_points": "points/split",
    "kernel_mkl.svm_solve.iters": "iters/split",
    "kernel_mkl.svm_solve.unconverged": "solves/split",
    "kernel_mkl.mkl_train.accepted_steps": "steps/split",
    "kernel_mkl.gram_matrix.out_bytes": "B/split",
    "lloyd.lloyd.iters": "iters/split",
    "linalg.pairwise_sq_dists.out_bytes": "B/split",
}


def _tune_name(base, args, kwargs):
    return f"{base}.{kwargs['method'] if 'method' in kwargs else args[0]}"


class Tracer:
    """Call counts, self time and work counters per span, kept in memory.

    Use as a context manager: entering installs the wrappers, leaving
    restores every rebound name. `roots` lists (name, duration, covered)
    for each span entered with no span open, where covered is the time its
    direct child spans took.
    """

    def __init__(self):
        self.calls = {name: 0 for name in span_names()}
        self.self_s = {name: 0.0 for name in span_names()}
        self.counters = {name: 0 for name in COUNTER_UNITS}
        self.roots = []
        self._stack = []
        self._patched = []

    def _wrap(self, base, fn, namer=None):
        counter = COUNTERS.get(base)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                name = namer(base, args, kwargs) if namer else base
                self.calls[name] += 1
                self.self_s[name] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.roots.append((name, dt, child[0]))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "glmetric" or n.startswith("glmetric.")]
        for module, attr in TRACED:
            home = sys.modules[f"glmetric.{module}"]
            base = span_base(module, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, original, self._wrap(base, original))
                continue
            original = getattr(home, attr)
            namer = _tune_name if base == "classify.tune_and_test" else None
            wrapper = self._wrap(base, original, namer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    @property
    def bindings(self):
        """(owner, attribute name, original object) for every rebound name."""
        return list(self._patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
