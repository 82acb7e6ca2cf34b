"""Seeded, config-driven experiment runner and command-line entry points."""
import argparse
import csv
import json
import logging
import math
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .classify import (DEFAULT_BETA_GRID, DEFAULT_K_GRID, DEFAULT_LAMBDA_GRID,
                       knn_predict_batch, tune_and_test)
from .dataset import (LabeledDataset, ScaleParams, SplitSpec, load_csv,
                      make_synthetic_mixture, pca_reduce, scale_features,
                      three_normal_preset)
from .generative import fit_gaussian_models
from .global_metric import density_weighted_combination, uniform_combination
from .kernel_mkl import (DEFAULT_TAU_GRID, build_kernel_bank, gram_matrix,
                         predict_one_vs_all, train_one_vs_all)
from .local_metric import MetricMatrix, compute_all_local_metrics, regional_metrics
from .unsupervised import (assign_to_centers, cluster_transfer_tune,
                           isomap_embed, rand_score)

METHOD_NAMES = ("euclidean", "glm_int", "m_uni", "m_uni_energy", "m_gmm",
                "m_kde", "mkl_baseline", "mkl_metric", "cluster_uni", "isomap")

DEFAULT_GRIDS = {
    "k": list(DEFAULT_K_GRID),
    "lam_int": list(DEFAULT_LAMBDA_GRID),
    "beta": list(DEFAULT_BETA_GRID),
    "C": [0.1, 1.0, 10.0, 100.0],
    "lam_cov": [1e-3, 1e-2, 1e-1],
    "cluster_lam_int": [0.0, 0.25, 0.5, 0.75],
}

# bound on the bytes of an MKL cell's train Gram bank, M float64 (n, n) grams: M * n**2 * 8
MKL_TRAIN_BANK_BYTES = 2 ** 30


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    raw: dict
    dataset: dict
    preprocess: dict
    split: SplitSpec  # seeded with base_seed; repeat r uses base_seed + r
    n_repeats: int
    methods: list
    grids: dict
    lam_cov: float
    output_dir: str | None


def _check_keys(d, allowed, where):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _check_count(value, what, low=1):
    """value when it is an integer of at least low; bools, floats such as 2.5,
    null and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            low, f"an integer of at least {low}")
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value


def _check_method_values(entry):
    name = entry["name"]
    for key in ("k", "outer_iters", "n_neighbors", "dim", "partitions", "max_train"):
        _check_count(entry.get(key, 1), f"{key} of method {name}")  # absent keeps its default
    if entry.get("metric", "m_uni") not in ("euclidean", "m_uni"):
        raise ConfigError(f"metric of method {name} must be 'euclidean' or 'm_uni', "
                          f"got {entry['metric']!r}")


def parse_experiment_config(raw):
    """Validate the versioned JSON config; unknown keys are rejected."""
    _check_keys(raw, {"version", "dataset", "preprocess", "split", "methods",
                      "grids", "lam_cov", "output_dir"}, "config")
    if raw.get("version") != 1:
        raise ConfigError("config version must be 1")
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict):
        raise ConfigError("config needs a dataset object")
    if "csv" in dataset:
        _check_keys(dataset, {"csv", "label_column", "has_header"}, "dataset")
        if "label_column" not in dataset:
            raise ConfigError("csv dataset needs a label_column")
    elif "synthetic" in dataset:
        _check_keys(dataset, {"synthetic", "n", "seed", "scale", "elongation", "dim"}, "dataset")
        if dataset["synthetic"] != "three_normal":
            raise ConfigError(f"unknown synthetic preset {dataset['synthetic']!r}")
        _check_count(dataset.get("n", 1), "dataset n")
        _check_count(dataset.get("dim", 3), "dataset dim", low=3)  # a class mean per axis
        _check_count(dataset.get("seed", 0), "dataset seed", low=0)
    else:
        raise ConfigError("dataset must specify 'csv' or 'synthetic'")
    preprocess = raw.get("preprocess", {})
    _check_keys(preprocess, {"scale", "pca_dim"}, "preprocess")
    if "pca_dim" in preprocess:
        _check_count(preprocess["pca_dim"], "preprocess pca_dim")
    split = raw.get("split", {})
    _check_keys(split, {"ratios", "n_repeats", "base_seed", "stratified"}, "split")
    n_repeats = _check_count(split.get("n_repeats", 1), "split n_repeats")
    base_seed = _check_count(split.get("base_seed", 0), "split base_seed", low=0)
    try:
        spec = SplitSpec(tuple(split.get("ratios", (0.6, 0.2, 0.2))), base_seed,
                         bool(split.get("stratified", True)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split ratios: {exc}") from exc
    methods = []
    for entry in raw.get("methods", []):
        if isinstance(entry, str):
            entry = {"name": entry}
        else:
            entry = dict(entry)
        name = entry.get("name")
        if name not in METHOD_NAMES:
            raise ConfigError(f"unknown method {name!r}")
        allowed = {"name"}
        if name == "mkl_metric":
            allowed |= {"partitions"}
        if name in ("mkl_metric", "mkl_baseline"):
            allowed |= {"max_train"}
        if name == "cluster_uni":
            allowed |= {"k", "outer_iters"}
        if name == "isomap":
            allowed |= {"n_neighbors", "dim", "metric"}
        _check_keys(entry, allowed, f"method {name}")
        _check_method_values(entry)
        methods.append(entry)
    if not methods:
        raise ConfigError("config needs at least one method")
    grids = dict(DEFAULT_GRIDS)
    for key, val in raw.get("grids", {}).items():
        if key not in DEFAULT_GRIDS:
            raise ConfigError(f"unknown grid {key!r}")
        grids[key] = list(val)
    for value in grids["k"]:
        _check_count(value, "each k of grids.k")
    return ExperimentConfig(raw, dataset, dict(preprocess), spec, n_repeats,
                            methods, grids, float(raw.get("lam_cov", 1e-3)),
                            raw.get("output_dir"))


def _load_config_dataset(cfg: ExperimentConfig):
    d = cfg.dataset
    if "csv" in d:
        return load_csv(d["csv"], d["label_column"], d.get("has_header", False))
    preset = three_normal_preset(scale=d.get("scale", 3.0),
                                 elongation=d.get("elongation", 2.5),
                                 dim=d.get("dim", 10))
    return make_synthetic_mixture(preset, d.get("n", 1200), d.get("seed", 7))


def _fit_uniform(train, lam_cov):
    ms = fit_gaussian_models(train, lam_cov)
    return uniform_combination(compute_all_local_metrics(train, ms))


def _timed_metric(builder):
    t0 = time.perf_counter()
    metric = builder()
    return metric, {"fit_metric_s": time.perf_counter() - t0}


def _run_mkl(train, validation, test, metrics, grids, seed):
    """One MKL cell. It holds one Gram bank at a time: the train bank while the
    C grid is fitted, then the validation bank to choose C, then the test bank.
    A train bank over MKL_TRAIN_BANK_BYTES raises ValueError before any gram
    is built."""
    t0 = time.perf_counter()
    banks = build_kernel_bank(metrics, train.features, DEFAULT_TAU_GRID, seed=seed)
    need = len(banks) * train.n ** 2 * 8
    if need > MKL_TRAIN_BANK_BYTES:
        fits = math.isqrt(MKL_TRAIN_BANK_BYTES // (8 * len(banks)))
        raise ValueError(
            f"the train Gram bank of {len(banks)} kernels at {train.n} training points "
            f"needs {need / 2 ** 20:.0f} MiB, over the {MKL_TRAIN_BANK_BYTES / 2 ** 20:.0f} "
            f"MiB bound; set max_train to {fits} or less")
    k_tr = [gram_matrix(bk, train.features) for bk in banks]
    t1 = time.perf_counter()
    per_c = train_one_vs_all(k_tr, train.labels, train.class_count, grids["C"])
    del k_tr  # prediction needs no train gram
    t2 = time.perf_counter()
    k_va = [gram_matrix(bk, validation.features, train.features) for bk in banks]
    t3 = time.perf_counter()
    val_errs = [float(np.mean(predict_one_vs_all(models, k_va) != validation.labels))
                for models in per_c]
    del k_va
    t4 = time.perf_counter()
    best = int(np.argmin(val_errs))  # the first C of the lowest validation error
    val_err, c, models = val_errs[best], grids["C"][best], per_c[best]
    k_te = [gram_matrix(bk, test.features, train.features) for bk in banks]
    t5 = time.perf_counter()
    test_err = float(np.mean(predict_one_vs_all(models, k_te) != test.labels))
    phases = {"gram_bank_s": (t1 - t0) + (t3 - t2) + (t5 - t4), "mkl_fit_s": t2 - t1,
              "predict_s": (t4 - t3) + (time.perf_counter() - t5)}
    # the chosen C's models, then per-C totals over the whole grid that
    # mkl_fit_s times
    counts = ("svm_solves", "smo_iterations", "reused_solves", "gradients",
              "reused_gradients")
    totals = [{key: sum(getattr(m, key) for m in ms) for key in counts} for ms in per_c]
    diagnostics = dict(totals[best],
                       unconverged_solves=sum(m.unconverged_solves for m in models),
                       max_kkt_violation=max(m.max_kkt_violation for m in models),
                       grid={"C": list(grids["C"]),
                             **{key: [t[key] for t in totals] for key in counts}})
    return {"kind": "error", "value": test_err, "validation_error": val_err,
            "chosen": {"C": c, "kernels": len(banks)}, "diagnostics": diagnostics,
            "phases": phases}


def _cluster_cell(train, validation, test, k, grids, seed, outer_iters=10):
    """Transfer-tuned metric clustering scored on test: (the tuning result,
    the test points' nearest-center ids, their Rand score, the phases)."""
    t0 = time.perf_counter()
    tuned = cluster_transfer_tune(train, validation, k, grids["lam_cov"],
                                  grids["cluster_lam_int"], seed=seed,
                                  outer_iters=outer_iters)
    t1 = time.perf_counter()
    assigned = assign_to_centers(test.features, tuned["clustering"].centers, tuned["metric"])
    score = rand_score(assigned, test.labels)
    phases = {"tuning_s": t1 - t0, "testing_s": time.perf_counter() - t1}
    return tuned, assigned, score, phases


def _maybe_subsample(portion, limit, seed):
    if limit is None or portion.n <= limit:
        return portion
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(portion.n, limit, replace=False))
    return portion.subset(idx)


def _run_method(entry, train, validation, test, cfg, seed, uniform_metric):
    """One (split, method) cell. uniform_metric() returns the split's uniform
    metric and the phases of fitting it (empty once another method has)."""
    name = entry["name"]
    grids = cfg.grids
    if name in ("euclidean", "glm_int", "m_uni", "m_uni_energy", "m_kde", "m_gmm"):
        metric, phases = None, {}
        if name == "euclidean":
            metric = MetricMatrix.identity(train.dim)
        elif name in ("m_uni", "m_uni_energy"):
            metric, phases = uniform_metric()
        elif name in ("m_kde", "m_gmm"):
            kind = "kde" if name == "m_kde" else "gmm"
            metric, phases = _timed_metric(
                lambda: density_weighted_combination(train, validation, kind,
                                                     max_iter=20, lam_cov=cfg.lam_cov))
        method = {"glm_int": "glm_int", "m_uni_energy": "energy"}.get(name, "knn")
        r = tune_and_test(method, train, validation, test, metric=metric,
                          lam_cov=cfg.lam_cov, k_grid=grids["k"],
                          lam_grid=grids["lam_int"], beta_grid=grids["beta"])
        return {"kind": "error", "value": r.test_error,
                "validation_error": r.validation_error, "chosen": r.chosen,
                "phases": {**phases, **r.timing}}
    if name == "mkl_baseline":
        tr = _maybe_subsample(train, entry.get("max_train"), seed)
        return _run_mkl(tr, validation, test, [MetricMatrix.identity(train.dim)],
                        grids, seed)
    if name == "mkl_metric":
        tr = _maybe_subsample(train, entry.get("max_train"), seed)
        p = entry.get("partitions", 5)
        (regionals, _), phases = _timed_metric(lambda: regional_metrics(
            compute_all_local_metrics(tr, fit_gaussian_models(tr, cfg.lam_cov)),
            tr.features, p, seed))
        out = _run_mkl(tr, validation, test, regionals, grids, seed)
        out["chosen"]["partitions"] = p
        out["phases"].update(phases)
        return out
    if name == "cluster_uni":
        k = entry.get("k", train.class_count)
        outer = entry.get("outer_iters", 10)
        tuned, _, score, phases = _cluster_cell(train, validation, test, k, grids, seed, outer)
        return {"kind": "rand", "value": score,
                "chosen": {"lam_cov": tuned["lam_cov"], "lam_int": tuned["lam_int"], "k": k},
                "diagnostics": tuned["diagnostics"], "phases": phases}
    if name == "isomap":
        metric = (MetricMatrix.identity(train.dim)
                  if entry.get("metric", "m_uni") == "euclidean"
                  else uniform_metric()[0])
        emb = isomap_embed(train.features, metric,
                           entry.get("n_neighbors", 8), entry.get("dim", 2))
        return {"kind": "residual_variance", "value": emb.residual_variance,
                "chosen": {"n_neighbors": emb.n_neighbors,
                           "embedded": int(len(emb.kept_indices))}}
    raise ConfigError(f"unknown method {name!r}")


def _run_repeat(cfg, full, repeat):
    seed = cfg.split.seed + repeat
    try:
        train, validation, test = ds_mod.split(full, replace(cfg.split, seed=seed))
        if cfg.preprocess.get("scale", True):
            train, params = scale_features(train)
            validation = params.transform(validation)
            test = params.transform(test)
        if "pca_dim" in cfg.preprocess:
            _, (train, validation, test) = pca_reduce(train, cfg.preprocess["pca_dim"],
                                                      validation, test)
    except ValueError as exc:
        raise ConfigError(f"preparing split seed {seed}: {exc}") from exc
    fitted = []  # the uniform metric, kept once a method has fitted it

    def uniform_metric():
        if fitted:
            return fitted[0], {}
        metric, phases = _timed_metric(lambda: _fit_uniform(train, cfg.lam_cov))
        fitted.append(metric)
        return metric, phases

    out = {}
    for entry in cfg.methods:
        t0 = time.perf_counter()
        try:
            result = _run_method(entry, train, validation, test, cfg, seed, uniform_metric)
        except Exception as exc:  # recorded per method, run continues
            result = {"kind": "failed", "error": f"{type(exc).__name__}: {exc}",
                      "traceback": traceback.format_exc()}
        result["timing"] = {"wall_s": time.perf_counter() - t0}
        out[_method_key(entry)] = result
    return out


def _method_key(entry):
    name = entry["name"]
    if name == "mkl_metric":
        return f"mkl_metric(P={entry.get('partitions', 5)})"
    return name


def run_experiment(cfg: ExperimentConfig, out_dir, threads=1):
    """Run every (repeat, method) cell and write report files into out_dir.

    Repeats run one after another; threads must be 1. Returns (report dict,
    exit code): 0 on success, 1 when every method failed on every repeat.
    A dataset that cannot be loaded, split or preprocessed as configured
    raises ConfigError before any report is written.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}: repeats run serially")
    t_start = time.perf_counter()
    try:
        full = _load_config_dataset(cfg)
    except ValueError as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    n_repeats = cfg.n_repeats
    results = [_run_repeat(cfg, full, r) for r in range(n_repeats)]

    methods = {}
    any_ok = False
    for key in results[0]:
        values, chosen, diagnostics, errors = [], [], [], []
        for r in range(n_repeats):
            cell = results[r][key]
            if cell["kind"] == "failed":
                errors.append({"repeat": r, "error": cell["error"], "traceback": cell["traceback"]})
            else:
                values.append(cell["value"])
                chosen.append(cell.get("chosen", {}))
                diagnostics.append(cell.get("diagnostics", {}))
        timing = {"wall_s": sum(results[r][key]["timing"]["wall_s"]
                                for r in range(n_repeats))}
        for r in range(n_repeats):
            for phase, secs in results[r][key].get("phases", {}).items():
                timing[phase] = timing.get(phase, 0.0) + secs
        entry = {"kind": results[0][key]["kind"], "per_split": values,
                 "chosen": chosen, "diagnostics": diagnostics, "failures": errors,
                 "timing": timing}
        if values:
            any_ok = True
            arr = np.asarray(values, dtype=float)
            entry["mean"] = float(arr.mean())
            entry["stderr"] = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        methods[key] = entry

    report = {
        "config": {k: v for k, v in cfg.raw.items() if k != "output_dir"},
        "n_repeats": n_repeats,
        "methods": methods,
        "timing": {"total_s": time.perf_counter() - t_start},
    }
    write_report(report, out_dir)
    return report, 0 if any_ok else 1


def write_report(report, out_dir):
    """Write a run_experiment report into out_dir: report.json, report.csv
    (one row per successful cell) and table.txt (format_table)."""
    methods = report["methods"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(out / "report.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "kind", "split", "value", "chosen"])
        for key, entry in methods.items():
            for r, v in enumerate(entry["per_split"]):
                w.writerow([key, entry["kind"], r, repr(v),
                            json.dumps(entry["chosen"][r], sort_keys=True)])
    with open(out / "table.txt", "w") as f:
        f.write(format_table(methods) + "\n")


def format_table(methods):
    """Human-readable mean +- stderr table (errors as percentages)."""
    width = max(len(k) for k in methods) + 2
    lines = [f"{'method':<{width}}{'result':>20}"]
    for key, entry in methods.items():
        if "mean" not in entry:
            lines.append(f"{key:<{width}}{'failed':>20}")
            continue
        if entry["kind"] == "error":
            cell = f"{100 * entry['mean']:.2f} +- {100 * entry['stderr']:.2f} %"
        else:
            cell = f"{entry['mean']:.4f} +- {entry['stderr']:.4f}"
        lines.append(f"{key:<{width}}{cell:>20}")
    return "\n".join(lines)


def average_ranks(reports):
    """Average per-dataset rank of each error-kind method (1 = best).

    Ties share the average of the ranks they span. Only methods present in
    every report are ranked.
    """
    common = None
    for rep in reports:
        keys = {k for k, v in rep["methods"].items()
                if v.get("kind") == "error" and "mean" in v}
        common = keys if common is None else (common & keys)
    if not common:
        raise ValueError("no common error-kind methods across reports")
    common = sorted(common)
    totals = {k: 0.0 for k in common}
    for rep in reports:
        means = np.array([rep["methods"][k]["mean"] for k in common])
        order = np.argsort(means, kind="stable")
        ranks = np.empty(len(common))
        i = 0
        while i < len(common):
            j = i
            while j + 1 < len(common) and means[order[j + 1]] <= means[order[i]] + 1e-15:
                j += 1
            ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        for k, r in zip(common, ranks):
            totals[k] += r
    return {k: totals[k] / len(reports) for k in common}


# ---------------------------------------------------------------------------
# subcommands


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)


def _positive_int(text):
    """argparse type of the count flags: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _load_cli_csv(path, args):
    label = args.label_column
    try:
        return load_csv(path, int(label) if label.isdigit() else label, args.has_header)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_benchmark(args):
    with open(args.config) as f:
        cfg = parse_experiment_config(json.load(f))
    out_dir = args.out or cfg.output_dir or "glmetric_out"
    _, code = run_experiment(cfg, out_dir)
    return code


def _cmd_fit_metric(args):
    full = _load_cli_csv(args.data, args)
    scale = None
    if args.scale:
        full, scale = scale_features(full)
    if args.method == "m_uni":
        metric = _fit_uniform(full, args.lam_cov)
    else:
        spec = SplitSpec((1.0 - args.val_ratio, args.val_ratio / 2, args.val_ratio / 2),
                         args.seed, True)
        train, validation, _ = ds_mod.split(full, spec)
        kind = "kde" if args.method == "m_kde" else "gmm"
        metric = density_weighted_combination(train, validation, kind, max_iter=20,
                                              lam_cov=args.lam_cov)
    payload = {"metric": metric.to_dict(), "method": args.method,
               "lam_cov": args.lam_cov, "seed": args.seed,
               "scale": scale.to_dict() if scale else None}
    with open(args.out or "metric.json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def _load_metric(path, *data):
    """The payload of a metric JSON file and its MetricMatrix. A payload
    without a valid metric, or a metric whose dimension differs from the
    feature count of a (CSV path, dataset) pair in data, raises ConfigError
    naming the file."""
    with open(path) as f:
        payload = json.load(f)
    try:
        metric = MetricMatrix.from_dict(payload["metric"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: no valid metric: {type(exc).__name__}: {exc}") from exc
    for csv_path, dataset in data:
        if dataset.dim != metric.dim:
            raise ConfigError(f"{path}: a {metric.dim}-dimensional metric for the "
                              f"{dataset.dim} features of {csv_path}")
    return payload, metric


def _cmd_classify(args):
    train = _load_cli_csv(args.train, args)
    test = _load_cli_csv(args.test, args)
    payload, metric = _load_metric(args.metric, (args.train, train), (args.test, test))
    if payload.get("scale"):
        params = ScaleParams.from_dict(payload["scale"])
        train = params.transform(train)
        test = params.transform(test)
    pred = knn_predict_batch(train, args.k, metric, test.features)
    out = args.out or "predictions.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "predicted", "label"])
        for i, (p, t) in enumerate(zip(pred, test.labels)):
            w.writerow([i, int(p), int(t)])
    print(f"test error: {float(np.mean(pred != test.labels)):.4f}")
    return 0


def _cmd_mkl(args):
    raw = {
        "version": 1,
        "dataset": ({"csv": args.data, "label_column": args.label_column,
                     "has_header": args.has_header} if args.data
                    else {"synthetic": "three_normal", "n": args.n, "seed": args.seed}),
        "split": {"n_repeats": args.repeats, "base_seed": args.seed},
        "methods": ["mkl_baseline", {"name": "mkl_metric", "partitions": args.partitions}],
    }
    cfg = parse_experiment_config(raw)
    _, code = run_experiment(cfg, args.out or "mkl_out")
    return code


def _cmd_cluster(args):
    full = _load_cli_csv(args.data, args)
    full, _ = scale_features(full)
    spec = SplitSpec(seed=args.seed)
    train, validation, test = ds_mod.split(full, spec)
    k = full.class_count if args.k is None else args.k
    if k > train.n:
        raise ConfigError(f"--k {k} exceeds the {train.n} training points of {args.data}")
    tuned, assigned, score, _ = _cluster_cell(train, validation, test, k, DEFAULT_GRIDS,
                                              args.seed)
    out = Path(args.out or "cluster_out")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "assignments.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "cluster", "label"])
        for i, (a, t) in enumerate(zip(assigned, test.labels)):
            w.writerow([i, int(a), int(t)])
    with open(out / "metric.json", "w") as f:
        json.dump({"metric": tuned["metric"].to_dict(),
                   "lam_cov": tuned["lam_cov"], "lam_int": tuned["lam_int"],
                   "test_rand": score}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"test rand score: {score:.4f}")
    return 0


def _cmd_embed(args):
    full = _load_cli_csv(args.data, args)
    full, _ = scale_features(full)
    if args.metric:
        _, metric = _load_metric(args.metric, (args.data, full))
    elif args.method == "m_uni":
        metric = _fit_uniform(full, args.lam_cov)
    else:
        metric = MetricMatrix.identity(full.dim)
    emb = isomap_embed(full.features, metric, args.neighbors, args.dim)
    out = args.out or "embedding.csv"
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id"] + [f"coord{j}" for j in range(args.dim)] + ["label"])
        for row, i in enumerate(emb.kept_indices):
            w.writerow([int(i)] + [repr(float(v)) for v in emb.coordinates[row]]
                       + [int(full.labels[i])])
    print(f"residual variance: {emb.residual_variance:.6f}")
    return 0


def _cmd_rank(args):
    reports = []
    for path in args.reports:
        with open(path) as f:
            reports.append(json.load(f))
    ranks = average_ranks(reports)
    lines = [f"{'method':<24}{'avg rank':>10}"]
    for k in sorted(ranks, key=lambda k: ranks[k]):
        lines.append(f"{k:<24}{ranks[k]:>10.2f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="glmetric",
                                     description="Generative local metric learning toolkit")
    parser.add_argument("--log-level", type=str.upper, default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
                        help="lowest level of library log records shown on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("fit-metric", help="fit a global metric and serialize it")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--method", choices=["m_uni", "m_kde", "m_gmm"], default="m_uni")
    p.add_argument("--lam-cov", type=float, default=1e-3)
    p.add_argument("--scale", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--val-ratio", type=float, default=0.4)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_metric)

    p = sub.add_parser("classify", help="kNN predictions with a serialized metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--k", type=_positive_int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("mkl", help="baseline vs metric kernel experiment")
    p.add_argument("--data", default=None)
    p.add_argument("--label-column", default="label")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--n", type=_positive_int, default=600)
    p.add_argument("--partitions", type=_positive_int, default=5)
    p.add_argument("--repeats", type=_positive_int, default=5)
    _add_common(p)
    p.set_defaults(func=_cmd_mkl)

    p = sub.add_parser("cluster", help="transfer-tuned metric clustering")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--k", type=_positive_int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("embed", help="geodesic embedding coordinates as CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", required=True)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--metric", default=None, help="serialized metric JSON")
    p.add_argument("--method", choices=["euclidean", "m_uni"], default="euclidean")
    p.add_argument("--lam-cov", type=float, default=1e-3)
    p.add_argument("--neighbors", type=_positive_int, default=8)
    p.add_argument("--dim", type=_positive_int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("rank", help="average-rank table across report files")
    p.add_argument("reports", nargs="+")
    _add_common(p)
    p.set_defaults(func=_cmd_rank)
    for p in (parser, *sub.choices.values()):
        p.exit_on_error = False  # main reports a bad argument as one error line
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=args.log_level)
        return args.func(args)
    except (argparse.ArgumentError, ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
