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
from .dataset import (ScaleParams, SplitSpec, load_csv, make_synthetic_mixture,
                      pca_reduce, scale_features, three_normal_preset)
from .generative import fit_gaussian_models
from .global_metric import density_weighted_combination, uniform_combination
from .kernel_mkl import (DEFAULT_TAU_GRID, build_kernel_bank, gram_matrix,
                         predict_one_vs_all, train_one_vs_all)
from .local_metric import MetricMatrix, compute_all_local_metrics, regional_metrics
from .unsupervised import (assign_to_centers, cluster_transfer_tune,
                           isomap_embed, rand_score)

# Each benchmark method: the kind of value it reports, and its config keys
# with their defaults. None is a default the data supplies: cluster_uni's k
# is the class count, and max_train keeps every training point. isomap's
# metric is "euclidean" or "m_uni"; every other key is a positive integer.
METHODS = {
    **{name: ("error", {}) for name in
       ("euclidean", "glm_int", "m_uni", "m_uni_energy", "m_gmm", "m_kde")},
    "mkl_baseline": ("error", {"max_train": None}),
    "mkl_metric": ("error", {"partitions": 5, "max_train": None}),
    "cluster_uni": ("rand", {"k": None, "outer_iters": 10}),
    "isomap": ("residual_variance", {"n_neighbors": 8, "dim": 2, "metric": "m_uni"}),
}

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


def _is_finite_number(value):
    """An int or float within the finite float range; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _parse_method(entry):
    """A method name, or an object of a name and that method's METHODS keys, as a dict."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"each method must be a name or an object, got {entry!r}")
    name = entry.get("name")
    if not isinstance(name, str) or name not in METHODS:
        raise ConfigError(f"unknown method {name!r}")
    _check_keys(entry, {"name", *METHODS[name][1]}, f"method {name}")
    for key, value in entry.items():
        if key == "metric" and value not in ("euclidean", "m_uni"):
            raise ConfigError(f"metric of method {name} must be 'euclidean' or 'm_uni', "
                              f"got {value!r}")
        if key not in ("name", "metric"):
            _check_count(value, f"{key} of method {name}")
    return entry


def _parse_grids(raw):
    """DEFAULT_GRIDS with the config's grids in place: non-empty lists of finite
    numbers, k positive integers, C positive, lam_int and cluster_lam_int in [0, 1]."""
    grids = dict(DEFAULT_GRIDS)
    for key, values in raw.get("grids", {}).items():
        if key not in DEFAULT_GRIDS:
            raise ConfigError(f"unknown grid {key!r}")
        if not (isinstance(values, list) and values and all(map(_is_finite_number, values))):
            raise ConfigError(f"grids.{key} must be a non-empty list of finite numbers, "
                              f"got {values!r}")
        grids[key] = list(values)
    for value in grids["k"]:
        _check_count(value, "each k of grids.k")
    if min(grids["C"]) <= 0:
        raise ConfigError(f"each C of grids.C must be positive, got {grids['C']!r}")
    for key in ("lam_int", "cluster_lam_int"):
        if not all(0 <= value <= 1 for value in grids[key]):
            raise ConfigError(f"each value of grids.{key} must lie in [0, 1], "
                              f"got {grids[key]!r}")
    return grids


def parse_experiment_config(raw):
    """Validate the versioned JSON config; unknown keys are rejected."""
    if not isinstance(raw, dict) or raw.get("version") != 1:
        raise ConfigError("config must be a JSON object with version 1")
    _check_keys(raw, {"version", "dataset", "preprocess", "split", "methods",
                      "grids", "lam_cov", "output_dir"}, "config")
    for section in ("dataset", "preprocess", "split", "grids"):
        if not isinstance(raw.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object, got {raw[section]!r}")
    dataset = raw.get("dataset", {})
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
    methods = raw.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"config needs a non-empty list of methods, got {methods!r}")
    lam_cov = raw.get("lam_cov", 1e-3)
    if not _is_finite_number(lam_cov):
        raise ConfigError(f"lam_cov must be a finite number, got {lam_cov!r}")
    return ExperimentConfig(raw, dataset, dict(preprocess), spec, n_repeats,
                            [_parse_method(entry) for entry in methods],
                            _parse_grids(raw), float(lam_cov),
                            raw.get("output_dir"))


def _load_config_dataset(cfg: ExperimentConfig):
    d = cfg.dataset
    if "csv" in d:
        return load_csv(d["csv"], d["label_column"], d.get("has_header", False))
    preset = three_normal_preset(scale=d.get("scale", 3.0),
                                 elongation=d.get("elongation", 2.5),
                                 dim=d.get("dim", 10))
    return make_synthetic_mixture(preset, d.get("n", 1200), d.get("seed", 7))


class _phase:
    """`with _phase(phases, name):` adds the block's wall time to phases[name]."""

    def __init__(self, phases, name):
        self.phases, self.name, self.t0 = phases, name, time.perf_counter()

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        self.phases[self.name] = self.phases.get(self.name, 0.0) + (time.perf_counter() - self.t0)


def _fit_uniform(train, lam_cov):
    ms = fit_gaussian_models(train, lam_cov)
    return uniform_combination(compute_all_local_metrics(train, ms))


def _fit_density(method, train, validation, lam_cov):
    """The density-weighted global metric of method m_kde or m_gmm."""
    kind = {"m_kde": "kde", "m_gmm": "gmm"}[method]
    return density_weighted_combination(train, validation, kind, lam_cov=lam_cov)[0]


def _run_mkl(train, validation, test, metrics, grids, seed):
    """One MKL cell. It holds one Gram bank at a time: the train bank while the
    C grid is fitted, then the validation bank to choose C, then the test bank.
    A train bank over MKL_TRAIN_BANK_BYTES raises ValueError before any gram
    is built."""
    phases = {}
    with _phase(phases, "gram_bank_s"):
        banks = build_kernel_bank(metrics, train.features, DEFAULT_TAU_GRID, seed=seed)
        need = len(banks) * train.n ** 2 * 8
        if need > MKL_TRAIN_BANK_BYTES:
            fits = math.isqrt(MKL_TRAIN_BANK_BYTES // (8 * len(banks)))
            raise ValueError(
                f"the train Gram bank of {len(banks)} kernels at {train.n} training points "
                f"needs {need / 2 ** 20:.0f} MiB, over the {MKL_TRAIN_BANK_BYTES / 2 ** 20:.0f} "
                f"MiB bound; set max_train to {fits} or less")
        k_tr = [gram_matrix(bk, train.features) for bk in banks]
    with _phase(phases, "mkl_fit_s"):
        per_c = train_one_vs_all(k_tr, train.labels, train.class_count, grids["C"])
        del k_tr  # prediction needs no train gram

    def errors(portion, per_model):  # one bank of grams against train, freed on return
        with _phase(phases, "gram_bank_s"):
            grams = [gram_matrix(bk, portion.features, train.features) for bk in banks]
        with _phase(phases, "predict_s"):
            return [float(np.mean(predict_one_vs_all(models, grams) != portion.labels))
                    for models in per_model]

    val_errs = errors(validation, per_c)
    best = int(np.argmin(val_errs))  # the first C of the lowest validation error
    models = per_c[best]
    (test_err,) = errors(test, [models])
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
    return {"value": test_err, "validation_error": val_errs[best],
            "chosen": {"C": grids["C"][best], "kernels": len(banks)},
            "diagnostics": diagnostics, "phases": phases}


def _cluster_cell(train, validation, test, k, grids, seed,
                  outer_iters=METHODS["cluster_uni"][1]["outer_iters"]):
    """Transfer-tuned metric clustering scored on test: (the tuning result,
    the test points' nearest-center ids, their Rand score, the phases)."""
    phases = {}
    with _phase(phases, "tuning_s"):
        tuned = cluster_transfer_tune(train, validation, k, grids["lam_cov"],
                                      grids["cluster_lam_int"], seed=seed,
                                      outer_iters=outer_iters)
    with _phase(phases, "testing_s"):
        assigned = assign_to_centers(test.features, tuned["clustering"].centers,
                                     tuned["metric"])
        score = rand_score(assigned, test.labels)
    return tuned, assigned, score, phases


def _maybe_subsample(portion, limit, seed):
    if limit is None or portion.n <= limit:
        return portion
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(portion.n, limit, replace=False))
    return portion.subset(idx)


def _run_method(entry, train, validation, test, cfg, seed, uniform_metric):
    """One (split, method) cell: its value, chosen settings, diagnostics and
    phases. uniform_metric(phases) returns the split's uniform metric and
    adds fit_metric_s to phases when this call is the one that fits it."""
    name, grids = entry["name"], cfg.grids
    opts = {**METHODS[name][1], **entry}  # the defaults of absent keys
    phases = {}
    if name in ("mkl_baseline", "mkl_metric"):
        tr = _maybe_subsample(train, opts["max_train"], seed)
        if name == "mkl_baseline":
            return _run_mkl(tr, validation, test, [MetricMatrix.identity(tr.dim)], grids, seed)
        with _phase(phases, "fit_metric_s"):
            metrics, _ = regional_metrics(
                compute_all_local_metrics(tr, fit_gaussian_models(tr, cfg.lam_cov)),
                tr.features, opts["partitions"], seed)
        cell = _run_mkl(tr, validation, test, metrics, grids, seed)
        cell["chosen"]["partitions"] = opts["partitions"]
        cell["phases"].update(phases)
        return cell
    if name == "cluster_uni":
        k = train.class_count if opts["k"] is None else opts["k"]
        tuned, _, score, phases = _cluster_cell(train, validation, test, k, grids, seed,
                                                opts["outer_iters"])
        return {"value": score,
                "chosen": {"lam_cov": tuned["lam_cov"], "lam_int": tuned["lam_int"], "k": k},
                "diagnostics": tuned["diagnostics"], "phases": phases}
    metric = None  # glm_int interpolates its own local metrics
    if name == "euclidean" or opts.get("metric") == "euclidean":
        metric = MetricMatrix.identity(train.dim)
    elif name in ("m_uni", "m_uni_energy", "isomap"):
        metric = uniform_metric(phases)
    elif name in ("m_kde", "m_gmm"):
        with _phase(phases, "fit_metric_s"):
            metric = _fit_density(name, train, validation, cfg.lam_cov)
    if name == "isomap":
        with _phase(phases, "embed_s"):
            emb = isomap_embed(train.features, metric, opts["n_neighbors"], opts["dim"])
        return {"value": emb.residual_variance, "phases": phases,
                "chosen": {"n_neighbors": emb.n_neighbors, "embedded": len(emb.kept_indices)}}
    method = {"glm_int": "glm_int", "m_uni_energy": "energy"}.get(name, "knn")
    r = tune_and_test(method, train, validation, test, metric=metric,
                      lam_cov=cfg.lam_cov, k_grid=grids["k"],
                      lam_grid=grids["lam_int"], beta_grid=grids["beta"])
    return {"value": r.test_error, "chosen": r.chosen, "phases": {**phases, **r.timing}}


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

    def uniform_metric(phases):
        if not fitted:
            with _phase(phases, "fit_metric_s"):
                fitted.append(_fit_uniform(train, cfg.lam_cov))
        return fitted[0]

    out = {}
    for entry in cfg.methods:
        t0 = time.perf_counter()
        try:
            cell = _run_method(entry, train, validation, test, cfg, seed, uniform_metric)
        except Exception as exc:  # recorded per method, run continues
            cell = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        cell["timing"] = {"wall_s": time.perf_counter() - t0}
        out[_method_key(entry)] = cell
    return out


def _method_key(entry):
    if entry["name"] == "mkl_metric":
        return f"mkl_metric(P={entry.get('partitions', METHODS['mkl_metric'][1]['partitions'])})"
    return entry["name"]


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
    results = [_run_repeat(cfg, full, r) for r in range(cfg.n_repeats)]

    methods = {}
    for key, name in {_method_key(e): e["name"] for e in cfg.methods}.items():
        cells = [result[key] for result in results]
        ok = [cell for cell in cells if "error" not in cell]
        timing = {"wall_s": sum(cell["timing"]["wall_s"] for cell in cells)}
        for cell in ok:
            for phase, secs in cell["phases"].items():
                timing[phase] = timing.get(phase, 0.0) + secs
        entry = {"kind": METHODS[name][0], "per_split": [cell["value"] for cell in ok],
                 "chosen": [cell["chosen"] for cell in ok],
                 "diagnostics": [cell.get("diagnostics", {}) for cell in ok],
                 "failures": [{"repeat": r, "error": cell["error"],
                               "traceback": cell["traceback"]}
                              for r, cell in enumerate(cells) if "error" in cell],
                 "timing": timing}
        if ok:
            arr = np.asarray(entry["per_split"], dtype=float)
            entry["mean"] = float(arr.mean())
            entry["stderr"] = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        methods[key] = entry

    report = {
        "config": {k: v for k, v in cfg.raw.items() if k != "output_dir"},
        "n_repeats": cfg.n_repeats,
        "methods": methods,
        "timing": {"total_s": time.perf_counter() - t_start},
    }
    write_report(report, out_dir)
    return report, 0 if any("mean" in entry for entry in methods.values()) else 1


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def write_report(report, out_dir):
    """Write a run_experiment report into out_dir: report.json, report.csv
    (one row per successful cell, split being its repeat index) and
    table.txt (format_table)."""
    methods = report["methods"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "report.json", report)
    rows = []
    for key, entry in methods.items():
        failed = {failure["repeat"] for failure in entry["failures"]}
        repeats = [r for r in range(report["n_repeats"]) if r not in failed]
        rows += [[key, entry["kind"], r, repr(v), json.dumps(chosen, sort_keys=True)]
                 for r, v, chosen in zip(repeats, entry["per_split"], entry["chosen"])]
    _write_csv(out / "report.csv", ["method", "kind", "split", "value", "chosen"], rows)
    (out / "table.txt").write_text(format_table(methods) + "\n")


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


def _subcommand(sub, name, func, summary):
    """The subparser of name, which runs func and takes --seed and --out."""
    p = sub.add_parser(name, help=summary, exit_on_error=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=func)
    return p


def _add_csv_flags(parser, label_column):
    """--label-column with the given default (required when that is None) and --has-header."""
    parser.add_argument("--label-column", required=label_column is None,
                        default=label_column)
    parser.add_argument("--has-header", action="store_true")


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
    cfg = parse_experiment_config(json.loads(Path(args.config).read_text()))
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
        metric = _fit_density(args.method, train, validation, args.lam_cov)
    _write_json(args.out or "metric.json",
                {"metric": metric.to_dict(), "method": args.method,
                 "lam_cov": args.lam_cov, "seed": args.seed,
                 "scale": scale.to_dict() if scale else None})
    return 0


def _load_metric(path, *data):
    """The MetricMatrix of a metric JSON file and its ScaleParams (None when
    the payload has no scale). A payload without a valid metric, a scale
    without finite low and high lists of the metric's dimension, or a metric
    whose dimension differs from the feature count of a (CSV path, dataset)
    pair in data raises ConfigError naming the file."""
    payload = json.loads(Path(path).read_text())
    try:
        metric = MetricMatrix.from_dict(payload["metric"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: no valid metric: {type(exc).__name__}: {exc}") from exc
    scale = payload.get("scale") or None
    if scale is not None:
        try:
            scale = ScaleParams.from_dict(scale)
            valid = all(a.shape == (metric.dim,) and np.isfinite(a).all()
                        for a in (scale.low, scale.high))
        except (KeyError, TypeError, ValueError):
            valid = False
        if not valid:
            raise ConfigError(f"{path}: scale needs finite low and high lists of "
                              f"{metric.dim} values")
    for csv_path, dataset in data:
        if dataset.dim != metric.dim:
            raise ConfigError(f"{path}: a {metric.dim}-dimensional metric for the "
                              f"{dataset.dim} features of {csv_path}")
    return metric, scale


def _cmd_classify(args):
    train = _load_cli_csv(args.train, args)
    test = _load_cli_csv(args.test, args)
    metric, scale = _load_metric(args.metric, (args.train, train), (args.test, test))
    if scale is not None:
        train = scale.transform(train)
        test = scale.transform(test)
    pred = knn_predict_batch(train, args.k, metric, test.features)
    _write_csv(args.out or "predictions.csv", ["id", "predicted", "label"],
               ([i, int(p), int(t)] for i, (p, t) in enumerate(zip(pred, test.labels))))
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
    train, validation, test = ds_mod.split(full, SplitSpec(seed=args.seed))
    k = full.class_count if args.k is None else args.k
    if k > train.n:
        raise ConfigError(f"--k {k} exceeds the {train.n} training points of {args.data}")
    tuned, assigned, score, _ = _cluster_cell(train, validation, test, k, DEFAULT_GRIDS,
                                              args.seed)
    out = Path(args.out or "cluster_out")
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "assignments.csv", ["id", "cluster", "label"],
               ([i, int(a), int(t)] for i, (a, t) in enumerate(zip(assigned, test.labels))))
    _write_json(out / "metric.json", {"metric": tuned["metric"].to_dict(),
                                      "lam_cov": tuned["lam_cov"],
                                      "lam_int": tuned["lam_int"], "test_rand": score})
    print(f"test rand score: {score:.4f}")
    return 0


def _cmd_embed(args):
    full = _load_cli_csv(args.data, args)
    full, _ = scale_features(full)
    if args.metric:
        metric, _ = _load_metric(args.metric, (args.data, full))
    elif args.method == "m_uni":
        metric = _fit_uniform(full, args.lam_cov)
    else:
        metric = MetricMatrix.identity(full.dim)
    emb = isomap_embed(full.features, metric, args.neighbors, args.dim)
    _write_csv(args.out or "embedding.csv",
               ["id"] + [f"coord{j}" for j in range(args.dim)] + ["label"],
               ([int(i)] + [repr(float(v)) for v in emb.coordinates[row]]
                + [int(full.labels[i])] for row, i in enumerate(emb.kept_indices)))
    print(f"residual variance: {emb.residual_variance:.6f}")
    return 0


def _cmd_rank(args):
    ranks = average_ranks([json.loads(Path(path).read_text()) for path in args.reports])
    lines = [f"{'method':<24}{'avg rank':>10}"]
    for k in sorted(ranks, key=lambda k: ranks[k]):
        lines.append(f"{k:<24}{ranks[k]:>10.2f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def build_parser():
    # exit_on_error=False here and in _subcommand: main reports a bad argument as one line
    parser = argparse.ArgumentParser(prog="glmetric", exit_on_error=False,
                                     description="Generative local metric learning toolkit")
    parser.add_argument("--log-level", type=str.upper, default="WARNING",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
                        help="lowest level of library log records shown on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "benchmark", _cmd_benchmark, "run a config-driven experiment")
    p.add_argument("--config", required=True)

    p = _subcommand(sub, "fit-metric", _cmd_fit_metric, "fit a global metric and serialize it")
    p.add_argument("--data", required=True)
    _add_csv_flags(p, None)
    p.add_argument("--method", choices=["m_uni", "m_kde", "m_gmm"], default="m_uni")
    p.add_argument("--lam-cov", type=float, default=1e-3)
    p.add_argument("--scale", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--val-ratio", type=float, default=0.4)

    p = _subcommand(sub, "classify", _cmd_classify, "kNN predictions with a serialized metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_csv_flags(p, None)
    p.add_argument("--k", type=_positive_int, default=3)

    p = _subcommand(sub, "mkl", _cmd_mkl, "baseline vs metric kernel experiment")
    p.add_argument("--data", default=None)
    _add_csv_flags(p, "label")
    p.add_argument("--n", type=_positive_int, default=600)
    p.add_argument("--partitions", type=_positive_int, default=5)
    p.add_argument("--repeats", type=_positive_int, default=5)

    p = _subcommand(sub, "cluster", _cmd_cluster, "transfer-tuned metric clustering")
    p.add_argument("--data", required=True)
    _add_csv_flags(p, None)
    p.add_argument("--k", type=_positive_int, default=None)

    p = _subcommand(sub, "embed", _cmd_embed, "geodesic embedding coordinates as CSV")
    p.add_argument("--data", required=True)
    _add_csv_flags(p, None)
    p.add_argument("--metric", default=None, help="serialized metric JSON")
    p.add_argument("--method", choices=["euclidean", "m_uni"], default="euclidean")
    p.add_argument("--lam-cov", type=float, default=1e-3)
    p.add_argument("--neighbors", type=_positive_int, default=8)
    p.add_argument("--dim", type=_positive_int, default=2)

    p = _subcommand(sub, "rank", _cmd_rank, "average-rank table across report files")
    p.add_argument("reports", nargs="+")
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
