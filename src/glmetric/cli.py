"""Seeded, config-driven experiment runner and command-line entry points."""
import argparse
import csv
import json
import logging
import sys
import time
import traceback
from contextlib import contextmanager
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
from .kernel_mkl import mkl_cell
from .local_metric import MetricMatrix, compute_all_local_metrics, regional_metrics
from .unsupervised import (assign_to_centers, cluster_transfer_tune,
                           isomap_embed, rand_score)


class ConfigError(ValueError):
    pass


def _is_finite_number(value):
    """An int or float within the finite float range; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _int_at_least(low):
    """The test of an integer of at least low; bools, floats such as 2.5, null
    and strings fail it."""
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low


# A rule is (summary, test): what a value must be, and the test of it. A value
# that fails the test stops the parse with "<name> must be <summary>, got <value>".
def _grid(summary, each=_is_finite_number):
    """The rule of a grid: a non-empty list of finite numbers that also pass each."""
    return (summary, lambda v: isinstance(v, list) and v
            and all(_is_finite_number(x) and each(x) for x in v))


COUNT = ("a positive integer", _int_at_least(1))
SEED = ("a non-negative integer", _int_at_least(0))
SWITCH = ("true or false", lambda v: isinstance(v, bool))  # not 0, 1, strings or null
OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
UNIT_GRID = _grid("a non-empty list of numbers in [0, 1]", lambda x: 0 <= x <= 1)

# A key's default is what an absent key takes. REQUIRED keys have none: an
# absent one is checked as null, which no rule passes. An absent key of
# default None stays absent; the data or the run supplies its value.
REQUIRED = object()

# Each benchmark method: the kind of value it reports, and its config keys as
# (default, rule). cluster_uni's k defaults to the class count, and max_train
# to every training point.
METHODS = {
    **{name: ("error", {}) for name in
       ("euclidean", "glm_int", "m_uni", "m_uni_energy", "m_gmm", "m_kde")},
    "mkl_baseline": ("error", {"max_train": (None, COUNT)}),
    "mkl_metric": ("error", {"partitions": (5, COUNT), "max_train": (None, COUNT)}),
    "cluster_uni": ("rand", {"k": (None, COUNT), "outer_iters": (10, COUNT)}),
    "isomap": ("residual_variance", {
        "n_neighbors": (8, COUNT), "dim": (2, COUNT),
        "metric": ("m_uni", ("'euclidean' or 'm_uni'", lambda v: v in ("euclidean", "m_uni")))}),
}

# The other config keys as (default, rule), by section: the top level
# ("config"), the dataset keys of each kind, preprocess, split and grids.
CONFIG_KEYS = {
    "config": {
        "version": (REQUIRED, ("1", lambda v: v == 1)),
        "dataset": (REQUIRED, OBJECT),
        "preprocess": ({}, OBJECT),
        "split": ({}, OBJECT),
        "methods": (REQUIRED, ("a non-empty list of method names or objects",
                               lambda v: isinstance(v, list) and v)),
        "grids": ({}, OBJECT),
        "lam_cov": (1e-3, ("a finite non-negative number",
                           lambda v: _is_finite_number(v) and v >= 0)),
        "output_dir": ("glmetric_out", ("a non-empty path string",
                                        lambda v: isinstance(v, str) and v != "")),
    },
    "csv": {
        # open() takes an integer as a file descriptor
        "csv": (REQUIRED, ("a path string", lambda v: isinstance(v, str))),
        "label_column": (REQUIRED, ("a non-negative integer or a column name",
                                    lambda v: isinstance(v, str) or _int_at_least(0)(v))),
        "has_header": (False, SWITCH),
    },
    "synthetic": {
        "synthetic": (REQUIRED, ("'three_normal'", lambda v: v == "three_normal")),
        "n": (1200, COUNT),
        "dim": (10, ("an integer of at least 3", _int_at_least(3))),  # a class mean per axis
        "seed": (7, SEED),
        "scale": (3.0, ("a finite number", _is_finite_number)),
        "elongation": (2.5, ("a finite positive number",
                             lambda v: _is_finite_number(v) and v > 0)),
    },
    "preprocess": {"scale": (True, SWITCH), "pca_dim": (None, COUNT)},
    "split": {"ratios": ([0.6, 0.2, 0.2], ("a list of finite numbers",
                                           lambda v: isinstance(v, list)
                                           and all(map(_is_finite_number, v)))),
              "n_repeats": (1, COUNT), "base_seed": (0, SEED), "stratified": (True, SWITCH)},
    "grids": {
        "k": (list(DEFAULT_K_GRID), _grid("a non-empty list of positive integers",
                                          _int_at_least(1))),
        "lam_int": (list(DEFAULT_LAMBDA_GRID), UNIT_GRID),
        "beta": (list(DEFAULT_BETA_GRID), _grid("a non-empty list of finite numbers")),
        "C": ([0.1, 1.0, 10.0, 100.0], _grid("a non-empty list of positive numbers",
                                             lambda x: x > 0)),
        "lam_cov": ([1e-3, 1e-2, 1e-1], _grid("a non-empty list of non-negative numbers",
                                              lambda x: x >= 0)),
        "cluster_lam_int": ([0.0, 0.25, 0.5, 0.75], UNIT_GRID),
    },
}


def _defaults(keys):
    """{key: default} of a table of (default, rule) keys."""
    return {key: default for key, (default, _) in keys.items()}


DEFAULT_GRIDS = _defaults(CONFIG_KEYS["grids"])


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
    output_dir: str


@contextmanager
def _input_error(what):
    """Re-raise a ValueError of the block as ConfigError "what: message" (exit code 2)."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _check(value, rule, name):
    """value, once it passes rule's test."""
    summary, test = rule
    if not test(value):
        raise ConfigError(f"{name} must be {summary}, got {value!r}")
    return value


def _checked(given, keys, where, name):
    """given with its absent keys at their defaults, once no key is unknown
    and each value passes its rule; name formats a key as errors name it."""
    unknown = set(given) - set(keys)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = {}
    for key, (default, rule) in keys.items():
        if key in given or default is not None:
            value = given.get(key, None if default is REQUIRED else default)
            out[key] = _check(value, rule, name.format(key))
    return out


def _parse_method(entry):
    """A method name, or an object of a name and that method's METHODS keys, as a dict."""
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, dict):
        raise ConfigError(f"each method must be a name or an object, got {entry!r}")
    name = entry.get("name")
    if not isinstance(name, str) or name not in METHODS:
        raise ConfigError(f"unknown method {name!r}")
    _checked({key: value for key, value in entry.items() if key != "name"}, METHODS[name][1],
             f"method {name}", f"{{}} of method {name}")
    return entry


def parse_experiment_config(raw):
    """Validate the versioned JSON config against CONFIG_KEYS and METHODS.
    Unknown keys are rejected, and each absent key takes its default before
    any value is checked, so cfg.dataset and cfg.preprocess hold every key of
    their kind that has a default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object with version 1")
    top = _checked(raw, CONFIG_KEYS["config"], "config", "{}")
    dataset = top["dataset"]
    kind = next((kind for kind in ("csv", "synthetic") if kind in dataset), None)
    if kind is None:
        raise ConfigError("dataset must specify 'csv' or 'synthetic'")
    dataset = _checked(dataset, CONFIG_KEYS[kind], "dataset", "dataset {}")
    preprocess = _checked(top["preprocess"], CONFIG_KEYS["preprocess"], "preprocess",
                          "preprocess {}")
    split = _checked(top["split"], CONFIG_KEYS["split"], "split", "split {}")
    grids = _checked(top["grids"], CONFIG_KEYS["grids"], "grids", "grids.{}")
    with _input_error("split ratios"):
        spec = SplitSpec(tuple(split["ratios"]), split["base_seed"], split["stratified"])
    methods = [_parse_method(entry) for entry in top["methods"]]
    keys = [_method_key(entry) for entry in methods]
    for key in keys:  # report.json keeps one entry per key
        if keys.count(key) > 1:
            raise ConfigError(f"two method entries report under {key!r}")
    return ExperimentConfig(raw, dataset, preprocess, spec, split["n_repeats"], methods,
                            grids, float(top["lam_cov"]), top["output_dir"])


def _load_config_dataset(cfg: ExperimentConfig):
    d = cfg.dataset
    if "csv" in d:
        return load_csv(d["csv"], d["label_column"], d["has_header"])
    preset = three_normal_preset(scale=d["scale"], elongation=d["elongation"], dim=d["dim"])
    return make_synthetic_mixture(preset, d["n"], d["seed"])


class _phase:
    """`with _phase(phases, name):` adds the block's wall time to phases[name]."""

    def __init__(self, phases, name):
        self.phases, self.name, self.t0 = phases, name, time.perf_counter()

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        self.phases[self.name] = self.phases.get(self.name, 0.0) + (time.perf_counter() - self.t0)


def _fit_uniform(train, ms):
    return uniform_combination(compute_all_local_metrics(train, ms))


def _fit_density(method, train, validation, lam_cov):
    """The density-weighted global metric of method m_kde or m_gmm."""
    kind = {"m_kde": "kde", "m_gmm": "gmm"}[method]
    return density_weighted_combination(train, validation, kind, lam_cov=lam_cov)[0]


def _cluster_cell(train, validation, test, k, grids, seed,
                  outer_iters=METHODS["cluster_uni"][1]["outer_iters"][0]):
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
    opts = {**_defaults(METHODS[name][1]), **entry}
    phases = {}
    if name in ("mkl_baseline", "mkl_metric"):
        tr = _maybe_subsample(train, opts["max_train"], seed)
        if name == "mkl_baseline":
            return mkl_cell(tr, validation, test, [MetricMatrix.identity(tr.dim)], grids["C"])
        with _phase(phases, "fit_metric_s"):
            metrics, _ = regional_metrics(
                compute_all_local_metrics(tr, fit_gaussian_models(tr, cfg.lam_cov)),
                tr.features, opts["partitions"], seed)
        cell = mkl_cell(tr, validation, test, metrics, grids["C"])
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


def _prepare_split(full, spec, preprocess):
    """The (train, validation, test) portions of spec, with the [-1, 1] scaling
    and the PCA that preprocess asks for fitted on train alone, then the
    ScaleParams of that scaling (None without it)."""
    train, validation, test = ds_mod.split(full, spec)
    params = None
    if preprocess["scale"]:
        train, params = scale_features(train)
        validation = params.transform(validation)
        test = params.transform(test)
    if preprocess.get("pca_dim") is not None:
        _, (train, validation, test) = pca_reduce(train, preprocess["pca_dim"],
                                                  validation, test)
    return train, validation, test, params


def _run_repeat(cfg, full, repeat):
    seed = cfg.split.seed + repeat
    with _input_error(f"preparing split seed {seed}"):
        train, validation, test, _ = _prepare_split(full, replace(cfg.split, seed=seed),
                                                    cfg.preprocess)
    fitted = []  # the uniform metric, kept once a method has fitted it

    def uniform_metric(phases):
        if not fitted:
            with _phase(phases, "fit_metric_s"):
                fitted.append(_fit_uniform(train, fit_gaussian_models(train, cfg.lam_cov)))
        return fitted[0]

    cells = []  # one per cfg.methods entry
    for entry in cfg.methods:
        t0 = time.perf_counter()
        try:
            cell = _run_method(entry, train, validation, test, cfg, seed, uniform_metric)
        except Exception as exc:  # recorded per method, run continues
            cell = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        cell["timing"] = {"wall_s": time.perf_counter() - t0}
        cells.append(cell)
    return cells


def _method_key(entry):
    if entry["name"] == "mkl_metric":
        default = METHODS["mkl_metric"][1]["partitions"][0]
        return f"mkl_metric(P={entry.get('partitions', default)})"
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
    with _input_error("dataset"):
        full = _load_config_dataset(cfg)
    results = [_run_repeat(cfg, full, r) for r in range(cfg.n_repeats)]

    methods = {}
    for method, cells in zip(cfg.methods, zip(*results)):
        ok = [cell for cell in cells if "error" not in cell]
        timing = {"wall_s": sum(cell["timing"]["wall_s"] for cell in cells)}
        for cell in ok:
            for phase, secs in cell["phases"].items():
                timing[phase] = timing.get(phase, 0.0) + secs
        entry = {"kind": METHODS[method["name"]][0], "per_split": [cell["value"] for cell in ok],
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
        methods[_method_key(method)] = entry

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
    """The subparser of name, which runs func and takes --out."""
    p = sub.add_parser(name, help=summary, exit_on_error=False)
    p.add_argument("--out", default=None)
    p.set_defaults(func=func)
    return p


def _label_column(text):
    """argparse type of --label-column: digit text is a 0-based column index,
    other text a column name."""
    return int(text) if text.isdigit() else text


def _add_csv_flags(parser, label_column):
    """--label-column with the given default (required when that is None) and --has-header."""
    parser.add_argument("--label-column", type=_label_column, required=label_column is None,
                        default=label_column)
    parser.add_argument("--has-header", action="store_true")


def _add_rule_flag(parser, flag, convert, key):
    """A flag of a config key's (default, rule): convert reads its text, and the
    value must pass the rule."""
    default, rule = key

    def parse(text):
        try:
            return _check(convert(text), rule, flag)
        except ValueError:  # a ConfigError too
            raise argparse.ArgumentTypeError(f"must be {rule[0]}, got {text!r}") from None

    parser.add_argument(flag, type=parse, default=default)


def _load_cli_csv(path, args):
    with _input_error(path):
        return load_csv(path, args.label_column, args.has_header)


def _cli_gaussians(train, lam_cov):
    """fit_gaussian_models at a command's --lam-cov; a class covariance that
    stays singular at that value raises ConfigError naming the flag."""
    with _input_error(f"--lam-cov {lam_cov}"):
        return fit_gaussian_models(train, lam_cov)


def _cmd_benchmark(args):
    cfg = parse_experiment_config(json.loads(Path(args.config).read_text()))
    _, code = run_experiment(cfg, args.out or cfg.output_dir)
    return code


def _cmd_fit_metric(args):
    full = _load_cli_csv(args.data, args)
    scale = None
    if args.scale:
        full, scale = scale_features(full)
    if args.method == "m_uni":
        metric = _fit_uniform(full, _cli_gaussians(full, args.lam_cov))
    else:
        with _input_error(f"--val-ratio {args.val_ratio}"):
            spec = SplitSpec((1.0 - args.val_ratio, args.val_ratio / 2, args.val_ratio / 2),
                             args.seed, True)
            train, validation, _ = ds_mod.split(full, spec)
        _cli_gaussians(train, args.lam_cov)  # the models the density weighting fits
        metric = _fit_density(args.method, train, validation, args.lam_cov)
    seed = {} if args.method == "m_uni" else {"seed": args.seed}  # m_uni splits nothing
    _save_metric(args.out or "metric.json", metric, scale, method=args.method,
                 lam_cov=args.lam_cov, **seed)
    return 0


def _save_metric(path, metric, scale, **facts):
    """Write a metric file: the metric, the ScaleParams of the [-1, 1] scaling
    whose coordinates it was fitted in (null when it was fitted on raw
    features), and facts of the fit."""
    _write_json(path, {"metric": metric.to_dict(),
                       "scale": scale.to_dict() if scale else None, **facts})


def _load_metric(path, *data):
    """The MetricMatrix of a metric file, then the dataset of each (CSV path,
    dataset) pair in data mapped through the file's scale, so the metric
    applies in the coordinates it was fitted in. A payload without a valid
    metric, a scale without finite low and high lists of the metric's
    dimension, or a metric whose dimension differs from the feature count of
    a dataset in data raises ConfigError naming the file."""
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
    return (metric, *(dataset if scale is None else scale.transform(dataset)
                      for _, dataset in data))


def _cmd_classify(args):
    train = _load_cli_csv(args.train, args)
    if args.k > train.n:
        raise ConfigError(f"--k {args.k} exceeds the {train.n} training points of {args.train}")
    test = _load_cli_csv(args.test, args)
    metric, train, test = _load_metric(args.metric, (args.train, train), (args.test, test))
    pred = knn_predict_batch(train, args.k, metric, test.features)
    _write_csv(args.out or "predictions.csv", ["id", "predicted", "label"],
               ([i, int(p), int(t)] for i, (p, t) in enumerate(zip(pred, test.labels))))
    print(f"test error: {float(np.mean(pred != test.labels)):.4f}")
    return 0


def _cmd_mkl(args):
    raw = {
        "version": 1,
        "dataset": ({"csv": args.data, "label_column": args.label_column,
                     "has_header": args.has_header} if args.data is not None
                    else {"synthetic": "three_normal", "n": args.n, "seed": args.seed}),
        "split": {"n_repeats": args.repeats, "base_seed": args.seed},
        "methods": ["mkl_baseline", {"name": "mkl_metric", "partitions": args.partitions}],
    }
    cfg = parse_experiment_config(raw)
    _, code = run_experiment(cfg, args.out or "mkl_out")
    return code


def _cmd_cluster(args):
    full = _load_cli_csv(args.data, args)
    with _input_error(args.data):
        train, validation, test, scale = _prepare_split(
            full, SplitSpec(seed=args.seed), _defaults(CONFIG_KEYS["preprocess"]))
    k = full.class_count if args.k is None else args.k
    if k > train.n:
        raise ConfigError(f"--k {k} exceeds the {train.n} training points of {args.data}")
    tuned, assigned, score, _ = _cluster_cell(train, validation, test, k, DEFAULT_GRIDS,
                                              args.seed)
    out = Path(args.out or "cluster_out")
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "assignments.csv", ["id", "cluster", "label"],
               ([i, int(a), int(t)] for i, (a, t) in enumerate(zip(assigned, test.labels))))
    _save_metric(out / "metric.json", tuned["metric"], scale, lam_cov=tuned["lam_cov"],
                 lam_int=tuned["lam_int"], test_rand=score)
    print(f"test rand score: {score:.4f}")
    return 0


def _cmd_embed(args):
    fit_flags = [flag for flag, value in (("--method", args.method), ("--lam-cov", args.lam_cov))
                 if value is not None]
    if args.metric and fit_flags:
        raise ConfigError(f"{' and '.join(fit_flags)} cannot be given with --metric "
                          f"{args.metric}, whose file fixes the metric")
    full = _load_cli_csv(args.data, args)
    if args.neighbors >= full.n:
        raise ConfigError(f"--neighbors {args.neighbors} needs more than the {full.n} rows "
                          f"of {args.data}")
    if args.metric:
        metric, full = _load_metric(args.metric, (args.data, full))
    else:  # the metric is fitted here, in the CSV's own [-1, 1] scaling
        full, _ = scale_features(full)
        lam_cov = CONFIG_KEYS["config"]["lam_cov"][0] if args.lam_cov is None else args.lam_cov
        metric = (_fit_uniform(full, _cli_gaussians(full, lam_cov)) if args.method == "m_uni"
                  else MetricMatrix.identity(full.dim))
    # the dimensions the geodesic spectrum supports are known only here
    with _input_error(f"--dim {args.dim}"):
        emb = isomap_embed(full.features, metric, args.neighbors, args.dim)
    _write_csv(args.out or "embedding.csv",
               ["id"] + [f"coord{j}" for j in range(args.dim)] + ["label"],
               ([int(i)] + [repr(float(v)) for v in emb.coordinates[row]]
                + [int(full.labels[i])] for row, i in enumerate(emb.kept_indices)))
    print(f"residual variance: {emb.residual_variance:.6f}")
    return 0


def _cmd_rank(args):
    reports = [json.loads(Path(path).read_text()) for path in args.reports]
    for path, report in zip(args.reports, reports):
        methods = report.get("methods") if isinstance(report, dict) else None
        if not (isinstance(methods, dict) and all(isinstance(m, dict) for m in methods.values())):
            raise ConfigError(f'{path}: not a report: "methods" must map names to objects')
        for name, method in methods.items():
            mean = method.get("mean", 0.0)  # a method that failed every repeat has none
            if not _is_finite_number(mean):
                raise ConfigError(f"{path}: not a report: the mean of {name!r} is {mean!r}, "
                                  "not a finite number")
    try:
        ranks = average_ranks(reports)
    except ValueError as exc:  # no error-kind method common to every report
        raise ConfigError(str(exc)) from exc
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
    _add_rule_flag(p, "--seed", int, CONFIG_KEYS["split"]["base_seed"])
    p.add_argument("--method", choices=["m_uni", "m_kde", "m_gmm"], default="m_uni")
    _add_rule_flag(p, "--lam-cov", float, CONFIG_KEYS["config"]["lam_cov"])
    p.add_argument("--scale", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--val-ratio", type=float, default=0.4)

    p = _subcommand(sub, "classify", _cmd_classify, "kNN predictions with a serialized metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    _add_csv_flags(p, None)
    _add_rule_flag(p, "--k", int, (3, COUNT))

    p = _subcommand(sub, "mkl", _cmd_mkl, "baseline vs metric kernel experiment")
    p.add_argument("--data", default=None)
    _add_csv_flags(p, "label")
    _add_rule_flag(p, "--seed", int, CONFIG_KEYS["split"]["base_seed"])
    _add_rule_flag(p, "--n", int, (600, COUNT))
    _add_rule_flag(p, "--partitions", int, METHODS["mkl_metric"][1]["partitions"])
    _add_rule_flag(p, "--repeats", int, (5, COUNT))

    p = _subcommand(sub, "cluster", _cmd_cluster, "transfer-tuned metric clustering")
    p.add_argument("--data", required=True)
    _add_csv_flags(p, None)
    _add_rule_flag(p, "--seed", int, CONFIG_KEYS["split"]["base_seed"])
    _add_rule_flag(p, "--k", int, (None, COUNT))

    p = _subcommand(sub, "embed", _cmd_embed, "geodesic embedding coordinates as CSV")
    p.add_argument("--data", required=True)
    _add_csv_flags(p, None)
    p.add_argument("--metric", default=None, help="serialized metric JSON")
    # None: not given (the fit without --metric is euclidean at the lam_cov default)
    p.add_argument("--method", choices=["euclidean", "m_uni"], default=None)
    _add_rule_flag(p, "--lam-cov", float, (None, CONFIG_KEYS["config"]["lam_cov"][1]))
    _add_rule_flag(p, "--neighbors", int, METHODS["isomap"][1]["n_neighbors"])
    _add_rule_flag(p, "--dim", int, METHODS["isomap"][1]["dim"])

    p = _subcommand(sub, "rank", _cmd_rank, "average-rank table across report files")
    p.add_argument("reports", nargs="+")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=args.log_level)
        return args.func(args)
    except (argparse.ArgumentError, ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
