import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from glmetric import classify
from glmetric import cli as cli_mod
from glmetric import kernel_mkl, unsupervised
from glmetric.cli import (ConfigError, average_ranks, format_table, main,
                          parse_experiment_config, run_experiment, write_report)
from glmetric.classify import knn_predict_batch
from glmetric.dataset import (SplitSpec, load_csv, scale_features, split,
                              three_normal_preset)
from glmetric.generative import fit_gaussian_models
from glmetric.global_metric import uniform_combination
from glmetric.local_metric import MetricMatrix, compute_all_local_metrics, regional_metrics
from glmetric.unsupervised import assign_to_centers, cluster_transfer_tune, rand_score


ROOT = Path(__file__).resolve().parents[1]

# README commands that the suite does not run, and why
README_COMMANDS_NOT_RUN = {
    "classify": "reads metric.json, train.csv and test.csv, which no shipped file provides",
    "rank": "reads out/iris/report.json and out/wine/report.json, which no shipped file provides",
    "mkl": "--n 600 --repeats 5 takes about 24 s, too long for the suite",
}


def readme_commands():
    """argv of each command in the README's "Command line" block, continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip()]


IRIS = ["--data", "data/iris.csv", "--label-column", "label", "--has-header"]
DIGITS = ["--data", "data/digits359.csv", "--label-column", "label", "--has-header"]


def write_iris_subset(path, rows):
    full = list(csv.reader(open("data/iris.csv")))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(full[0])
        for i in rows:
            w.writerow(full[1 + i])


def minimal_config(tmp_path, methods=("euclidean",), n_repeats=1, **extra):
    cfg = {
        "version": 1,
        "dataset": {"csv": "data/iris.csv", "label_column": "label", "has_header": True},
        "split": {"ratios": [0.6, 0.2, 0.2], "n_repeats": n_repeats, "base_seed": 1000},
        "methods": list(methods),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_experiment_config({"version": 1, "dataset": {"csv": "x", "label_column": 0},
                                     "methods": ["euclidean"], "bogus": 1})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_experiment_config({"version": 1, "dataset": {"csv": "x", "label_column": 0},
                                     "methods": ["random_forest"]})

    def test_bad_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            parse_experiment_config({"version": 2, "dataset": {"csv": "x", "label_column": 0},
                                     "methods": ["euclidean"]})

    def test_method_parameters_validated(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_experiment_config({"version": 1, "dataset": {"csv": "x", "label_column": 0},
                                     "methods": [{"name": "euclidean", "P": 3}]})

    @pytest.mark.parametrize("entry,message", [
        ({"name": "isomap", "metric": "euclidian"}, "metric of method isomap"),
        ({"name": "isomap", "metric": "m_kde"}, "metric of method isomap"),
        ({"name": "mkl_baseline", "max_train": 2.5}, "max_train of method mkl_baseline"),
        ({"name": "mkl_metric", "max_train": -5}, "max_train of method mkl_metric"),
        ({"name": "mkl_metric", "max_train": None}, "max_train of method mkl_metric"),
        ({"name": "mkl_metric", "partitions": 0}, "partitions of method mkl_metric"),
        ({"name": "cluster_uni", "k": "3"}, "k of method cluster_uni"),
        ({"name": "cluster_uni", "outer_iters": True}, "outer_iters of method cluster_uni"),
        ({"name": "isomap", "n_neighbors": 0}, "n_neighbors of method isomap"),
        ({"name": "isomap", "dim": 2.0}, "dim of method isomap"),
    ])
    def test_method_values_validated(self, entry, message):
        with pytest.raises(ConfigError, match=message):
            parse_experiment_config({"version": 1, "dataset": {"csv": "x", "label_column": 0},
                                     "methods": [entry]})

    def test_valid_method_values_accepted(self):
        # two isomap entries would report under one key, so each has its own config
        for methods in ([{"name": "isomap", "metric": "euclidean", "n_neighbors": 1, "dim": 1},
                         {"name": "mkl_metric", "partitions": 1, "max_train": 10 ** 9},
                         {"name": "cluster_uni", "k": 100000, "outer_iters": 1}],
                        [{"name": "isomap", "metric": "m_uni"}]):
            cfg = parse_experiment_config({"version": 1,
                                           "dataset": {"csv": "x", "label_column": 0},
                                           "methods": methods})
            assert cfg.methods == methods

    def test_absent_keys_take_the_one_default(self, monkeypatch):
        keys = cli_mod.CONFIG_KEYS
        csv_cfg = parse_experiment_config({"version": 1, "methods": ["euclidean"],
                                           "dataset": {"csv": "x", "label_column": 0}})
        assert csv_cfg.dataset == {"csv": "x", "label_column": 0, "has_header": False}
        cfg = parse_experiment_config({"version": 1, "dataset": {"synthetic": "three_normal"},
                                       "methods": ["euclidean"]})
        synthetic = {key: default for key, (default, _) in keys["synthetic"].items()}
        assert cfg.dataset == {**synthetic, "synthetic": "three_normal"}
        assert cfg.preprocess == {"scale": keys["preprocess"]["scale"][0]} == {"scale": True}
        assert (cfg.split, cfg.n_repeats) == (SplitSpec((0.6, 0.2, 0.2), 0, True), 1)
        assert (cfg.lam_cov, cfg.output_dir) == (1e-3, "glmetric_out")
        # the loader runs the synthetic values that the parser checked
        built = []
        monkeypatch.setattr(cli_mod, "make_synthetic_mixture",
                            lambda preset, n, seed: built.append((preset, n, seed)))
        cli_mod._load_config_dataset(cfg)
        ((preset, n, seed),) = built
        expected = three_normal_preset(scale=3.0, elongation=2.5, dim=10)
        assert (n, seed) == (1200, 7) and len(preset) == len(expected)
        for got, want in zip(preset, expected):  # (weight, mean, covariance, label)
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("section,values,message", [
        ("split", {"n_repeats": 2.5}, "split n_repeats"),
        ("split", {"base_seed": 1.5}, "split base_seed"),
        ("split", {"ratios": [0.5, 0.5, 0.5]}, "split ratios"),
        ("preprocess", {"pca_dim": 2.7}, "preprocess pca_dim"),
        ("dataset", {"n": -3}, "dataset n"),
        ("dataset", {"dim": 0}, "dataset dim"),
        ("grids", {"k": [0, 2.5]}, "grids.k"),
        ("grids", {"k": [3, 2.5]}, "grids.k"),
    ])
    def test_config_counts_validated(self, section, values, message):
        raw = {"version": 1, "dataset": {"synthetic": "three_normal"}, "methods": ["euclidean"]}
        raw[section] = {**raw.get(section, {}), **values}
        with pytest.raises(ConfigError, match=message):
            parse_experiment_config(raw)

    def test_valid_config_counts_accepted(self):
        cfg = parse_experiment_config({
            "version": 1, "dataset": {"synthetic": "three_normal", "n": 30, "dim": 3, "seed": 0},
            "preprocess": {"pca_dim": 2}, "methods": ["euclidean"], "grids": {"k": [1, 3]},
            "split": {"ratios": [0.5, 0.25, 0.25], "n_repeats": 2, "base_seed": 0}})
        assert cfg.split == SplitSpec((0.5, 0.25, 0.25), 0, True)
        assert cfg.n_repeats == 2 and cfg.grids["k"] == [1, 3]

    def test_bad_split_ratios_exit_2(self, tmp_path):
        path, _ = minimal_config(tmp_path, split={"ratios": [0.6, 0.6]})
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, message", [
        ({"grids": {"C": 5}}, "grids.C must be a non-empty list of positive numbers, got 5"),
        ({"grids": {"k": 3}}, "grids.k must be a non-empty list of positive integers, got 3"),
        ({"grids": []}, "grids must be a JSON object, got []"),
        ({"lam_cov": "x"}, "lam_cov must be a finite non-negative number, got 'x'"),
        ({"preprocess": 5}, "preprocess must be a JSON object, got 5"),
        ({"methods": [5]}, "each method must be a name or an object, got 5"),
        ({"grids": {"lam_int": "ab"}},
         "grids.lam_int must be a non-empty list of numbers in [0, 1], got 'ab'"),
        ({"grids": {"C": []}}, "grids.C must be a non-empty list of positive numbers, got []"),
        ({"grids": {"beta": [1.0, True]}}, "grids.beta must be a non-empty list of finite"),
        ({"grids": {"lam_cov": [1e-3, float("inf")]}}, "grids.lam_cov must be a non-empty list"),
        ({"lam_cov": float("nan")}, "lam_cov must be a finite non-negative number, got nan"),
        ({"lam_cov": True}, "lam_cov must be a finite non-negative number, got True"),
        ({"grids": {"C": [1.0, 0.0]}},
         "grids.C must be a non-empty list of positive numbers, got [1.0, 0.0]"),
        ({"grids": {"lam_int": [0.5, 1.5]}},
         "grids.lam_int must be a non-empty list of numbers in [0, 1], got [0.5, 1.5]"),
        ({"grids": {"cluster_lam_int": [-0.25]}},
         "grids.cluster_lam_int must be a non-empty list of numbers in [0, 1], got [-0.25]"),
        ({"split": [0.6, 0.2, 0.2]}, "split must be a JSON object"),
        ({"dataset": "data/iris.csv"}, "dataset must be a JSON object"),
        ({"methods": "euclidean"},
         "methods must be a non-empty list of method names or objects, got 'euclidean'"),
        ({"lam_cov": -1e-3}, "lam_cov must be a finite non-negative number, got -0.001"),
        ({"grids": {"lam_cov": [1e-3, -0.1]}},
         "grids.lam_cov must be a non-empty list of non-negative numbers, got [0.001, -0.1]"),
        ({"dataset": {"csv": "data/iris.csv", "label_column": 4.7, "has_header": True}},
         "dataset label_column must be a non-negative integer or a column name, got 4.7"),
        ({"dataset": {"csv": "data/iris.csv", "label_column": -1, "has_header": True}},
         "dataset label_column must be a non-negative integer or a column name, got -1"),
        ({"dataset": {"csv": "data/iris.csv", "label_column": "label", "has_header": "no"}},
         "dataset has_header must be true or false, got 'no'"),
        ({"split": {"n_repeats": 1, "base_seed": 1000, "stratified": "no"}},
         "split stratified must be true or false, got 'no'"),
        ({"preprocess": {"scale": 0}}, "preprocess scale must be true or false, got 0"),
        ({"dataset": {"synthetic": "three_normal", "n": 60, "elongation": -1}},
         "dataset elongation must be a finite positive number, got -1"),
        ({"dataset": {"synthetic": "three_normal", "n": 60, "elongation": "2.5"}},
         "dataset elongation must be a finite positive number, got '2.5'"),
        ({"dataset": {"synthetic": "three_normal", "n": 60, "scale": "3"}},
         "dataset scale must be a finite number, got '3'"),
        ({"methods": [{"name": "isomap", "metric": "euclidean"},
                      {"name": "isomap", "metric": "m_uni"}]},
         "two method entries report under 'isomap'"),
        ({"methods": ["mkl_metric", {"name": "mkl_metric", "partitions": 5}]},
         "two method entries report under 'mkl_metric(P=5)'"),
        ({"dataset": {"csv": 5, "label_column": "label"}},
         "dataset csv must be a path string, got 5"),
        ({"dataset": {"csv": 0, "label_column": "label"}},
         "dataset csv must be a path string, got 0"),
        ({"output_dir": 5}, "output_dir must be a non-empty path string, got 5"),
        ({"output_dir": ["a"]}, "output_dir must be a non-empty path string, got ['a']"),
        ({"split": {"ratios": ["0.6", "0.2", "0.2"]}},
         "split ratios must be a list of finite numbers, got ['0.6', '0.2', '0.2']"),
        ({"split": {"ratios": 0.6}}, "split ratios must be a list of finite numbers, got 0.6"),
    ], ids=["C_number", "k_number", "grids_list", "lam_cov_string", "preprocess_number",
            "method_number", "lam_int_string", "C_empty", "beta_bool", "lam_cov_grid_inf",
            "lam_cov_nan", "lam_cov_bool", "C_zero", "lam_int_above_1",
            "cluster_lam_int_negative", "split_list", "dataset_string", "methods_string",
            "lam_cov_negative", "lam_cov_grid_negative", "label_column_float",
            "label_column_negative", "has_header_string", "stratified_string",
            "scale_number", "elongation_negative", "elongation_string",
            "synthetic_scale_string", "isomap_twice", "mkl_metric_twice", "csv_number",
            "csv_0", "output_dir_number", "output_dir_list", "ratios_strings",
            "ratios_number"])
    def test_malformed_config_exits_2_with_one_error_line(self, tmp_path, capsys, override,
                                                          message):
        path, raw = minimal_config(tmp_path)
        path.write_text(json.dumps({**raw, **override}))
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config must be a JSON object with version 1"]

    @pytest.mark.parametrize("dataset,extra", [
        ({"synthetic": "three_normal", "n": 60, "dim": 1}, {}),
        ({"synthetic": "three_normal", "n": 60, "dim": 2}, {}),
        ({"csv": "data/iris.csv", "label_column": "label", "has_header": True},
         {"preprocess": {"pca_dim": 9}}),
        ({"csv": "data/iris.csv", "label_column": 5, "has_header": True}, {}),
    ], ids=["dim_1", "dim_2", "pca_dim_above_features", "label_column_out_of_range"])
    def test_unusable_dataset_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                          dataset, extra):
        path, _ = minimal_config(tmp_path, dataset=dataset, **extra)
        assert main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("classify", "--k"), ("cluster", "--k"), ("embed", "--neighbors"),
        ("embed", "--dim"), ("mkl", "--n"), ("mkl", "--partitions"), ("mkl", "--repeats"),
    ])
    @pytest.mark.parametrize("value", ["0", "-2", "2.5"])
    def test_count_flags_reject_non_positive_integers(self, tmp_path, capsys, command,
                                                      flag, value):
        out = tmp_path / "out"
        data = {"classify": ["--metric", "m.json", "--train", "data/iris.csv",
                             "--test", "data/iris.csv", "--label-column", "label"],
                "cluster": ["--data", "data/iris.csv", "--label-column", "label"],
                "embed": ["--data", "data/iris.csv", "--label-column", "label"],
                "mkl": []}[command]
        assert main([command, *data, f"{flag}={value}", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: argument {flag}: must be a positive integer, got {value!r}"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--config", "{config}"],
        ["classify", "--metric", "m.json", "--train", "data/iris.csv", "--test",
         "data/iris.csv", "--label-column", "label"],
        ["embed", *IRIS],
        ["rank", "r.json"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_an_unknown_flag_where_nothing_reads_it(self, tmp_path, capsys, argv):
        path, _ = minimal_config(tmp_path)
        out = tmp_path / "out"
        argv = [arg.format(config=path) for arg in argv]
        with pytest.raises(SystemExit) as exit_:  # argparse's own exit for an unknown flag
            main([*argv, "--seed", "99", "--out", str(out)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["fit-metric", *IRIS], ["mkl"], ["cluster", *IRIS]],
                             ids=lambda argv: argv[0])
    def test_seed_is_taken_where_it_is_read(self, argv):
        assert cli_mod.build_parser().parse_args([*argv, "--seed", "99"]).seed == 99

    def test_cluster_k_zero_is_not_the_class_count(self, tmp_path, monkeypatch):
        args = cli_mod.build_parser().parse_args(
            ["cluster", "--data", "data/iris.csv", "--label-column", "label",
             "--has-header", "--out", str(tmp_path / "out")])
        seen = []

        def record_k(train, validation, test, k, *rest):
            seen.append(k)
            raise RuntimeError("k recorded")  # stop before any output is written

        monkeypatch.setattr(cli_mod, "_cluster_cell", record_k)
        for k in (0, None):  # `args.k or class_count` turned 0 into 3
            args.k = k
            with pytest.raises(RuntimeError, match="k recorded"):
                cli_mod._cmd_cluster(args)
        assert seen == [0, 3]

    def test_cluster_k_above_training_size_exits_2_with_one_error_line(self, tmp_path,
                                                                        capsys):
        out = tmp_path / "out"
        assert main(["cluster", "--data", "data/iris.csv", "--label-column", "label",
                     "--has-header", "--k", "1000", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: --k 1000 exceeds the 90 training points of data/iris.csv"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit-metric", "--lam-cov", "-1", *IRIS],
         "argument --lam-cov: must be a finite non-negative number, got '-1'"),
        (["embed", "--method", "m_uni", "--lam-cov", "-1", *IRIS],
         "argument --lam-cov: must be a finite non-negative number, got '-1'"),
        (["fit-metric", "--lam-cov", "nan", *IRIS],
         "argument --lam-cov: must be a finite non-negative number, got 'nan'"),
        (["fit-metric", "--method", "m_kde", "--val-ratio", "1.5", *IRIS],
         "--val-ratio 1.5: each split fraction must lie in (0, 1)"),
        (["fit-metric", "--method", "m_kde", "--val-ratio", "0", *IRIS],
         "--val-ratio 0.0: each split fraction must lie in (0, 1)"),
        (["embed", "--neighbors", "500", *IRIS],
         "--neighbors 500 needs more than the 150 rows of data/iris.csv"),
        (["embed", "--dim", "500", *IRIS],
         "--dim 500: requested 500 dimensions but only 51 positive eigenvalues"),
        (["fit-metric", "--lam-cov", "0", *DIGITS],
         "--lam-cov 0.0: covariance must be positive definite after regularization"),
        (["fit-metric", "--method", "m_kde", "--lam-cov", "0", *DIGITS],
         "--lam-cov 0.0: covariance must be positive definite after regularization"),
        (["embed", "--method", "m_uni", "--lam-cov", "0", *DIGITS],
         "--lam-cov 0.0: covariance must be positive definite after regularization"),
        (["classify", "--metric", "{tmp}/identity.json", "--train", "data/iris.csv",
          "--test", "data/iris.csv", "--label-column", "label", "--has-header", "--k", "500"],
         "--k 500 exceeds the 150 training points of data/iris.csv"),
        (["rank", "{tmp}/list.json"],
         '{tmp}/list.json: not a report: "methods" must map names to objects'),
        (["rank", "{tmp}/methods_5.json"],
         '{tmp}/methods_5.json: not a report: "methods" must map names to objects'),
        (["rank", "{tmp}/rand_only.json"], "no common error-kind methods across reports"),
        (["rank", "{tmp}/mean_string.json"],
         "{tmp}/mean_string.json: not a report: the mean of 'a' is 'x', not a finite number"),
        (["cluster", "--data", "{tmp}/two_setosa.csv", "--label-column", "label",
          "--has-header"],
         "{tmp}/two_setosa.csv: stratified split needs >= 3 members per class; class 0 has 2"),
        (["fit-metric", "--method", "m_kde", "--seed", "-1", *IRIS],
         "argument --seed: must be a non-negative integer, got '-1'"),
        (["mkl", "--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
        (["cluster", "--seed", "-1", *IRIS],
         "argument --seed: must be a non-negative integer, got '-1'"),
    ], ids=["fit_metric_lam_cov", "embed_lam_cov", "lam_cov_nan", "val_ratio_above_1",
            "val_ratio_0", "neighbors_above_rows", "dim_above_spectrum",
            "fit_metric_lam_cov_0", "fit_metric_kde_lam_cov_0", "embed_lam_cov_0",
            "classify_k_above_rows", "rank_list", "rank_methods_number",
            "rank_no_error_methods", "rank_mean_string", "cluster_class_below_3",
            "fit_metric_seed_negative", "mkl_seed_negative", "cluster_seed_negative"])
    def test_bad_flag_value_exits_2_with_one_error_line(self, tmp_path, capsys, argv,
                                                        message):
        for name, payload in {"identity.json": {"metric": MetricMatrix.identity(4).to_dict()},
                              "list.json": [1, 2], "methods_5.json": {"methods": 5},
                              "rand_only.json": {"methods": {"cluster_uni": {
                                  "kind": "rand", "mean": 0.9}}},
                              "mean_string.json": {"methods": {
                                  "a": {"kind": "error", "mean": "x"},
                                  "b": {"kind": "error", "mean": 0.1}}}}.items():
            (tmp_path / name).write_text(json.dumps(payload))
        # 2 setosa, 20 versicolor and 20 virginica rows
        write_iris_subset(tmp_path / "two_setosa.csv", [0, 1, *range(50, 70), *range(100, 120)])
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message.format(tmp=tmp_path)}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fit-metric", "--data", "data/iris.csv"],
        ["classify", "--metric", "m.json", "--train", "data/iris.csv", "--test", "data/iris.csv"],
        ["mkl", "--data", "data/iris.csv"],
        ["cluster", "--data", "data/iris.csv"],
        ["embed", "--data", "data/iris.csv"],
    ], ids=lambda argv: argv[0])
    def test_label_column_digits_are_a_column_index(self, tmp_path, monkeypatch, argv):
        seen = []

        def recording(path, label_column, has_header=False):
            seen.append(label_column)
            raise ValueError("label column recorded")  # stop before anything runs

        monkeypatch.setattr(cli_mod, "load_csv", recording)
        assert main([*argv, "--label-column", "4", "--has-header",
                     "--out", str(tmp_path / "out")]) == 2
        assert seen == [4]

    @pytest.mark.parametrize("payload, message", [
        ({"method": "m_uni"}, "no valid metric: KeyError: 'metric'"),
        ({"metric": {"matrix": (np.eye(4) + np.eye(4, k=1)).tolist(),
                     "provenance": "global:UNI", "det_normalized": False}},
         "no valid metric: ValueError: metric matrix must be symmetric"),
        ({"metric": {"matrix": np.diag([1.0, 1.0, 1.0, -1.0]).tolist(),
                     "provenance": "global:UNI", "det_normalized": False}},
         "no valid metric: ValueError: metric matrix must be positive semidefinite"),
        ({"metric": MetricMatrix.identity(2).to_dict()},
         "a 2-dimensional metric for the 4 features of data/iris.csv"),
        ({"metric": MetricMatrix.identity(4).to_dict(),
          "scale": {"low": [4.3, 2.0], "high": [7.9, 4.4]}},
         "scale needs finite low and high lists of 4 values"),
        ({"metric": MetricMatrix.identity(4).to_dict(),
          "scale": {"low": [4.3, 2.0, 1.0, float("nan")], "high": [7.9, 4.4, 6.9, 2.5]}},
         "scale needs finite low and high lists of 4 values"),
        ({"metric": MetricMatrix.identity(4).to_dict(), "scale": {"low": [4.3, 2.0, 1.0, 0.1]}},
         "scale needs finite low and high lists of 4 values"),
        ({"metric": MetricMatrix.identity(4).to_dict(), "scale": [[4.3], [7.9]]},
         "scale needs finite low and high lists of 4 values"),
    ], ids=["no_metric_key", "asymmetric", "indefinite", "wrong_dimension",
            "short_scale", "nonfinite_scale", "scale_without_high", "scale_not_a_dict"])
    def test_classify_bad_metric_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                             payload, message):
        metric_json, out = tmp_path / "m.json", tmp_path / "predictions.csv"
        metric_json.write_text(json.dumps(payload))
        assert main(["classify", "--metric", str(metric_json), "--train", "data/iris.csv",
                     "--test", "data/iris.csv", "--label-column", "label", "--has-header",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {metric_json}: {message}"]
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--config", "{tmp}"],
        ["fit-metric", "--data", "{tmp}", "--label-column", "label", "--has-header"],
        ["benchmark", "--config", "{tmp}/config.json"],
    ], ids=["config_dir", "fit_metric_data_dir", "dataset_csv_dir"])
    def test_path_that_names_a_directory_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                                     argv):
        minimal_config(tmp_path, dataset={"csv": str(tmp_path), "label_column": "label",
                                          "has_header": True})
        out = tmp_path / "out"
        assert main([*(arg.format(tmp=tmp_path) for arg in argv), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "Is a directory" in line
        assert line.endswith(f"{str(tmp_path)!r}")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["fit-metric", "mkl", "cluster", "embed"])
    def test_empty_data_path_exits_2_with_one_error_line(self, tmp_path, capsys, command):
        # mkl read an empty --data as no CSV and ran its synthetic default
        out = tmp_path / "out"
        assert main([command, "--data", "", "--label-column", "label", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and line.endswith("''")
        assert captured.out == "" and not out.exists()

    @pytest.mark.skipif(getattr(os, "geteuid", lambda: -1)() == 0,
                        reason="root reads a file of mode 000")
    def test_unreadable_config_exits_2_with_one_error_line(self, tmp_path, capsys):
        path, _ = minimal_config(tmp_path)
        path.chmod(0)
        out = tmp_path / "out"
        assert main(["benchmark", "--config", str(path), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "Permission denied" in line
        assert line.endswith(f"{str(path)!r}") and not out.exists()

    def test_missing_label_column_exits_2_with_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "metric.json"
        assert main(["fit-metric", "--data", "data/iris.csv", "--label-column", "nope",
                     "--has-header", "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: data/iris.csv: label column 'nope' not found in header"]
        assert not out.exists()

    def test_invalid_mkl_partitions_exit_2(self, tmp_path):
        assert main(["mkl", "--partitions", "0", "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


class TestRunExperiment:
    def test_minimal_run_writes_reports(self, tmp_path):
        path, raw = minimal_config(tmp_path)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "table.txt").exists()
        assert set(report["methods"]) == {"euclidean"}
        assert len(report["methods"]["euclidean"]["per_split"]) == 1

    def test_rerun_identical_except_timing(self, tmp_path):
        path, _ = minimal_config(tmp_path, methods=("euclidean", "m_uni"), n_repeats=2)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert strip_timing(a) == strip_timing(b)

    def test_report_files_written_as_before(self, tmp_path):
        methods = ("euclidean", {"name": "cluster_uni", "k": 100000}, "m_uni")
        path, _ = minimal_config(tmp_path, methods=methods, n_repeats=2)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, _ = run_experiment(cfg, tmp_path / "run")
        oracle_write_report(report, tmp_path / "oracle")
        write_report(report, tmp_path / "direct")
        for name in ("report.json", "report.csv", "table.txt"):
            expect = (tmp_path / "oracle" / name).read_bytes()
            assert (tmp_path / "run" / name).read_bytes() == expect
            assert (tmp_path / "direct" / name).read_bytes() == expect

    def test_non_finite_distances_fail_the_classify_and_cluster_cells(self, tmp_path,
                                                                      monkeypatch):
        # iris row 10 is in the validation portion at split seed 1000, and a
        # feature of 1e300 overflows every squared distance of its row
        rows = list(csv.reader(open("data/iris.csv")))
        rows[1 + 10][0] = "1e300"
        poisoned = tmp_path / "poisoned.csv"
        with open(poisoned, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        methods = ("euclidean", "glm_int", "m_uni", "m_kde", "cluster_uni")
        path, _ = minimal_config(tmp_path, methods=methods, dataset={
            "csv": str(poisoned), "label_column": "label", "has_header": True})
        cfg = parse_experiment_config(json.loads(path.read_text()))
        with np.errstate(invalid="ignore", over="ignore"):
            report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 1  # no cell of the run succeeds
        for key in ("euclidean", "glm_int", "m_uni", "cluster_uni"):
            (failure,) = report["methods"][key]["failures"]
            assert failure["error"] == "ValueError: non-finite distances in 1 of 30 query rows"
            assert not report["methods"][key]["per_split"]
        # without the check those cells report a value, and m_kde reads the same
        monkeypatch.setattr(classify, "_check_finite", lambda d: None)
        monkeypatch.setattr(unsupervised, "_check_finite", lambda d: None)
        with np.errstate(invalid="ignore", over="ignore"):
            silent, _ = run_experiment(cfg, tmp_path / "silent")
        for key in ("euclidean", "glm_int", "m_uni", "cluster_uni"):
            assert not silent["methods"][key]["failures"]
            assert len(silent["methods"][key]["per_split"]) == 1
        assert strip_timing(report["methods"]["m_kde"]) == strip_timing(silent["methods"]["m_kde"])
        (failure,) = report["methods"]["m_kde"]["failures"]
        assert failure["error"] == ("ValueError: no bandwidth achieved finite "
                                    "validation likelihood")

    def test_threads_other_than_one_rejected(self, tmp_path):
        path, _ = minimal_config(tmp_path)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        with pytest.raises(ValueError, match="threads must be 1"):
            run_experiment(cfg, tmp_path / "out", threads=2)
        assert not (tmp_path / "out").exists()

    def test_uniform_metric_fitted_once_per_split(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compute_all_local_metrics(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "compute_all_local_metrics", counted)
        path, _ = minimal_config(tmp_path, methods=("m_uni", "m_uni_energy"), n_repeats=2)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        assert len(calls) == 2
        assert report["methods"]["m_uni"]["timing"]["fit_metric_s"] > 0
        assert "fit_metric_s" not in report["methods"]["m_uni_energy"]["timing"]

    def test_failed_uniform_fit_not_cached(self, tmp_path, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise FloatingPointError(f"fit {len(calls)}")

        monkeypatch.setattr(cli_mod, "compute_all_local_metrics", failing)
        path, _ = minimal_config(tmp_path, methods=("euclidean", "m_uni", "m_uni_energy"))
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        assert len(calls) == 2
        for key, error in (("m_uni", "fit 1"), ("m_uni_energy", "fit 2")):
            (failure,) = report["methods"][key]["failures"]
            assert failure["error"] == f"FloatingPointError: {error}"
            assert "in _fit_uniform" in failure["traceback"]

    def test_stderr_matches_per_split_values(self, tmp_path):
        path, _ = minimal_config(tmp_path, n_repeats=4)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, _ = run_experiment(cfg, tmp_path / "out")
        entry = report["methods"]["euclidean"]
        values = np.asarray(entry["per_split"])
        assert entry["stderr"] == pytest.approx(values.std(ddof=1) / np.sqrt(len(values)))
        assert entry["mean"] == pytest.approx(values.mean())

    def test_failed_method_recorded_not_fatal(self, tmp_path):
        path, _ = minimal_config(
            tmp_path, methods=("euclidean", {"name": "cluster_uni", "k": 100000}))
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        failures = report["methods"]["cluster_uni"]["failures"]
        assert failures
        for failure in failures:
            assert failure["error"] == "ValueError: k must lie in [1, N]"
            tb = failure["traceback"]
            assert tb.startswith("Traceback (most recent call last):")
            assert 'unsupervised.py", line' in tb and "in kmeans" in tb
            assert tb.rstrip().endswith(failure["error"])
        saved = json.loads((tmp_path / "out" / "report.json").read_text())
        assert saved["methods"]["cluster_uni"]["failures"] == failures

    def test_first_repeat_failing_keeps_kind_and_repeat_index(self, tmp_path, monkeypatch):
        path, _ = minimal_config(tmp_path, n_repeats=3)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        clean, _ = run_experiment(cfg, tmp_path / "clean")
        calls = []

        def failing_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("first repeat")
            return classify.tune_and_test(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "tune_and_test", failing_first)
        report, code = run_experiment(cfg, tmp_path / "out")
        entry = report["methods"]["euclidean"]
        assert code == 0 and entry["kind"] == "error"
        assert [failure["repeat"] for failure in entry["failures"]] == [0]
        assert entry["per_split"] == clean["methods"]["euclidean"]["per_split"][1:]
        rows = list(csv.DictReader(open(tmp_path / "out" / "report.csv")))
        assert [(row["kind"], row["split"]) for row in rows] == [("error", "1"), ("error", "2")]
        assert [float(row["value"]) for row in rows] == entry["per_split"]
        table = (tmp_path / "out" / "table.txt").read_text().splitlines()
        assert table[1].startswith("euclidean") and table[1].endswith(" %")
        assert average_ranks([report]) == {"euclidean": 1.0}

    def test_isomap_phases_cover_the_uniform_fit_and_the_embedding(self, tmp_path):
        path, _ = minimal_config(tmp_path, methods=[{"name": "isomap", "metric": "m_uni"}])
        report, code = run_experiment(parse_experiment_config(json.loads(path.read_text())),
                                      tmp_path / "out")
        assert code == 0
        timing = report["methods"]["isomap"]["timing"]
        assert timing["fit_metric_s"] > 0 and timing["embed_s"] > 0
        assert timing["fit_metric_s"] + timing["embed_s"] <= timing["wall_s"]

    @pytest.mark.parametrize("entry, key, chosen", [
        ({"name": "mkl_metric", "max_train": 30}, "mkl_metric(P=5)", {"partitions": 5}),
        ("cluster_uni", "cluster_uni", {"k": 3}),
        ("isomap", "isomap", {"n_neighbors": 8}),
    ], ids=["mkl_metric", "cluster_uni", "isomap"])
    def test_absent_method_keys_take_the_table_defaults(self, tmp_path, monkeypatch, entry,
                                                         key, chosen):
        fit, fitted, embedded = cli_mod._fit_uniform, [], []

        def recording_fit(*args):
            fitted.append(fit(*args))
            return fitted[-1]

        def recording_embed(x, metric, n_neighbors, d):
            embedded.append((metric, n_neighbors, d))
            return unsupervised.isomap_embed(x, metric, n_neighbors, d)

        monkeypatch.setattr(cli_mod, "_fit_uniform", recording_fit)
        monkeypatch.setattr(cli_mod, "isomap_embed", recording_embed)
        path, _ = minimal_config(tmp_path, methods=[entry])
        report, code = run_experiment(parse_experiment_config(json.loads(path.read_text())),
                                      tmp_path / "out")
        assert code == 0 and list(report["methods"]) == [key]
        (got,) = report["methods"][key]["chosen"]
        assert chosen.items() <= got.items()
        if key == "isomap":  # 8 neighbours, 2 dimensions, the split's uniform metric
            ((metric, n_neighbors, d),) = embedded
            assert (n_neighbors, d) == (8, 2) and metric is fitted[0]

    def test_all_methods_failing_exits_1(self, tmp_path):
        path, _ = minimal_config(tmp_path,
                                 methods=({"name": "cluster_uni", "k": 100000},))
        cfg = parse_experiment_config(json.loads(path.read_text()))
        _, code = run_experiment(cfg, tmp_path / "out")
        assert code == 1

    def test_every_method_runs_on_iris(self, tmp_path):
        methods = ["euclidean", "glm_int", "m_uni", "m_uni_energy", "m_gmm",
                   "m_kde", "mkl_baseline", {"name": "mkl_metric", "partitions": 2},
                   "cluster_uni", {"name": "isomap", "n_neighbors": 8, "dim": 2}]
        path, _ = minimal_config(tmp_path, methods=methods, n_repeats=1)
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        for key, entry in report["methods"].items():
            assert not entry["failures"], f"{key}: {entry['failures']}"
            assert len(entry["per_split"]) == 1
        assert report["methods"]["m_uni"]["timing"]["fit_metric_s"] > 0
        saved = json.loads((tmp_path / "out" / "report.json").read_text())["methods"]
        for key in ("euclidean", "glm_int"):
            timing = saved[key]["timing"]
            assert timing["tuning_s"] > 0 and timing["testing_s"] > 0
            assert timing["tuning_s"] + timing["testing_s"] <= timing["wall_s"]
        assert saved["mkl_metric(P=2)"]["timing"]["fit_metric_s"] > 0
        for key in ("mkl_baseline", "mkl_metric(P=2)"):
            timing = saved[key]["timing"]
            phases = ("gram_bank_s", "mkl_fit_s", "predict_s")
            assert all(timing[p] > 0 for p in phases)
            assert sum(timing[p] for p in phases) <= timing["wall_s"]
            # solver diagnostics sit beside chosen, never inside it
            (diag,) = saved[key]["diagnostics"]
            counts = {"svm_solves", "smo_iterations", "reused_solves", "gradients",
                      "reused_gradients", "backtracks", "early_rejects"}
            assert set(diag) == counts | {"unconverged_solves", "max_kkt_violation",
                                          "grid"}
            assert diag["svm_solves"] >= 3  # one-vs-all on 3 classes
            assert diag["smo_iterations"] >= diag["svm_solves"]
            # per-C totals over the whole grid; the chosen C is one of them
            grid = diag["grid"]
            assert set(grid) == counts | {"C"} and grid["C"] == [0.1, 1.0, 10.0, 100.0]
            best = grid["C"].index(saved[key]["chosen"][0]["C"])
            assert all(len(grid[c]) == 4 and grid[c][best] == diag[c] for c in counts)
            assert diag["unconverged_solves"] == 0
            assert 0.0 <= diag["max_kkt_violation"] < 1e-4
            assert not set(diag) & set(saved[key]["chosen"][0])
        assert saved["euclidean"]["diagnostics"] == [{}]
        cluster = saved["cluster_uni"]
        timing = cluster["timing"]
        assert timing["tuning_s"] > 0 and timing["testing_s"] > 0
        assert timing["tuning_s"] + timing["testing_s"] <= timing["wall_s"]
        (diag,) = cluster["diagnostics"]
        assert set(diag) == {"rounds", "stack_solves", "reused_stacks"}
        assert diag["rounds"] == diag["stack_solves"] + diag["reused_stacks"] > 0
        assert set(cluster["chosen"][0]) == {"lam_cov", "lam_int", "k"}

    def test_mkl_grid_totals_count_every_solve(self, tmp_path, monkeypatch):
        solve = kernel_mkl.svm_solve
        runs = []

        def recording_solve(*args, **kwargs):
            runs.append(solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(kernel_mkl, "svm_solve", recording_solve)
        path, _ = minimal_config(tmp_path, methods=["mkl_baseline"])
        report, code = run_experiment(parse_experiment_config(json.loads(path.read_text())),
                                      tmp_path / "out")
        assert code == 0
        (diag,) = report["methods"]["mkl_baseline"]["diagnostics"]
        grid = diag["grid"]
        assert sum(grid["svm_solves"]) == len(runs) > diag["svm_solves"]
        assert sum(grid["smo_iterations"]) == sum(s.iterations for s in runs)

    def test_mkl_train_bank_over_bound_fails_only_its_cell(self, tmp_path, monkeypatch):
        # 15 kernels of 50 x 50 fit the bound exactly; the 90-point train set does not
        monkeypatch.setattr(cli_mod, "MKL_TRAIN_BANK_BYTES", 15 * 50 ** 2 * 8)
        built = []

        def counted(*args, **kwargs):
            grams = kernel_mkl.gram_bank(*args, **kwargs)
            built.extend(grams)
            return grams

        monkeypatch.setattr(cli_mod, "gram_bank", counted)
        path, _ = minimal_config(tmp_path, methods=["euclidean", "mkl_baseline"])
        cfg = parse_experiment_config(json.loads(path.read_text()))
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0 and not built
        assert not report["methods"]["euclidean"]["failures"]
        (failure,) = report["methods"]["mkl_baseline"]["failures"]
        assert failure["error"].startswith("ValueError: the train Gram bank of 15 kernels "
                                           "at 90 training points")
        assert failure["error"].endswith("set max_train to 50 or less")
        assert "in _run_mkl" in failure["traceback"]
        # the suggested max_train runs
        path, _ = minimal_config(tmp_path, methods=[{"name": "mkl_baseline", "max_train": 50}])
        report, code = run_experiment(parse_experiment_config(json.loads(path.read_text())),
                                      tmp_path / "out2")
        assert code == 0 and not report["methods"]["mkl_baseline"]["failures"]

    def test_one_point_mkl_train_set_fails_its_cell(self, tmp_path):
        # one training point has no pair, so no median bandwidth; the cell
        # used to fit on a NaN bandwidth and report a test error
        cfg = json.loads((ROOT / "configs" / "three_normal_mkl.json").read_text())
        cfg["split"]["n_repeats"] = 1
        cfg["methods"] = [{"name": "mkl_baseline", "max_train": 1}]
        report, code = run_experiment(parse_experiment_config(cfg), tmp_path / "out")
        entry = report["methods"]["mkl_baseline"]
        assert code == 1 and entry["per_split"] == [] and "mean" not in entry
        (failure,) = entry["failures"]
        assert failure["error"] == ("ValueError: a median pairwise distance needs at "
                                    "least two points, got 1")
        assert "in build_kernel_bank" in failure["traceback"]

    def test_mkl_train_bank_bound_names_largest_fitting_max_train(self, monkeypatch):
        # M = 75 kernels (5 partitions x 15 bandwidths) under the shipped 1 GiB,
        # checked before the bandwidths read the n x n training distances
        assert cli_mod.MKL_TRAIN_BANK_BYTES == 2 ** 30

        def unreachable(*args):
            raise AssertionError("the bank was built")

        monkeypatch.setattr(cli_mod, "build_kernel_bank", unreachable)
        full = load_csv("data/iris.csv", "label", has_header=True)
        big = full.subset(np.arange(150).repeat(9)[:1338])
        with pytest.raises(ValueError, match="set max_train to 1337 or less"):
            cli_mod._run_mkl(big, full, full, [None] * 5, cli_mod.DEFAULT_GRIDS)

    def test_synthetic_dataset_config(self, tmp_path):
        cfg = parse_experiment_config({
            "version": 1,
            "dataset": {"synthetic": "three_normal", "n": 150, "seed": 0},
            "split": {"n_repeats": 1, "base_seed": 5},
            "methods": ["euclidean"],
        })
        report, code = run_experiment(cfg, tmp_path / "out")
        assert code == 0
        assert 0.0 <= report["methods"]["euclidean"]["per_split"][0] <= 1.0


def oracle_write_report(report, out_dir):
    """The report writing that run_experiment did inline before write_report."""
    methods = report["methods"]
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(out_dir / "report.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "kind", "split", "value", "chosen"])
        for key, entry in methods.items():
            for r, v in enumerate(entry["per_split"]):
                w.writerow([key, entry["kind"], r, repr(v),
                            json.dumps(entry["chosen"][r], sort_keys=True)])
    with open(out_dir / "table.txt", "w") as f:
        f.write(format_table(methods) + "\n")


def oracle_run_mkl(train, validation, test, metrics, grids):
    """_run_mkl with all three Gram banks built before the fit."""
    banks = kernel_mkl.build_kernel_bank(metrics, train.features, kernel_mkl.DEFAULT_TAU_GRID)
    k_tr = [kernel_mkl.gram_matrix(bk, train.features) for bk in banks]
    k_va = [kernel_mkl.gram_matrix(bk, validation.features, train.features) for bk in banks]
    k_te = [kernel_mkl.gram_matrix(bk, test.features, train.features) for bk in banks]
    per_c = kernel_mkl.train_one_vs_all(k_tr, train.labels, train.class_count, grids["C"])
    val_errs = [float(np.mean(kernel_mkl.predict_one_vs_all(models, k_va)
                              != validation.labels)) for models in per_c]
    best = int(np.argmin(val_errs))
    models = per_c[best]
    test_err = float(np.mean(kernel_mkl.predict_one_vs_all(models, k_te) != test.labels))
    counts = ("svm_solves", "smo_iterations", "reused_solves", "gradients",
              "reused_gradients", "backtracks", "early_rejects")
    totals = [{key: sum(getattr(m, key) for m in ms) for key in counts} for ms in per_c]
    diagnostics = dict(totals[best],
                       unconverged_solves=sum(m.unconverged_solves for m in models),
                       max_kkt_violation=max(m.max_kkt_violation for m in models),
                       grid={"C": list(grids["C"]),
                             **{key: [t[key] for t in totals] for key in counts}})
    return {"value": test_err, "validation_error": val_errs[best],
            "chosen": {"C": grids["C"][best], "kernels": len(banks)},
            "diagnostics": diagnostics}


class TestMklCellOrder:
    @pytest.fixture(scope="class")
    def iris_parts(self):
        full = load_csv("data/iris.csv", "label", has_header=True)
        train, validation, test = split(full, SplitSpec(seed=1000))
        train, params = scale_features(train)
        return train, params.transform(validation), params.transform(test)

    @pytest.mark.parametrize("partitions", [None, 2])
    def test_train_bank_dead_before_evaluation_banks_and_cell_unchanged(
            self, iris_parts, partitions, monkeypatch):
        train, validation, test = iris_parts
        if partitions is None:
            metrics = [MetricMatrix.identity(train.dim)]
        else:
            locals_ = compute_all_local_metrics(train, fit_gaussian_models(train, 1e-3))
            metrics, _ = regional_metrics(locals_, train.features, partitions, seed=3)
        train_refs, alive_at_eval = [], []

        def recording(bank, x, x2=None):
            if x2 is not None and not alive_at_eval:
                alive_at_eval.append(sum(r() is not None for r in train_refs))
            grams = kernel_mkl.gram_bank(bank, x, x2)
            if x2 is None:
                train_refs.extend(weakref.ref(k) for k in grams)
            return grams

        monkeypatch.setattr(cli_mod, "gram_bank", recording)
        cell = cli_mod._run_mkl(train, validation, test, metrics, cli_mod.DEFAULT_GRIDS)
        assert len(train_refs) == cell["chosen"]["kernels"] == 15 * len(metrics)
        assert alive_at_eval == [0]
        expected = oracle_run_mkl(train, validation, test, metrics, cli_mod.DEFAULT_GRIDS)
        assert {key: cell[key] for key in expected} == expected
        assert set(cell["phases"]) == {"gram_bank_s", "mkl_fit_s", "predict_s"}


class TestSubcommands:
    def test_readme_commands_are_run_or_say_why_not(self):
        commands = [argv[1] for argv in readme_commands()]
        assert {argv[0] for argv in readme_commands()} == {"glmetric"}
        assert len(commands) == 7
        assert set(README_COMMANDS_NOT_RUN) < set(commands)

    @pytest.mark.parametrize("argv", [argv for argv in readme_commands()
                                      if argv[1] not in README_COMMANDS_NOT_RUN],
                             ids=lambda argv: argv[1])
    def test_readme_command_exits_0(self, tmp_path, argv):
        for name in ("data", "configs"):
            shutil.copytree(ROOT / name, tmp_path / name)
        proc = subprocess.run([sys.executable, "-m", "glmetric.cli", *argv[1:]],
                              cwd=tmp_path, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    def test_fit_metric_then_classify_round_trip(self, tmp_path):
        train_rows = [i for i in range(150) if i % 5 != 0]
        test_rows = [i for i in range(150) if i % 5 == 0]
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        write_iris_subset(train_csv, train_rows)
        write_iris_subset(test_csv, test_rows)
        metric_json = tmp_path / "metric.json"
        preds_csv = tmp_path / "preds.csv"

        assert main(["fit-metric", "--data", str(train_csv), "--label-column", "label",
                     "--has-header", "--method", "m_uni", "--out", str(metric_json)]) == 0
        assert main(["classify", "--metric", str(metric_json), "--train", str(train_csv),
                     "--test", str(test_csv), "--label-column", "label", "--has-header",
                     "--k", "3", "--out", str(preds_csv)]) == 0

        # in-process oracle: same scaling, same metric construction, same kNN
        train = load_csv(train_csv, "label", has_header=True)
        test = load_csv(test_csv, "label", has_header=True)
        train_s, params = scale_features(train)
        test_s = params.transform(test)
        ms = fit_gaussian_models(train_s, 1e-3)
        metric = uniform_combination(compute_all_local_metrics(train_s, ms))
        expect = knn_predict_batch(train_s, 3, metric, test_s.features)

        rows = list(csv.DictReader(open(preds_csv)))
        got = [int(r["predicted"]) for r in rows]
        assert got == expect.tolist()

    def test_fit_metric_records_the_seed_only_where_it_splits(self, tmp_path):
        paths = {}
        for method, seed in (("m_uni", 0), ("m_uni", 5), ("m_kde", 5)):
            paths[method, seed] = tmp_path / f"{method}_{seed}.json"
            assert main(["fit-metric", *IRIS, "--method", method, "--seed", str(seed),
                         "--out", str(paths[method, seed])]) == 0
        assert paths["m_uni", 0].read_bytes() == paths["m_uni", 5].read_bytes()
        assert "seed" not in json.loads(paths["m_uni", 0].read_text())
        assert json.loads(paths["m_kde", 5].read_text())["seed"] == 5

    def test_cluster_metric_file_applies_in_its_training_scale(self, tmp_path):
        out, preds_csv = tmp_path / "cluster", tmp_path / "preds.csv"
        assert main(["cluster", *IRIS, "--seed", "3", "--out", str(out)]) == 0
        saved = json.loads((out / "metric.json").read_text())
        train, _, _ = split(load_csv("data/iris.csv", "label", has_header=True),
                            SplitSpec(seed=3))
        _, params = scale_features(train)
        assert saved["scale"] == params.to_dict()
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        write_iris_subset(train_csv, [i for i in range(150) if i % 5 != 0])
        write_iris_subset(test_csv, [i for i in range(150) if i % 5 == 0])
        assert main(["classify", "--metric", str(out / "metric.json"), "--train",
                     str(train_csv), "--test", str(test_csv), "--label-column", "label",
                     "--has-header", "--k", "3", "--out", str(preds_csv)]) == 0
        train = params.transform(load_csv(train_csv, "label", has_header=True))
        test = params.transform(load_csv(test_csv, "label", has_header=True))
        expect = knn_predict_batch(train, 3, MetricMatrix.from_dict(saved["metric"]),
                                   test.features)
        got = [int(row["predicted"]) for row in csv.DictReader(open(preds_csv))]
        assert got == expect.tolist()

    def test_embed_applies_a_metric_file_in_its_coordinates(self, tmp_path):
        raw_json, scaled_json = tmp_path / "raw.json", tmp_path / "scaled.json"
        assert main(["fit-metric", *IRIS, "--no-scale", "--out", str(raw_json)]) == 0
        assert main(["fit-metric", *IRIS, "--out", str(scaled_json)]) == 0
        flags = ["--neighbors", "10", "--dim", "2"]
        outs = {name: tmp_path / f"{name}.csv" for name in ("raw", "scaled", "fitted")}
        assert main(["embed", *IRIS, *flags, "--metric", str(raw_json),
                     "--out", str(outs["raw"])]) == 0
        assert main(["embed", *IRIS, *flags, "--metric", str(scaled_json),
                     "--out", str(outs["scaled"])]) == 0
        assert main(["embed", *IRIS, *flags, "--method", "m_uni",
                     "--out", str(outs["fitted"])]) == 0
        # a --no-scale metric applies to the raw features
        full = load_csv("data/iris.csv", "label", has_header=True)
        metric = MetricMatrix.from_dict(json.loads(raw_json.read_text())["metric"])
        emb = unsupervised.isomap_embed(full.features, metric, 10, 2)
        rows = list(csv.reader(open(outs["raw"])))[1:]
        assert [int(row[0]) for row in rows] == emb.kept_indices.tolist()
        assert [row[1:3] for row in rows] == [[repr(float(v)) for v in coords]
                                              for coords in emb.coordinates]
        # a metric fitted in the CSV's own scaling embeds as embed fits it
        assert outs["scaled"].read_bytes() == outs["fitted"].read_bytes()

    @pytest.mark.parametrize("flags", [["--method", "m_uni"], ["--lam-cov", "5"]],
                             ids=["method", "lam_cov"])
    def test_embed_metric_file_rejects_the_flags_of_the_fit(self, tmp_path, capsys, flags):
        # both flags were read only without --metric, so a metric file ignored them
        metric_json, out = tmp_path / "m.json", tmp_path / "coords.csv"
        metric_json.write_text(json.dumps({"metric": MetricMatrix.identity(4).to_dict()}))
        assert main(["embed", *IRIS, "--metric", str(metric_json), *flags,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {flags[0]} cannot be given with --metric {metric_json}, "
            "whose file fixes the metric"]
        assert captured.out == "" and not out.exists()

    def test_embed_line_fixture(self, tmp_path):
        line_csv = tmp_path / "line.csv"
        with open(line_csv, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["x", "label"])
            for i in range(3):
                w.writerow([float(i), 0])
        out = tmp_path / "coords.csv"
        assert main(["embed", "--data", str(line_csv), "--label-column", "label",
                     "--has-header", "--neighbors", "2", "--dim", "1",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 3
        assert set(rows[0]) == {"id", "coord0", "label"}

    def test_rank_arithmetic(self, tmp_path):
        def report(err_a, err_b):
            return {"methods": {"a": {"kind": "error", "mean": err_a},
                                "b": {"kind": "error", "mean": err_b}}}

        ranks = average_ranks([report(0.1, 0.2), report(0.05, 0.3)])
        assert ranks == {"a": 1.0, "b": 2.0}

    def test_rank_ties_share_average(self):
        rep = {"methods": {"a": {"kind": "error", "mean": 0.1},
                           "b": {"kind": "error", "mean": 0.1},
                           "c": {"kind": "error", "mean": 0.4}}}
        ranks = average_ranks([rep])
        assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_rank_subcommand(self, tmp_path):
        for name, errs in (("r1.json", (0.1, 0.2)), ("r2.json", (0.15, 0.25))):
            (tmp_path / name).write_text(json.dumps(
                {"methods": {"fast": {"kind": "error", "mean": errs[0]},
                             "slow": {"kind": "error", "mean": errs[1]}}}))
        out = tmp_path / "ranks.txt"
        assert main(["rank", str(tmp_path / "r1.json"), str(tmp_path / "r2.json"),
                     "--out", str(out)]) == 0
        assert "fast" in out.read_text()

    @pytest.mark.parametrize("mean", ["0.1", None, True, [0.1], float("nan"), float("inf"),
                                      10 ** 400],
                             ids=["string", "null", "bool", "list", "nan", "inf", "huge_int"])
    def test_rank_rejects_a_mean_that_is_not_a_finite_number(self, tmp_path, capsys, mean):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"methods": {"a": {"kind": "error", "mean": 0},
                                                "b": {"kind": "error", "mean": 0.5}}}))
        # a rand-kind mean is checked too, though only error-kind means are ranked
        bad.write_text(json.dumps({"methods": {"a": {"kind": "error", "mean": 0.1},
                                               "b": {"kind": "error", "mean": 0.2},
                                               "c": {"kind": "rand", "mean": mean}}}))
        assert main(["rank", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {bad}: not a report: the mean of 'c' is {mean!r}, not a finite number"]
        assert captured.out == ""
        assert main(["rank", str(good), str(good)]) == 0  # an integer mean is a number

    def test_cluster_subcommand_matches_direct_pipeline(self, tmp_path):
        # the scaling is fitted on the training portion alone, as the runner
        # fits it; at seed 1002 the whole-file scaling gave another Rand score
        for seed in (3, 1002):
            out = tmp_path / f"cluster{seed}"
            assert main(["cluster", *IRIS, "--seed", str(seed), "--out", str(out)]) == 0
            train, validation, test = split(load_csv("data/iris.csv", "label", has_header=True),
                                            SplitSpec(seed=seed))
            train, params = scale_features(train)
            validation, test = params.transform(validation), params.transform(test)
            tuned = cluster_transfer_tune(train, validation, 3, (1e-3, 1e-2, 1e-1),
                                          (0.0, 0.25, 0.5, 0.75), seed=seed)
            assigned = assign_to_centers(test.features, tuned["clustering"].centers,
                                         tuned["metric"])
            saved = json.loads((out / "metric.json").read_text())
            assert saved["test_rand"] == rand_score(assigned, test.labels)
            assert (saved["lam_cov"], saved["lam_int"]) == (tuned["lam_cov"], tuned["lam_int"])
            assert saved["metric"]["matrix"] == tuned["metric"].matrix.tolist()
            rows = list(csv.reader(open(out / "assignments.csv")))[1:]
            assert [int(r[1]) for r in rows] == assigned.tolist()
            assert [int(r[2]) for r in rows] == test.labels.tolist()
            path, _ = minimal_config(tmp_path, methods=["cluster_uni"],
                                     split={"n_repeats": 1, "base_seed": seed})
            report, _ = run_experiment(parse_experiment_config(json.loads(path.read_text())),
                                       tmp_path / f"benchmark{seed}")
            cell = report["methods"]["cluster_uni"]
            assert cell["per_split"] == [saved["test_rand"]]
            assert cell["chosen"] == [{"lam_cov": saved["lam_cov"],
                                       "lam_int": saved["lam_int"], "k": 3}]

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "dataset": {"csv": "x", "label_column": 0},
                                   "methods": ["euclidean"], "junk": True}))
        assert main(["benchmark", "--config", str(bad)]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("level, shown", [("WARNING", True), ("error", False)])
    def test_log_level_filters_the_svm_cap_warning(self, tmp_path, level, shown):
        path, _ = minimal_config(tmp_path, methods=["mkl_baseline"], grids={"C": [1.0]})
        capped = ("import sys\n"
                  "from glmetric import cli, kernel_mkl\n"
                  "kernel_mkl.SVM_MAX_ITER = 5\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", capped, "--log-level", level,
                               "benchmark", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert ("SVM solver hit the iteration cap" in proc.stderr) == shown

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "glmetric.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "benchmark" in proc.stdout
