"""Generated bad input: one value of a working command, replaced from a typed pool.

Each example takes a config key from cli.CONFIG_KEYS or cli.METHODS, or a
flag of a subcommand from build_parser(), so a new key or flag is fuzzed
without a test edit. It runs the command in process on a 30-row CSV, and the
command must end in one of two ways:

- exit 0 or 2, with no traceback on stderr and one `error:` line on exit 2;
- exit 1, with a report.json in which every cell failed.
"""
import argparse
import csv
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glmetric import cli
from glmetric.local_metric import MetricMatrix

ROOT = Path(__file__).resolve().parents[1]

POOL = [None, True, False, "", "x", ".", [], {}, -1, 0, 1e-300, 1e300, 10 ** 6,
        [1], [0.5, 0.5], ["x"], [0.0, 1.0, 1e300]]
FLAG_POOL = ["", "x", ".", "-1", "0", "2.5", "1e-300", "1e300", "nan", "1000000"]
# a large integer here asks for work that runs past a minute, or for memory
# that grows with it (the synthetic dim), by design
WORK = {("synthetic", "n"), ("synthetic", "dim"), ("split", "n_repeats"),
        ("cluster_uni", "outer_iters"), ("mkl_baseline", "max_train"),
        ("mkl_metric", "max_train"), ("mkl", "--n"), ("mkl", "--repeats")}

CSV_FLAGS = ["--data", "data.csv", "--label-column", "label", "--has-header"]
BASE_ARGV = {
    "benchmark": ["--config", "config.json"],
    "fit-metric": CSV_FLAGS,
    "classify": ["--metric", "metric.json", "--train", "data.csv", "--test", "data.csv",
                 "--label-column", "label", "--has-header"],
    "mkl": [*CSV_FLAGS, "--n", "60", "--repeats", "1"],
    "cluster": CSV_FLAGS,
    "embed": CSV_FLAGS,
    "rank": ["ranked.json"],
}


def base_config(kind):
    """A config that runs in well under a second on the 30-row CSV."""
    dataset = ({"synthetic": "three_normal", "n": 60, "dim": 3} if kind == "synthetic"
               else {"csv": "data.csv", "label_column": "label", "has_header": True})
    return {"version": 1, "dataset": dataset, "preprocess": {"scale": True},
            "split": {"ratios": [0.6, 0.2, 0.2], "n_repeats": 1, "base_seed": 0,
                      "stratified": True},
            "methods": ["euclidean", "m_uni"], "lam_cov": 0.01, "output_dir": "out",
            "grids": {"k": [1, 3], "lam_int": [0.5], "beta": [1.0], "C": [1.0],
                      "lam_cov": [0.01], "cluster_lam_int": [0.5]}}


def config_with(section, key, value):
    """base_config with one key of a CONFIG_KEYS section or a METHODS entry set to value."""
    cfg = base_config(section)
    if section in cli.METHODS:
        cfg["methods"] = [{"name": section, key: value}]
    elif section == "config":
        cfg[key] = value
    else:
        cfg["dataset" if section in ("csv", "synthetic") else section][key] = value
    return cfg


def flag_actions():
    """(subcommand, action) of each flag and positional, "" for the top-level parser."""
    def settable(parser):
        return [a for a in parser._actions
                if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return ([("", a) for a in settable(parser)]
            + [(name, a) for name, p in sub.choices.items() for a in settable(p)])


def argv_with(command, action, text):
    """The base argv of command with action's value replaced by text; a switch
    flips instead. A top-level flag goes before the rank command."""
    if not command:
        return [f"{action.option_strings[0]}={text}", "rank", *BASE_ARGV["rank"]]
    argv = [command, *BASE_ARGV[command]]
    if not action.option_strings:  # the positional report paths of rank
        return [command, text]
    if action.nargs == 0:
        kept = [arg for arg in argv if arg not in action.option_strings]
        return kept if len(kept) < len(argv) else [*argv, action.option_strings[-1]]
    return [*argv, f"{action.option_strings[0]}={text}"]


def draws():
    keys = ([("config", section, key) for section, keys in cli.CONFIG_KEYS.items()
             for key in keys]
            + [("config", name, key) for name, (_, keys) in cli.METHODS.items() for key in keys])
    flags = [("flag", command, action) for command, action in flag_actions()]

    def with_value(draw):
        kind, where, what = draw
        name = what if kind == "config" else (what.option_strings or [what.dest])[0]
        large = (where, name) in WORK
        pool = POOL if kind == "config" else FLAG_POOL
        return st.tuples(st.just(draw), st.sampled_from(
            [v for v in pool if not (large and v in (10 ** 6, "1000000"))]))

    return st.sampled_from(keys + flags).flatmap(with_value)


def write_inputs(work):
    with open(ROOT / "data" / "iris.csv", newline="") as f:
        rows = list(csv.reader(f))
    with open(work / "data.csv", "w", newline="") as f:  # 10 rows of each class
        csv.writer(f).writerows([rows[0]] + [rows[1 + i] for i in (*range(10), *range(50, 60),
                                                                   *range(100, 110))])
    (work / "metric.json").write_text(json.dumps({"metric": MetricMatrix.identity(4).to_dict()}))
    (work / "ranked.json").write_text(json.dumps({"methods": {"a": {"kind": "error",
                                                                    "mean": 0.1}}}))
    (work / "config.json").write_text(json.dumps(base_config("csv")))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draws())
def test_one_bad_value_ends_cleanly(tmp_path, monkeypatch, capsys, draw):
    (kind, where, what), value = draw
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    write_inputs(work)
    if kind == "config":
        (work / "config.json").write_text(json.dumps(config_with(where, what, value)))
        argv = ["benchmark", "--config", "config.json"]
    else:
        argv = argv_with(where, what, value)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own exit, as for an unknown flag
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        (report,) = [json.loads(p.read_text()) for p in work.rglob("report.json")]
        assert all("mean" not in entry and entry["failures"]
                   for entry in report["methods"].values()), argv
    else:
        assert code in (0, 2), (argv, code)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
