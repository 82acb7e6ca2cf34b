"""The names the package exports, and the names the README lists as removed."""
import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

import glmetric
from glmetric import classify, cli, global_metric, kernel_mkl
from glmetric.local_metric import MetricMatrix

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in Path(glmetric.__file__).parent.glob("*.py")}


def reexports():
    """(module, name) of every `from .module import name` in glmetric/__init__.py."""
    tree = ast.parse(Path(glmetric.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def removed_table():
    """(removed cell, replacement cell) of every row of the README's removed-names table."""
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| removed | replacement |"):].split("\n\n")[0]
    rows = [line.split(" | ") for line in table.splitlines()[2:]]
    return [(removed.lstrip("| "), replacement.rstrip(" |")) for removed, replacement in rows]


def dotted_names(cell):
    """(module, name) of each glmetric `module.name` or `Name` in backticks,
    calls cut off; a bare name belongs to the module named before it."""
    out, module = [], None
    for token in re.findall(r"`([^`]+)`", cell):
        for part in token.split("/"):
            match = re.match(r"(?:(\w+)\.)?(\w+)", part)
            module = match.group(1) or module
            if module in MODULES:
                out.append((module, match.group(2)))
    return out


def test_every_reexport_imports():
    names = reexports()
    assert len(names) > 30
    for module, name in names:
        assert getattr(glmetric, name) is getattr(importlib.import_module(f"glmetric.{module}"),
                                                  name)


def test_readme_removed_names_are_gone():
    rows = removed_table()
    removed = [pair for cell, _ in rows for pair in dotted_names(cell)]
    assert {("classify", "KnnConfig"), ("classify", "EnergyConfig"), ("classify", "evaluate_error"),
            ("local_metric", "SpectralSolution"), ("global_metric", "TransformFactor"),
            ("global_metric", "metric_sqrt_transform")} <= set(removed)
    for module, name in removed:
        assert not hasattr(importlib.import_module(f"glmetric.{module}"), name), (module, name)
        assert not hasattr(glmetric, name), name
    replacements = [pair for _, cell in rows for pair in dotted_names(cell)]
    assert ("classify", "knn_predict_batch") in replacements
    for module, name in replacements:
        assert hasattr(importlib.import_module(f"glmetric.{module}"), name), (module, name)


def test_direct_call_signatures():
    assert not hasattr(classify, "_vote_rows")
    assert list(inspect.signature(classify.knn_predict_batch).parameters) == [
        "train", "k", "metric", "queries"]
    assert list(inspect.signature(classify.energy_predict_batch).parameters) == [
        "train", "k", "margin", "metric", "queries"]
    assert str(inspect.signature(kernel_mkl.mkl_train)) == "(grams, y, c, memo=None)"
    assert (kernel_mkl.MKL_TOL, kernel_mkl.MKL_MAX_OUTER, kernel_mkl.SVM_TOL) == (1e-4, 50, 1e-4)
    assert kernel_mkl.SVM_MAX_ITER == 200000
    assert str(inspect.signature(kernel_mkl.svm_solve)) == "(k, y, c, reject_above=None)"
    assert str(inspect.signature(kernel_mkl.mkl_cell)) == (
        "(train, validation, test, metrics, c_grid)")
    assert glmetric.mkl_cell is kernel_mkl.mkl_cell
    bank_params = inspect.signature(kernel_mkl.build_kernel_bank).parameters
    assert list(bank_params) == ["metrics", "x_train", "tau_grid"]
    assert bank_params["tau_grid"].default is kernel_mkl.DEFAULT_TAU_GRID
    assert [f.name for f in dataclasses.fields(kernel_mkl.BaseKernel)] == ["metric", "sigma_sq"]
    assert str(inspect.signature(global_metric.density_weighted_combination)) == (
        "(train, validation, estimator_kind='kde', max_iter=20, lam_cov=0.001)")
    assert str(inspect.signature(MetricMatrix.identity)) == "(dim, degenerate=False)"


def unused_imports(path, exempt):
    """The names a module imports and never reads, apart from those in exempt."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # the names listed in __all__ count as read
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    return sorted(name for name in imported if name not in read | exempt)


def test_no_module_imports_a_name_it_never_uses():
    package, pairs = Path(glmetric.__file__).parent, reexports()
    unused = {path.name: unused_imports(path, {name for module, name in pairs
                                               if path.stem in ("__init__", module)})
              for path in sorted(package.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def shown_default(default):
    """A key's default as the README shows it; "" where the README says in words
    what the data or the run supplies."""
    if default is cli.REQUIRED:
        return "required"
    return "" if default is None else f"`{json.dumps(default)}`"


def test_readme_command_line_lists_every_method_and_config_key():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):text.index("## Demos")]
    rows = {line.split(" | ")[0].strip("|` "): line for line in section.splitlines()
            if line.startswith("| `")}
    assert set(cli.METHODS) <= set(rows)
    for name, (kind, keys) in cli.METHODS.items():
        assert f" | `{kind}` | " in rows[name], name
        for key, (default, rule) in keys.items():
            assert f"`{key}`: {rule[0]}, default {shown_default(default)}" in rows[name], (
                name, key)
    assert set(cli.CONFIG_KEYS) == {"config", "csv", "synthetic", "preprocess", "split", "grids"}
    for section_name, keys in cli.CONFIG_KEYS.items():  # each key's rule and default
        prefix = {"config": "", "csv": "dataset.", "synthetic": "dataset."}.get(
            section_name, f"{section_name}.")
        for key, (default, rule) in keys.items():
            assert f" | {rule[0]} | {shown_default(default)}" in rows[f"{prefix}{key}"], (
                section_name, key)
