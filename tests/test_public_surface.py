"""The names the package exports, and the names the README lists as removed."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import glmetric
from glmetric import classify, kernel_mkl

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
            ("local_metric", "SpectralSolution")} <= set(removed)
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
