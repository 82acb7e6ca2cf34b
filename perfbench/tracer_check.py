"""Self-check of the benchmark tracer.

Run from the repository root (the file is named so that the library's own
test run does not collect it; it runs one traced split per workload):

    python3 -m pytest perfbench/tracer_check.py -q
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
from tracer import TRACED, Tracer  # noqa: E402

cli = run.import_glmetric()
os.chdir(run.ROOT)

import numpy as np  # noqa: E402
import glmetric  # noqa: E402
from glmetric import _lloyd, classify, kernel_mkl, unsupervised  # noqa: E402
from glmetric.dataset import LabeledDataset, SplitSpec, split  # noqa: E402
from glmetric.local_metric import MetricMatrix  # noqa: E402


def glmetric_modules():
    return [m for n, m in sys.modules.items() if n == "glmetric" or n.startswith("glmetric.")]


def original_bindings():
    """(owner, key, object) for every name of a traced object in any glmetric namespace."""
    out = []
    for module, attr in TRACED:
        home = sys.modules[f"glmetric.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            out.append((cls, method, cls.__dict__[method]))
            continue
        obj = getattr(home, attr)
        for mod in glmetric_modules():
            out.extend((mod, key, obj) for key, value in vars(mod).items() if value is obj)
    return out


def bound_names(obj):
    return {f"{mod.__name__}.{key}" for mod in glmetric_modules()
            for key, value in vars(mod).items() if value is obj}


def assert_restored(bindings):
    for owner, key, obj in bindings:
        current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        assert current is obj, f"{owner.__name__}.{key} still wrapped"


def test_every_namespace_binding_is_wrapped_then_restored():
    before = original_bindings()
    expected = {
        kernel_mkl.svm_solve: {"glmetric.kernel_mkl.svm_solve", "glmetric.svm_solve"},
        _lloyd.lloyd: {"glmetric._lloyd.lloyd", "glmetric.unsupervised.lloyd"},
        classify.interpolate_with_euclidean: {
            "glmetric.local_metric.interpolate_with_euclidean",
            "glmetric.classify.interpolate_with_euclidean",
            "glmetric.unsupervised.interpolate_with_euclidean",
            "glmetric.interpolate_with_euclidean"},
    }
    for obj, names in expected.items():
        assert names <= bound_names(obj)
    with Tracer() as tracer:
        wrapped = {(id(owner), key) for owner, key, _ in tracer.bindings}
        for owner, key, obj in before:
            assert (id(owner), key) in wrapped, f"{owner.__name__}.{key} not wrapped"
            current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            assert current is not obj
    assert_restored(before)


def small_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), n // 3)
    x = rng.standard_normal((n, 3)) + 2.5 * np.eye(3)[labels]
    return LabeledDataset(x, labels, 3)


def test_calls_recorded_through_each_binding_namespace():
    data = small_dataset()
    before = original_bindings()
    with Tracer() as tracer:
        # svm_solve through mkl_train's module globals
        bank = kernel_mkl.build_kernel_bank([MetricMatrix.identity(3)], data.features, (1.0, 4.0))
        grams = [kernel_mkl.gram_matrix(bk, data.features) for bk in bank]
        kernel_mkl.mkl_train(grams, np.where(data.labels == 0, 1.0, -1.0), 1.0)
        assert tracer.calls["kernel_mkl.svm_solve"] >= 1
        assert tracer.counters["kernel_mkl.svm_solve.iters"] >= 1

        # lloyd through lloyd_best_of and through unsupervised._warm_kmeans
        _lloyd.lloyd_best_of(data.features, 3, np.random.default_rng(0), restarts=2)
        assert tracer.calls["lloyd.lloyd"] == 2
        unsupervised._warm_kmeans(data.features, 3, MetricMatrix.identity(3),
                                  data.features[:3])
        assert tracer.calls["lloyd.lloyd"] == 3

        # interpolate_with_euclidean through classify and through unsupervised
        train, validation, test = split(data, SplitSpec(seed=1))
        classify.tune_and_test("glm_int", train, validation, test,
                               k_grid=(1,), lam_grid=(0.5,))
        through_classify = tracer.calls["local_metric.interpolate_with_euclidean"]
        assert through_classify > 0
        assert tracer.calls["classify.tune_and_test.glm_int"] == 1
        unsupervised.iterative_metric_kmeans(data.features, 3, outer_iters=1,
                                             lam_int=0.5, restarts=1)
        assert tracer.calls["local_metric.interpolate_with_euclidean"] > through_classify

        # the package root binding is wrapped as well
        glmetric.rand_score(data.labels, data.labels)
        assert tracer.calls["unsupervised.rand_score"] == 1
    assert_restored(before)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_coverage_and_layer_placement(name):
    raw = run.load_raw_config(run.WORKLOADS[name])
    reference = run.load_reference(name)
    ds_seed, split_seed = next(run.split_plan(raw, 0))
    before = original_bindings()
    tracer, traced = run.run_traced(cli, raw, [(ds_seed, split_seed, None)],
                                    run.OUT_DIR / name)
    assert_restored(before)
    assert run.check_cells(name, traced["splits"], reference)[1] == 0
    metrics = run.traced_metrics(tracer, traced, traced)
    assert metrics["trace.coverage"]["value"] >= 0.95

    self_s = tracer.self_s
    total = sum(self_s.values())
    mkl = sum(v for k, v in self_s.items() if k.startswith("kernel_mkl."))
    if name == "mkl_3normal":
        assert mkl > 0.5 * total
    else:
        assert mkl == 0.0
    density_only = ("global_metric.density_weighted_combination",
                    "global_metric.select_kde_bandwidth")
    for span in density_only:
        assert (tracer.calls[span] > 0) == (name == "density_iris")
    with open(run.ROOT / "BENCHMARK.json") as f:
        per_layer = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(metrics) == per_layer
