"""Importing glmetric loads only what every run uses: scipy waits for Isomap.
Each distance layer peaks at about one distance matrix.

Each check runs in a child interpreter, so the modules and memory of the
test process itself do not count.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from glmetric.local_metric import MetricMatrix
from glmetric.unsupervised import isomap_embed

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("scipy.sparse", "scipy.linalg")

CLI_CHILD = f"""
import json, resource, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import glmetric.cli
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
heavy = sorted(m for m in sys.modules if m.startswith({HEAVY!r}))

import numpy as np
from glmetric.local_metric import MetricMatrix
from glmetric.unsupervised import isomap_embed
x = np.random.default_rng(0).normal(size=(40, 3))
emb = isomap_embed(x, MetricMatrix.identity(3), 6, 2)
print(json.dumps({{"peak_kib": peak_kib, "heavy": heavy,
                  "sparse_after": "scipy.sparse.csgraph" in sys.modules,
                  "residual_variance": emb.residual_variance}}))
"""

NUMPY_CHILD = """
import resource
import numpy
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


# Linux keeps ru_maxrss across execve: a child started straight from this
# process would report at least the memory of the test process itself. So
# each child is started from a bare interpreter, whose own few MiB are all
# it can inherit.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def run_child(code):
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-c", code],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def cli_child():
    return json.loads(run_child(CLI_CHILD))


def test_cli_import_loads_no_scipy_sparse_or_linalg(cli_child):
    assert cli_child["heavy"] == []
    # the Isomap path still loads scipy on first use, and gives the same embedding
    assert cli_child["sparse_after"]
    x = np.random.default_rng(0).normal(size=(40, 3))
    emb = isomap_embed(x, MetricMatrix.identity(3), 6, 2)
    assert cli_child["residual_variance"] == emb.residual_variance


def test_cli_import_peak_rss_near_bare_numpy(cli_child):
    numpy_kib = int(run_child(NUMPY_CHILD))
    assert cli_child["peak_kib"] - numpy_kib <= 10 * 1024


# VmHWM, unlike ru_maxrss, starts afresh at execve, so a direct child reads
# its own peak. The child times its layer's peak over its resident size just
# before the call, in units of the layer's one (nq, n) float distance matrix.
LAYER_CHILD = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
import numpy as np
from glmetric._linalg import median_pair_sq_dist, pairwise_sq_dists
from glmetric.classify import margin_candidates, tune_and_test
from glmetric.dataset import LabeledDataset
from glmetric.local_metric import MetricMatrix

def kib(key):
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith(key + ":"))

n, dim, nq = 3000, 16, 1000
rng = np.random.default_rng(0)
x = rng.normal(size=(n, dim))
train = LabeledDataset(x, np.arange(n) % 3, 3)
metric = MetricMatrix.identity(dim)
val = LabeledDataset(rng.normal(size=(nq, dim)), np.arange(nq) % 3, 3)
test = LabeledDataset(rng.normal(size=(10, dim)), np.arange(10) % 3, 3)
run, rows = {{
    "pairwise_sq_dists": (lambda: pairwise_sq_dists(x, x), n),
    "margin_candidates": (lambda: margin_candidates(train, metric), n),
    "median_pair_sq_dist": (lambda: median_pair_sq_dist(x), n),
    "knn_tune_and_test": (lambda: tune_and_test("knn", train, val, test, metric=metric), nq),
}}[sys.argv[1]]
base = kib("VmRSS")
run()
print(json.dumps((kib("VmHWM") - base) * 1024 / (rows * n * 8)))
"""


@pytest.mark.parametrize("layer, bound", [
    ("pairwise_sq_dists", 1.25),
    ("margin_candidates", 1.5),  # plus two n x n boolean class masks
    ("median_pair_sq_dist", 1.8),  # plus the pair mask and the half-size pair values
    ("knn_tune_and_test", 1.4),
])
def test_distance_layer_peak_is_about_one_matrix(layer, bound):
    """n = 3000, D = 16 (1000 kNN queries): the whole-matrix forms these
    replaced peaked at 2.0, 2.3, 2.5 and 2.1 matrices."""
    proc = subprocess.run([sys.executable, "-c", LAYER_CHILD, layer], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) <= bound
