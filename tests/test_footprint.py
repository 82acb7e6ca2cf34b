"""Importing glmetric loads only what every run uses: scipy waits for Isomap.

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
