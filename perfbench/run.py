"""glmetric benchmark: one workload, run through the public config entry points.

Run from the repository root:

    python3 perfbench/run.py --workload classify_3normal --seed 0 --seconds 20 --trace 0

Each workload is a shipped config. A split is one `run_experiment` call with
`n_repeats = 1`, so its wall time is exact; the loop is closed (the next
split starts when the previous one returns) and stops at the first split
boundary after `--seconds`. Every (split, method) cell is compared exactly
with the reference values recorded in `perfbench/reference/`.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` one warm-up split runs first, then the splits of the first half
of the time budget run once untraced and again under the tracer; the last
line carries the per-layer metrics, the trace coverage and the tracing
overhead.
"""
import os

# One BLAS thread on every commit: on two cores OpenBLAS with two threads was
# both slower and noisier for these workloads. Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNTER_UNITS, Tracer, span_names

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
P90_TAIL = 10  # split_s_p90 needs this many splits beyond the percentile


# Each workload is a shipped config. Split seeds cycle through the config's
# own base_seed + r for r < n_repeats; synthetic workloads also cycle the
# sample seed through SAMPLE_SEEDS values from the config's. So every cell a
# workload seed can reach has a recorded reference.
WORKLOADS = {
    "classify_3normal": "configs/three_normal_benchmark.json",
    "mkl_3normal": "configs/three_normal_mkl.json",
    "cluster_iris": "configs/iris_clustering.json",
    "density_iris": "configs/iris_benchmark.json",
}
SAMPLE_SEEDS = 2


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs to run."""


def load_raw_config(config):
    path = ROOT / config
    if not path.is_file():
        raise SetupError(f"missing config {config}")
    with open(path) as f:
        return json.load(f)


def import_glmetric():
    if not (ROOT / "src" / "glmetric" / "__init__.py").is_file():
        raise SetupError("missing src/glmetric in the checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import glmetric.cli
    return glmetric.cli


def split_plan(raw, seed):
    """Endless (dataset seed, split seed) sequence for a workload seed.

    Seed 0 reproduces the shipped config: sample seed as configured, split
    seeds base_seed, base_seed + 1, ... in order.
    """
    pool = int(raw["split"]["n_repeats"])
    base = int(raw["split"]["base_seed"])
    ds_seed = (int(raw["dataset"]["seed"]) + seed % SAMPLE_SEEDS
               if "synthetic" in raw["dataset"] else None)
    r = 0
    while True:
        yield ds_seed, base + (seed + r) % pool
        r += 1


def cell_key(ds_seed, split_seed):
    return str(split_seed) if ds_seed is None else f"{ds_seed}/{split_seed}"


def split_config(cli, raw, ds_seed, split_seed):
    raw = json.loads(json.dumps(raw))
    raw["split"]["n_repeats"] = 1
    raw["split"]["base_seed"] = split_seed
    if ds_seed is not None:
        raw["dataset"]["seed"] = ds_seed
    raw.pop("output_dir", None)
    return cli.parse_experiment_config(raw)


def run_split(cli, raw, ds_seed, split_seed, out_dir):
    """Time one split; return (wall seconds, {method: cell})."""
    t0 = time.perf_counter()
    cfg = split_config(cli, raw, ds_seed, split_seed)
    report, _ = cli.run_experiment(cfg, out_dir, threads=1)
    wall = time.perf_counter() - t0
    cells = {}
    for method, entry in report["methods"].items():
        if entry["failures"]:
            cells[method] = {"kind": "failed", "error": entry["failures"][0]["error"]}
        else:
            cells[method] = {"kind": entry["kind"], "value": entry["per_split"][0],
                             "chosen": entry["chosen"][0]}
    # through JSON, so cells compare exactly like the stored references
    return wall, json.loads(json.dumps(cells))


def run_loop(cli, raw, plan, seconds, out_dir):
    """Closed loop over the plan until `seconds` have passed (at least one split)."""
    splits, walls = [], []
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    for ds_seed, split_seed in plan:
        wall, cells = run_split(cli, raw, ds_seed, split_seed, out_dir)
        splits.append((ds_seed, split_seed, cells))
        walls.append(wall)
        if time.perf_counter() - t_start >= seconds:
            break
    return {"splits": splits, "walls": walls,
            "wall": time.perf_counter() - t_start,
            "cpu": time.process_time() - cpu0}


def load_reference(name):
    path = BENCH / "reference" / f"{name}.json"
    if not path.is_file():
        raise SetupError(f"missing reference {path.relative_to(ROOT)}")
    with open(path) as f:
        return json.load(f)["cells"]


def check_cells(name, splits, reference):
    """Return (cells attempted, cells failed); print every failing cell."""
    attempted = failed = 0
    for ds_seed, split_seed, cells in splits:
        expected = reference.get(cell_key(ds_seed, split_seed), {})
        for method in sorted(set(cells) | set(expected)):
            attempted += 1
            got, want = cells.get(method), expected.get(method)
            if got is not None and got["kind"] != "failed" and got == want:
                continue
            failed += 1
            print(f"cell failed: workload={name} dataset_seed={ds_seed} "
                  f"split_seed={split_seed} method={method} "
                  f"got={json.dumps(got)} expected={json.dumps(want)}")
    return attempted, failed


def measure_setup(config, ds_seed):
    """Median wall time of fresh interpreters importing glmetric, parsing the
    config and loading its dataset with the public loader."""
    args = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT),
            config, json.dumps(ds_seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        out = subprocess.run(args, check=True, capture_output=True, text=True,
                             cwd=ROOT, timeout=60)
        # CLOCK_MONOTONIC is shared by all processes, so the probe's reading
        # marks the end of set-up without counting interpreter teardown.
        samples.append(float(out.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(samples)


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                out[Path(path).name] = int(fn())
                break
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_facts(seed, plan_head):
    import numpy as np
    import scipy
    cpu_model = None
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "pinned_threads": int(BLAS_THREADS),
                     "reported_threads": _blas_threads()},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": _git_commit(),
            "workload_seed": seed,
            "first_split": {"dataset_seed": plan_head[0], "split_seed": plan_head[1]}}


def end_to_end(run, setup_s):
    n = len(run["walls"])
    return {
        "splits_per_s": {"value": n / run["wall"], "unit": "1/s"},
        "split_s_p50": {"value": statistics.median(run["walls"]), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "cpu_s_per_split": {"value": run["cpu"] / n, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB"},
    }


def split_p90(walls):
    """90th-percentile split time, or None when fewer than ten splits lie beyond it."""
    if len(walls) * 0.1 < P90_TAIL:
        return None
    return statistics.quantiles(walls, n=10)[-1]


def traced_metrics(tracer, untraced, traced):
    n = len(traced["walls"])
    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = {"value": tracer.calls[name] / n, "unit": "calls/split"}
        metrics[f"{name}.self_s"] = {"value": tracer.self_s[name] / n, "unit": "s/split"}
    for key, value in tracer.counters.items():
        metrics[key] = {"value": value / n, "unit": COUNTER_UNITS[key]}
    # each mkl_train makes one initial solve; every later one is a candidate step
    candidates = (tracer.calls["kernel_mkl.svm_solve"]
                  - tracer.calls["kernel_mkl.mkl_train"])
    accepted = tracer.counters["kernel_mkl.mkl_train.accepted_steps"]
    metrics["kernel_mkl.mkl_train.accept_ratio"] = {
        "value": accepted / candidates if candidates else 0.0, "unit": "ratio"}
    roots = [r for r in tracer.roots if r[0] == "cli.run_experiment"]
    coverage = [covered / wall for (_, _, covered), wall in zip(roots, traced["walls"])]
    metrics["trace.coverage"] = {"value": min(coverage), "unit": "ratio"}
    metrics["trace.overhead_frac"] = {
        "value": untraced["wall"] / traced["wall"] - 1.0, "unit": "ratio"}
    metrics["trace.splits"] = {"value": n, "unit": "count"}
    return metrics


def run_traced(cli, raw, splits, out_dir):
    """Re-run the given splits under the tracer."""
    with Tracer() as tracer:
        run = run_loop(cli, raw, ((d, s) for d, s, _ in splits), float("inf"), out_dir)
    return tracer, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = WORKLOADS[args.workload]
    os.chdir(ROOT)  # config dataset paths are relative to the repository root
    try:
        raw = load_raw_config(config)
        reference = load_reference(args.workload)
        cli = import_glmetric()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = OUT_DIR / args.workload
    plan_head = next(split_plan(raw, args.seed))
    print(json.dumps({"machine": machine_facts(args.seed, plan_head)}), flush=True)

    if args.trace:
        plan = split_plan(raw, args.seed)
        # one untimed split first, so lazy set-up inside numpy and scipy does
        # not land on the untraced side of the overhead comparison
        warm = run_loop(cli, raw, plan, 0.0, out_dir)
        untraced = run_loop(cli, raw, plan, args.seconds / 2, out_dir)
        tracer, traced = run_traced(cli, raw, untraced["splits"], out_dir)
        splits = warm["splits"] + untraced["splits"] + traced["splits"]
        metrics = traced_metrics(tracer, untraced, traced)
    else:
        setup_s = measure_setup(config, plan_head[0])
        run = run_loop(cli, raw, split_plan(raw, args.seed), args.seconds, out_dir)
        splits = run["splits"]
        metrics = end_to_end(run, setup_s)
    attempted, failed = check_cells(args.workload, splits, reference)
    if not args.trace:
        p90 = split_p90(run["walls"])
        print(json.dumps({"info": {
            "splits": len(run["walls"]), "failed_cell_frac": failed / attempted,
            "split_s_p90": p90,
            "split_s_p90_samples": len(run["walls"]) if p90 is not None else None}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
