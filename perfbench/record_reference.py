"""Record the reference cells of a workload: every (split, method) value and
chosen hyperparameters its seeds can reach, for exact comparison in run.py.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py density_iris [more workloads ...]

Prints each split's wall time; writes perfbench/reference/<workload>.json.
"""
import json
import sys

import run


def record(name):
    config = run.WORKLOADS[name]
    raw = run.load_raw_config(config)
    cli = run.import_glmetric()
    pool = int(raw["split"]["n_repeats"])
    cells = {}
    offsets = run.SAMPLE_SEEDS if "synthetic" in raw["dataset"] else 1
    for offset in range(offsets):
        plan = run.split_plan(raw, offset)
        for _ in range(pool):
            ds_seed, split_seed = next(plan)
            wall, split_cells = run.run_split(cli, raw, ds_seed, split_seed,
                                              run.OUT_DIR / name)
            failed = [m for m, c in split_cells.items() if c["kind"] == "failed"]
            if failed:
                raise SystemExit(f"{name} {ds_seed} {split_seed}: failed cells {failed}")
            cells[run.cell_key(ds_seed, split_seed)] = split_cells
            print(f"{name} dataset_seed={ds_seed} split_seed={split_seed} wall_s={wall:.3f}",
                  flush=True)
    path = run.BENCH / "reference" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": name, "config": config, "cells": cells},
                  f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        record(arg)
