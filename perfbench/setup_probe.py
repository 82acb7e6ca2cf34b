"""Set-up probe: import glmetric, parse a config and load its dataset.

Usage: python3 setup_probe.py <repo root> <config path> <sample seed or null>

Prints the CLOCK_MONOTONIC reading taken when the dataset is loaded; the
caller subtracts its own reading from before the interpreter started.
"""
import json
import sys
import time

root, config_path, ds_seed = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, f"{root}/src")

import glmetric
from glmetric.cli import parse_experiment_config

with open(config_path) as f:
    cfg = parse_experiment_config(json.load(f))
d = cfg.dataset
if "csv" in d:
    glmetric.load_csv(d["csv"], d["label_column"], d.get("has_header", False))
else:
    preset = glmetric.three_normal_preset(scale=d.get("scale", 3.0),
                                          elongation=d.get("elongation", 2.5),
                                          dim=d.get("dim", 10))
    glmetric.make_synthetic_mixture(preset, int(d.get("n", 1200)), ds_seed)
print(time.monotonic())
