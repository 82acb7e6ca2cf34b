"""Child Python processes that the tests start (demos, the CLI, footprint
probes) import glmetric from this source tree, installed or not."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
