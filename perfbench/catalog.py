"""Solver names and the metric lists, read from BENCHMARK.json."""

import json
from pathlib import Path

SOLVERS = ("pedi-general", "pedi-soc", "pdhgm", "dual-fb")
RULES = ("general", "soc")
BASELINES = ("pdhgm", "dual-fb")

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# Per-layer counts that mean "not reached" or "never" when they read -1.
NEVER = -1
