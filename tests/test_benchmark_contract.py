"""The names the benchmark's layer trace patches must exist in barrierpd.

perfbench/spans.py looks up every entry of PATCH_POINTS with getattr and no
default on each benchmark run, traced or not, so removing or renaming one of
them aborts the benchmark.  perfbench's own self-tests are not part of this
suite; this test keeps the contract under the tier-1 run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

from barrierpd.jordan import BlockConeVector
from barrierpd.pedi import SaddleProblem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_patch_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses in the module resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.PATCH_POINTS


def test_patch_points_exist():
    points = load_patch_points()
    assert points
    missing = [f"{m}.{a}" for m, a, _, _ in points if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_from_arrays_is_a_classmethod():
    assert isinstance(BlockConeVector.__dict__["from_arrays"], classmethod)


def test_saddle_problem_operator_fields():
    names = {f.name for f in dataclasses.fields(SaddleProblem)}
    assert {"apply_K", "apply_K_adjoint", "prox_G"} <= names
