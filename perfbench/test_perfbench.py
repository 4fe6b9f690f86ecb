"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.bootstrap()

from catalog import END_TO_END, PER_LAYER, SOLVERS, WORKLOAD_NAMES  # noqa: E402
from spans import Span, Tracer, covered_ns, instrumented, self_times, subtree_self_sum, wrapped_points  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, _unwrapped, build, run_workload  # noqa: E402


def tiny(name: str):
    """The workload at 16x16."""
    return dataclasses.replace(WORKLOADS[name], n=16)


@pytest.fixture(autouse=True)
def gap_bounds(monkeypatch):
    """Gap bounds of 0 dB, which every solver meets at 16x16."""
    bounds = {s: 0.0 for s in SOLVERS}
    monkeypatch.setattr(workloads, "GAP_BOUND_DB", bounds)
    return bounds


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    out = run_workload(tiny(name), seed=3, seconds=0.0, trace=trace, workdir=tmp_path / "work")
    out.values["peak_rss_mb"] = 1.0
    line = bench.result_line(out, trace)
    assert out.failures == []
    # result_line counts each metric of BENCHMARK.json that the run did not produce as a failure
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(expected)
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert not (tmp_path / "work").exists()
    assert wrapped_points() == []


def test_failed_checks_are_counted(tmp_path, gap_bounds):
    gap_bounds.update({s: -400.0 for s in SOLVERS})
    out = run_workload(tiny("tv-256"), seed=3, seconds=0.0, trace=False, workdir=tmp_path / "work")
    assert len(out.failures) == 2 * len(SOLVERS)
    assert out.values["failed_frac"] == 1.0


def test_timings_are_scaled_by_the_kernel_times_near_each_operation():
    out = workloads.Outcome(refs=[(1.0, 100.0), (2.0, 200.0), (3.0, 400.0)])
    out.op("m", 1.5, 2.5, 300.0)  # kernel timings at 1, 2 and 3: median 200
    out.op("m", 3.5, 4.0, 400.0)  # only the one at 3 is near
    out.op("m", 0.2, 0.5, 400.0)  # only the one at 1 is near
    assert out.scaled("m", ref_us=100.0) == pytest.approx(100.0 * (1.5 + 1.0 + 4.0) / 3)


def test_self_time_with_partial_and_overlapping_children():
    # parent [0, 100]; children [10, 30] and [25, 50] overlap; [90, 120]
    # covers only the last 10 ns of the parent; a grandchild sits in [10, 30]
    spans = [
        Span(0, -1, 0, "root", None, 0, 100),
        Span(1, 0, 0, "a", None, 10, 30),
        Span(2, 0, 0, "b", None, 25, 50),
        Span(3, 0, 0, "c", None, 90, 120),
        Span(4, 1, 0, "d", None, 12, 20),
    ]
    assert covered_ns(0, 100, [(10, 30), (25, 50), (90, 120)]) == 50
    assert self_times(spans) == [50, 12, 25, 30, 8]


def test_self_times_add_up_for_nested_spans():
    t = Tracer()
    with t.solver_run("root", "x") as root:
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    selfs = self_times(t.spans)
    assert subtree_self_sum(t.spans, selfs, root.id) == root.end - root.start
    assert t.unbalanced_runs() == []
    assert {sp.tag for sp in t.spans} == {"x"}


def test_wrappers_are_seen_while_traced_and_removed_after():
    from barrierpd import baselines, cli, pedi
    from barrierpd.jordan import BlockConeVector

    before = (baselines._grad, pedi.step_rule_soc, cli.metrics, cli.pedi_run, BlockConeVector.__dict__["from_arrays"])
    dp, _ = build(tiny("tv-256"), seed=3)
    assert _unwrapped(dp) == []
    t = Tracer()
    with instrumented(t, {}):
        with t.wrap_project_dual(dp):
            assert len(wrapped_points()) == 11
            assert any("project_dual" in p for p in _unwrapped(dp))
    assert _unwrapped(dp) == []
    after = (baselines._grad, pedi.step_rule_soc, cli.metrics, cli.pedi_run, BlockConeVector.__dict__["from_arrays"])
    assert after == before


def test_untraced_runs_see_no_wrapper(tmp_path, monkeypatch):
    seen = []
    real = workloads.wrapped_points

    def spy():
        found = real()
        seen.append(found)
        return found

    monkeypatch.setattr(workloads, "wrapped_points", spy)
    for name in ("tv-256", "cli-tv-64"):
        out = run_workload(tiny(name), seed=3, seconds=0.0, trace=False, workdir=tmp_path / name)
        assert out.failures == []
    assert seen and all(found == [] for found in seen)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tv-256", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
