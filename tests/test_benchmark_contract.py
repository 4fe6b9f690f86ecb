"""The names the benchmark's layer trace patches must exist in barrierpd.

perfbench/spans.py looks up every entry of PATCH_POINTS with getattr and no
default on each benchmark run, traced or not, so removing or renaming one of
them aborts the benchmark.  The solvers must also keep calling through those
names (and through the SaddleProblem and DenoiseProblem.project_dual
attributes the trace wraps), or the per-layer metrics silently read zero.
perfbench's own self-tests are not part of this suite; these tests keep the
contract under the tier-1 run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from barrierpd import cli
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.jordan import BlockConeVector
from barrierpd.pedi import SaddleProblem, StepConfig, pedi_run
from barrierpd.pgm import write_pgm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses in the module resolve their module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_patch_points_exist():
    points = load_spans().PATCH_POINTS
    assert points
    missing = [f"{m}.{a}" for m, a, _, _ in points if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_from_arrays_is_a_classmethod():
    assert isinstance(BlockConeVector.__dict__["from_arrays"], classmethod)


def test_saddle_problem_operator_fields():
    names = {f.name for f in dataclasses.fields(SaddleProblem)}
    assert {"apply_K", "apply_K_adjoint", "prox_G"} <= names


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_trace_sees_one_operator_call_per_iteration(variant):
    spans = load_spans()
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(8, 8), 6.15, 1), 0.5, variant)
    sp = dp.saddle_problem()
    iters = 7
    tracer = spans.Tracer()

    def ignore(*_):
        pass

    with spans.instrumented(tracer, {}):
        for rule in ("general", "soc"):
            with tracer.solver_run("pedi.run", rule):
                cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
                pedi_run(tracer.wrap_saddle(sp), cfg, iters, step_rule=rule, callback=ignore)
        with tracer.solver_run("baselines.run", "pdhgm"), tracer.wrap_project_dual(dp):
            pdhgm_run(dp, BaselineConfig.default_for(dp, iters), callback=ignore)
        with tracer.solver_run("baselines.run", "dual-fb"), tracer.wrap_project_dual(dp):
            dual_fb_run(dp, iters, callback=ignore)
    calls = {key: row[0] for key, row in tracer.layer_totals().items()}
    for rule in ("general", "soc"):
        for name in ("imaging.apply_K", "imaging.apply_K_adjoint", "pedi.step_rule"):
            assert calls.get((name, rule)) == iters, name
        # the prox and ||x||^2 ride in apply_K_adjoint's call
        assert calls.get(("imaging.prox_G", rule), 0) == 0
        # only the result's y is built; the callback gets a view
        assert calls.get(("jordan.from_arrays", rule)) == 1
    for tag in ("pdhgm", "dual-fb"):
        assert calls.get(("imaging.project_dual", tag)) == iters, tag
        # the ascent p + s D v rides in project_dual's call, and so does the
        # primal step: pdhgm's prox and extrapolation, dual_fb's x = z - D* p
        assert calls.get(("imaging.grad", tag), 0) == 0
        assert calls.get(("imaging.grad_adjoint", tag), 0) == 0


def test_traced_cli_run_sees_each_solver_once(tmp_path):
    # perfbench's traced cli-tv-64 pass reaches the solvers only through the
    # CLI's adapters and perfbench's wrappers of barrierpd.cli's solver names
    spans = load_spans()
    write_pgm(synthetic_image(8, 8), tmp_path / "img.pgm")
    base = ["--image", str(tmp_path / "img.pgm"), "--variant", "tv", "--alpha", "0.5", "--sigma", "6.15",
            "--seed", "1", "--out", str(tmp_path)]
    runner = CliRunner()
    res = runner.invoke(cli.main, ["make-target", *base, "--target-iters", "20000"])
    assert res.exit_code == 0, res.output
    tracer, pedi_results = spans.Tracer(), {}
    with spans.instrumented(tracer, pedi_results):
        res = runner.invoke(cli.main, ["run", *base, "--target", "load", "--solvers", ",".join(cli.SOLVERS),
                                       "--iters", "5"])
    assert res.exit_code == 0, res.output
    roots = sorted((sp.name, sp.tag) for sp in tracer.spans if sp.id == sp.run)
    assert roots == [("baselines.run", "dual-fb"), ("baselines.run", "pdhgm"),
                     ("pedi.run", "general"), ("pedi.run", "soc")]
    calls = {key: row[0] for key, row in tracer.layer_totals().items()}
    for tag in ("general", "soc", "pdhgm", "dual-fb"):
        assert calls.get(("cli.metrics", tag)) == 5, tag
    for rule in ("general", "soc"):
        assert calls.get(("jordan.from_arrays", rule)) == 1, rule
    assert sorted(pedi_results) == ["general", "soc"]
