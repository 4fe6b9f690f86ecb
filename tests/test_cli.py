import io
import itertools
import json
import math
import os
import re
import time

import click
import numpy as np
import pytest
from click.testing import CliRunner

from barrierpd import cli, kernels
from barrierpd.baselines import DUAL_FB_L, BaselineConfig, pdhgm_run
from barrierpd.cli import SOLVERS, main
from barrierpd.imaging import (
    DB_CLAMP,
    DenoiseProblem,
    IterationRecord,
    Target,
    _db,
    add_gaussian_noise,
    synthetic_image,
)
from barrierpd.jordan import BlockConeVector
from barrierpd.pgm import read_pgm, write_pgm

NUMPY = "numpy (selected by the test)"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    write_pgm(synthetic_image(16, 16), d / "img.pgm")
    return d


def invoke(args):
    result = CliRunner().invoke(main, args)
    return result


def base_args(workdir, extra):
    return [
        "--image", str(workdir / "img.pgm"),
        "--variant", "h1", "--alpha", "5", "--sigma", "6.15", "--seed", "7",
        "--out", str(workdir / "bench"),
    ] + extra


def strip_wall(text):
    lines = text.strip().splitlines()
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        out.append((parts[0], parts[2], parts[3], parts[4]))
    return out


def test_run_produces_csvs_and_sidecars(workdir):
    res = invoke(["run"] + base_args(workdir, [
        "--solvers", "pedi-general,pedi-soc,pdhgm,dual-fb",
        "--iters", "200", "--target-iters", "20000",
    ]))
    assert res.exit_code == 0, res.output
    for solver in ("pedi-general", "pedi-soc", "pdhgm", "dual-fb"):
        csv_path = workdir / "bench" / f"{solver}.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "iter,wall_seconds,gap_db,target_db,value_db"
        assert len(lines) == 201
        meta = json.loads((workdir / "bench" / f"{solver}.meta.json").read_text())
        assert meta["solver"] == solver
        assert meta["opnorm"] > 0
        assert meta["problem"]["seed"] == 7


def test_run_deterministic_modulo_wall(workdir):
    args = base_args(workdir, ["--solvers", "dual-fb", "--iters", "50", "--target-iters", "20000"])
    invoke(["run"] + args)
    first = strip_wall((workdir / "bench" / "dual-fb.csv").read_text())
    invoke(["run"] + args)
    second = strip_wall((workdir / "bench" / "dual-fb.csv").read_text())
    assert first == second


def test_wall_seconds_leave_the_logging_out(workdir, tmp_path, monkeypatch):
    # each row's metrics sleeps 10 ms: 30 rows sleep 0.3 s, far more than
    # 30 iterations of the solver at 16 x 16 take
    from barrierpd import cli

    real = cli.metrics

    def slow_metrics(*args, **kwargs):
        time.sleep(0.01)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "metrics", slow_metrics)
    args = base_args(workdir, ["--target-iters", "20000"])
    args[args.index("--out") + 1] = str(tmp_path)
    for solver in ("pedi-general", "dual-fb"):
        res = invoke(["run", *args, "--solvers", solver, "--iters", "30"])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / f"{solver}.csv").read_text().strip().splitlines()[1:]
        wall = [float(r.split(",")[1]) for r in rows]
        assert len(wall) == 30 and wall == sorted(wall)
        # under half of the 0.3 s the rows slept
        assert wall[-1] < 0.15, wall[-1]


@pytest.mark.parametrize("solver", ["pedi-general", "pedi-soc"])
def test_logged_pedi_rows_read_y_without_unlifting(monkeypatch, solver):
    # the CLI hands metrics pedi's y as it lies: no row forms the unlifted
    # field p = 2 tail(y), and every row is the one metrics makes of that
    # field, on both kernel paths
    real_metrics, real_unlifted_dual = cli.metrics, DenoiseProblem.unlifted_dual
    rows = []

    def no_unlifting(self, y, out=None):
        raise AssertionError("unlifted_dual called")

    def checked_metrics(x, y, problem, *args, **kwargs):
        assert isinstance(y, BlockConeVector)
        record = real_metrics(x, y, problem, *args, **kwargs)
        rows.append((record, real_metrics(x, real_unlifted_dual(problem, y), problem, *args, **kwargs)))
        return record

    monkeypatch.setattr(cli, "metrics", checked_metrics)
    monkeypatch.setattr(DenoiseProblem, "unlifted_dual", no_unlifting)
    paths = [kernels.PATH] + ([NUMPY] if kernels.PATH == "c" else [])
    for path, (variant, alpha) in itertools.product(paths, (("tv", 0.3), ("h1", 5.0))):
        monkeypatch.setattr(kernels, "PATH", path)
        problem = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 7), alpha, variant)
        run, _ = cli._configure(solver, problem, 5, 0.9, None, None)
        rows.clear()
        records = cli._run_solver(run, problem, Target.of(problem, problem.z.flat()), problem.half_z2)
        assert len(records) == len(rows) == 5
        assert [got for got, _ in rows] == records
        assert all(got == want for got, want in rows), (path, variant, rows)


def test_make_target_cache(workdir):
    args = base_args(workdir, ["--target-iters", "20000"])
    r1 = invoke(["make-target"] + args)
    assert r1.exit_code == 0, r1.output
    assert "wrote" in r1.output
    r2 = invoke(["make-target"] + args)
    assert "cache hit" in r2.output
    # a run with --target load consumes the cache
    r3 = invoke(["run"] + base_args(workdir, ["--solvers", "dual-fb", "--iters", "20", "--target", "load"]))
    assert r3.exit_code == 0, r3.output


def test_target_cache_collision_refused(workdir):
    out = workdir / "bench"
    targets = sorted(out.glob("target_*.npz"))
    assert targets
    path = targets[0]
    with np.load(path) as npz:
        x = npz["x"]
    np.savez(path, x=x, config=json.dumps({"tampered": True}))
    r = invoke(["run"] + base_args(workdir, ["--solvers", "dual-fb", "--iters", "20", "--target", "load"]))
    assert r.exit_code != 0
    assert "collision" in r.output
    path.unlink()


def write_target(out, image, x):
    """A cached target x under the key of the problem target_args names, written by hand."""
    key = cli._problem_key(image, "tv", 0.01, 0.0, 1)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(cli._target_path(out, cli._key_hash(key)), x=x, config=json.dumps(key, sort_keys=True))


def target_args(image, out):
    return ["--image", str(image), "--variant", "tv", "--alpha", "0.01", "--seed", "1", "--out", str(out)]


@pytest.mark.parametrize("bad, message", [
    (np.ones(10), "holds 10 entries, expected 64"),
    (np.ones(65), "holds 65 entries, expected 64"),
    (np.where(np.arange(64) == 5, np.nan, 1.0), "must be finite"),
    (np.where(np.arange(64) == 5, np.inf, 1.0), "must be finite"),
], ids=["short", "long", "nan", "inf"])
def test_a_bad_cached_target_is_a_click_error(tmp_path, bad, message):
    # a short target ended run with a broadcasting traceback, and a NaN one
    # was accepted and logged -320 dB, perfect convergence, on every row
    write_pgm(synthetic_image(8, 8), tmp_path / "img.pgm")
    out = tmp_path / "out"
    write_target(out, tmp_path / "img.pgm", bad)
    r = invoke(["run", *target_args(tmp_path / "img.pgm", out), "--solvers", "dual-fb", "--iters", "5",
                "--target", "load"])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert message in r.output
    assert list(out.glob("*.csv")) == []
    # a good target of the right size runs, and an (8, 8) one is read as the primal vector it holds
    for good in (np.ones(64), np.ones((8, 8))):
        write_target(out, tmp_path / "img.pgm", good)
        r = invoke(["run", *target_args(tmp_path / "img.pgm", out), "--solvers", "dual-fb", "--iters", "5",
                    "--target", "load"])
        assert r.exit_code == 0, r.output
    if bad.size != 64:
        write_target(out, tmp_path / "img.pgm", bad)
        r = invoke(["make-target", *target_args(tmp_path / "img.pgm", out)])
        assert isinstance(r.exception, SystemExit) and message in r.output


def npy_bytes(a):
    buf = io.BytesIO()
    np.save(buf, a)
    return buf.getvalue()


@pytest.mark.parametrize("write", [
    lambda path, key: path.write_bytes(b"not an npz archive"),
    lambda path, key: path.write_bytes(b""),
    lambda path, key: path.write_bytes(b"PK\x03\x04 and no archive"),
    lambda path, key: path.write_bytes(npy_bytes(np.ones(64))),
    lambda path, key: np.savez(path, x=np.array([1.0, "a"], dtype=object), config=json.dumps(key, sort_keys=True)),
    lambda path, key: np.savez(path, x=np.ones(64), config="{not json"),
    lambda path, key: np.savez(path, x=np.ones(64), config=json.dumps(key, sort_keys=True), gap_db=np.ones(2)),
    lambda path, key: np.savez(path, x=np.ones(64), config=json.dumps(key, sort_keys=True), gap_db="low"),
], ids=["not-npz", "empty", "bad-zip", "npy", "object-x", "config-not-json", "gap-not-scalar", "gap-not-number"])
def test_an_unreadable_cached_target_is_a_click_error(tmp_path, write):
    # these ended run and make-target with a ValueError or JSONDecodeError
    # traceback from numpy or json
    write_pgm(synthetic_image(8, 8), tmp_path / "img.pgm")
    out = tmp_path / "out"
    out.mkdir()
    key = cli._problem_key(tmp_path / "img.pgm", "tv", 0.01, 0.0, 1)
    path = cli._target_path(out, cli._key_hash(key))
    write(path, key)
    for command in (["run", "--solvers", "dual-fb", "--iters", "5", "--target", "load"], ["make-target"]):
        r = invoke([command[0], *target_args(tmp_path / "img.pgm", out), *command[1:]])
        assert r.exit_code != 0
        assert isinstance(r.exception, SystemExit), r.exception
        assert f"cached target at {path} cannot be read" in r.output and "remove the file" in r.output
        assert sorted(out.iterdir()) == [path]


def test_a_cached_target_without_x_is_a_click_error(tmp_path):
    # it used to end run with a KeyError traceback
    write_pgm(synthetic_image(8, 8), tmp_path / "img.pgm")
    out = tmp_path / "out"
    write_target(out, tmp_path / "img.pgm", np.ones(64))
    (path,) = out.glob("target_*.npz")
    with np.load(path) as npz:
        config = str(npz["config"])
    np.savez(path, config=config)
    r = invoke(["run", *target_args(tmp_path / "img.pgm", out), "--solvers", "dual-fb", "--iters", "5",
                "--target", "load"])
    assert isinstance(r.exception, SystemExit), r.exception
    assert "lacks its config or x" in r.output


def test_target_gate_fails_a_nan_gap(monkeypatch):
    dp = DenoiseProblem(synthetic_image(8, 8), 0.01, "tv")
    monkeypatch.setattr(DenoiseProblem, "duality_gap", lambda self, x, p: math.nan)
    with pytest.raises(click.ClickException, match="quality gate"):
        cli._compute_target(dp, 5)


def test_target_gate_names_the_gap_it_reached():
    dp = DenoiseProblem(synthetic_image(8, 8), 0.01, "tv")
    with pytest.raises(click.ClickException,
                       match=r"quality gate: gap \S+ \(-?\d+\.\d dB\) > 1e-8\*gap0 \S+ after 5 iterations"):
        cli._compute_target(dp, 5)


def test_target_stops_on_its_certificate():
    # the gap, read on every TARGET_CHECK-th iteration, certifies the target
    # at TARGET_GAP gap0 (-120 dB) long before the cap
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(64, 64), 6.15, 42), 0.01, "tv")
    gap0 = dp.half_z2
    res, gap_db = cli._compute_target(dp, 20000)
    assert res.stop_reason == "gap certified"
    assert res.n_iters % cli.TARGET_CHECK == 0 and res.n_iters < 20000
    gap = dp.duality_gap(res.x, res.p)
    assert gap <= cli.TARGET_GAP * gap0 and gap_db == _db(gap, gap0) <= -120.0
    # and the check before did not certify it
    earlier = pdhgm_run(dp, BaselineConfig.default_for(dp, res.n_iters - cli.TARGET_CHECK, gamma=0.3))
    assert dp.duality_gap(earlier.x, earlier.p) > cli.TARGET_GAP * gap0


def test_target_records_the_gap_it_reached(workdir, tmp_path):
    # make-target stores the gap beside x and echoes it with the stop; run
    # writes it into each sidecar, from the cache or from its own solve
    args = base_args(workdir, [])
    args[args.index("--out") + 1] = str(tmp_path)
    r = invoke(["make-target", *args, "--target-iters", "20000"])
    assert r.exit_code == 0, r.output
    (path,) = tmp_path.glob("target_*.npz")
    with np.load(path) as npz:
        gap_db = float(npz["gap_db"])
    assert gap_db <= -120.0
    assert re.search(rf"stopped after \d+0 iterations \(gap certified\) at gap {gap_db:.1f} dB", r.output)
    for policy in (["--target", "load"], ["--target-iters", "20000"]):
        r = invoke(["run", *args, "--solvers", "pdhgm,dual-fb", "--iters", "3", *policy])
        assert r.exit_code == 0, r.output
        for solver in ("pdhgm", "dual-fb"):
            assert json.loads((tmp_path / f"{solver}.meta.json").read_text())["target_gap_db"] == gap_db


def test_a_cached_target_without_its_gap_is_read(tmp_path):
    # a cache file written before the target recorded its gap still loads;
    # the sidecar's target_gap_db is null
    write_pgm(synthetic_image(8, 8), tmp_path / "img.pgm")
    out = tmp_path / "out"
    write_target(out, tmp_path / "img.pgm", np.ones(64))
    r = invoke(["run", *target_args(tmp_path / "img.pgm", out), "--solvers", "dual-fb", "--iters", "5",
                "--target", "load"])
    assert r.exit_code == 0, r.output
    assert json.loads((out / "dual-fb.meta.json").read_text())["target_gap_db"] is None


def test_load_without_cache_fails(workdir, tmp_path):
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv",
                "--alpha", "0.01", "--sigma", "0", "--seed", "1",
                "--out", str(tmp_path), "--solvers", "dual-fb", "--iters", "5",
                "--target", "load"])
    assert r.exit_code != 0
    assert "make-target" in r.output


def test_run_rejects_a_repeated_solver_before_output(workdir, tmp_path):
    # dual-fb,dual-fb used to run dual-fb twice, the second run overwriting
    # the first's log and sidecar
    for solvers in ("dual-fb,dual-fb", "pedi-soc,dual-fb,pedi-soc"):
        r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                    "--seed", "1", "--out", str(tmp_path / "out"), "--solvers", solvers, "--iters", "5",
                    "--target-iters", "20000"])
        assert r.exit_code != 0
        assert isinstance(r.exception, SystemExit), r.exception
        assert "is listed more than once" in r.output
        assert not (tmp_path / "out").exists()


def test_run_rejects_bad_flags(workdir):
    r = invoke(["run"] + base_args(workdir, ["--solvers", "sgd", "--iters", "5"]))
    assert r.exit_code != 0
    r = invoke(["run"] + base_args(workdir, ["--solvers", "", "--iters", "5"]))
    assert r.exit_code != 0
    r = invoke(["run", "--image", "/nonexistent.pgm", "--variant", "tv", "--alpha",
                "1", "--seed", "1", "--solvers", "dual-fb", "--iters", "5"])
    assert r.exit_code != 0


@pytest.mark.parametrize(
    "solvers,flags",
    [("dual-fb,pedi-soc", ["--gamma", "1.5"]), ("dual-fb,pedi-soc", ["--zeta", "-1"]),
     ("dual-fb,pdhgm", ["--gamma", "-1"]), ("dual-fb,pedi-soc", ["--theta", "nan"]),
     ("dual-fb,pedi-general", ["--gamma", "nan"]), ("dual-fb,pedi-soc", ["--zeta", "nan"]),
     ("dual-fb,pdhgm", ["--gamma", "nan"]), ("dual-fb,pdhgm", ["--gamma", "1.5"])],
    ids=["pedi-gamma", "pedi-zeta", "pdhgm-gamma", "pedi-theta-nan", "pedi-gamma-nan", "pedi-zeta-nan",
         "pdhgm-gamma-nan", "pdhgm-gamma-above-modulus"],
)
def test_run_rejects_bad_solver_config_before_output(workdir, tmp_path, solvers, flags):
    # a ConfigError used to escape as a traceback after earlier solvers had
    # written their logs
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                "--seed", "1", "--out", str(tmp_path), "--solvers", solvers, "--iters", "5",
                "--target-iters", "20000"] + flags)
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "invalid solver configuration" in r.output
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("flags", [["--alpha", "inf"], ["--alpha", "0"], ["--alpha", "nan"], ["--sigma", "nan"]],
                         ids=["alpha-inf", "alpha-0", "alpha-nan", "sigma-nan"])
@pytest.mark.parametrize("command", ["run", "make-target"])
def test_bad_problem_option_is_a_click_error(workdir, tmp_path, flags, command):
    # these used to stop mid-run with a ZeroDivisionError or ValueError traceback
    args = ["--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5", "--sigma", "6.15",
            "--seed", "1", "--out", str(tmp_path / "out"), "--target-iters", "20000", *flags]
    if command == "run":
        args += ["--solvers", ",".join(SOLVERS), "--iters", "5"]
    r = invoke([command, *args])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "invalid problem" in r.output
    assert not (tmp_path / "out").exists()


def test_run_has_no_step_rule_option(workdir, tmp_path):
    # the solver name picks the pedi rule; click no longer knows the flag
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "h1", "--alpha", "5",
                "--seed", "1", "--out", str(tmp_path), "--solvers", "pedi-general", "--iters", "5",
                "--target-iters", "20000", "--step-rule", "soc"])
    assert r.exit_code == 2, r.output
    assert "--step-rule" in r.output
    assert list(tmp_path.iterdir()) == []


def test_solver_name_picks_the_step_rule(workdir, tmp_path):
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "h1", "--alpha", "5",
                "--sigma", "6.15", "--seed", "1", "--out", str(tmp_path), "--iters", "60",
                "--solvers", "pedi-general,pedi-soc,pdhgm,dual-fb", "--target-iters", "20000"])
    assert r.exit_code == 0, r.output
    meta = {s: json.loads((tmp_path / f"{s}.meta.json").read_text())
            for s in ("pedi-general", "pedi-soc", "pdhgm", "dual-fb")}
    rules = {s: m["step_rule"] for s, m in meta.items()}
    assert rules == {"pedi-general": "general", "pedi-soc": "soc", "pdhgm": None, "dual-fb": None}
    # a parameter the solver does not take is null, pedi's zeta and theta
    # are the defaults it ran with, 0.9 / alpha^2 and its reciprocal, and
    # opnorm is the bound its steps use: dual-fb's step is 1 / L^2 with
    # L = DUAL_FB_L
    dp = DenoiseProblem(add_gaussian_noise(read_pgm(workdir / "img.pgm"), 6.15, 1), 5.0, "h1")
    params = {s: (m["gamma"], m["zeta"], m["theta"], m["opnorm"]) for s, m in meta.items()}
    zeta = 0.9 / 5.0**2
    assert params == {"pedi-general": (0.9, zeta, 1.0 / zeta, math.sqrt(2.0) * dp.opnorm_D),
                      "pedi-soc": (0.9, zeta, 1.0 / zeta, math.sqrt(2.0) * dp.opnorm_D),
                      "pdhgm": (0.9, None, None, dp.opnorm_D),
                      "dual-fb": (None, None, None, DUAL_FB_L)}
    # on H1 the two rules take different steps, so the logs differ
    general, soc = (strip_wall((tmp_path / f"{s}.csv").read_text()) for s in ("pedi-general", "pedi-soc"))
    assert general != soc


def test_run_has_no_tau0_override(workdir, tmp_path):
    # --theta is the one way to set theta
    out = tmp_path / "out"
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                "--seed", "1", "--out", str(out), "--solvers", "pedi-general", "--iters", "5",
                "--target-iters", "20000", "--tau0-override", "0.1"])
    assert r.exit_code == 2, r.output
    assert "--tau0-override" in r.output
    assert not out.exists()


def test_make_target_rejects_target_iters_below_one(workdir, tmp_path):
    # the target solve's ConfigError used to escape with empty output
    out = tmp_path / "out"
    r = invoke(["make-target", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                "--seed", "1", "--out", str(out), "--target-iters", "0"])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "--target-iters must be >= 1" in r.output
    assert not out.exists()


def test_run_rejects_target_iters_below_one(workdir, tmp_path):
    out = tmp_path / "out"
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                "--seed", "1", "--out", str(out), "--solvers", "dual-fb", "--iters", "5",
                "--target-iters", "-5"])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "--target-iters must be >= 1" in r.output
    assert not out.exists()


def test_make_target_writes_only_the_target(workdir, tmp_path, monkeypatch):
    args = ["--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5", "--seed", "1",
            "--target-iters", "20000"]
    r = invoke(["make-target", *args, "--out", str(tmp_path / "ok")])
    assert r.exit_code == 0, r.output
    names = [p.name for p in (tmp_path / "ok").iterdir()]
    assert len(names) == 1 and names[0].startswith("target_") and names[0].endswith(".npz")

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    r = invoke(["make-target", *args, "--out", str(tmp_path / "failed")])
    assert r.exit_code != 0
    assert isinstance(r.exception, OSError)
    assert list((tmp_path / "failed").iterdir()) == []


def test_table_rounding_and_never_reached(tmp_path):
    log = tmp_path / "synthetic.csv"
    rows = ["iter,wall_seconds,gap_db,target_db,value_db"]
    for i in range(100):
        gap = -200.0 if i >= 44 else -10.0
        rows.append(f"{i},{i * 0.01:.6f},{gap:.6f},-5.000000,-5.000000")
    log.write_text("\n".join(rows) + "\n")
    r = invoke(["table", str(log), "--threshold", "gap:-150", "--threshold", "target:-100"])
    assert r.exit_code == 0, r.output
    body = r.output.splitlines()[1]
    cells = body.split()
    # crossing at iteration 44 reported at the next multiple of 10
    assert cells[1] == "50"
    assert cells[2] == "--"


def test_table_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("iter,wall_seconds,gap_db,target_db,value_db\n1,zzz,1,1,1\n")
    r = invoke(["table", str(bad), "--threshold", "gap:-1"])
    assert r.exit_code != 0
    assert "bad.csv" in r.output
    r = invoke(["table", str(bad), "--threshold", "nonsense"])
    assert r.exit_code != 0


@pytest.mark.parametrize("spec", ["gap:nan", "gap:inf", "target:-inf", "value:NaN", "gap:+Infinity"])
def test_table_rejects_a_non_finite_threshold(tmp_path, spec):
    # a NaN level was never crossed and reported "--", an infinite one was
    # crossed at row 0: neither is a level of dB
    log = tmp_path / "a.csv"
    log.write_text("iter,wall_seconds,gap_db,target_db,value_db\n0,0.0,-1,-1,-1\n")
    r = invoke(["table", str(log), "--threshold", spec])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "finite" in r.output and spec in r.output


def test_table_no_thresholds_header_only(tmp_path):
    log = tmp_path / "a.csv"
    log.write_text("iter,wall_seconds,gap_db,target_db,value_db\n0,0.0,-1,-1,-1\n")
    r = invoke(["table", str(log)])
    assert r.exit_code == 0
    assert r.output.splitlines()[0].startswith("log")


def test_written_files_follow_the_umask(workdir, tmp_path):
    # mkstemp creates 0o600 files; the target, CSV and sidecar must get 0o666 less the umask
    out = tmp_path / "modes"
    args = ["--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5", "--seed", "1",
            "--out", str(out)]
    old = os.umask(0o022)
    try:
        assert invoke(["make-target", *args, "--target-iters", "20000"]).exit_code == 0
        r = invoke(["run", *args, "--solvers", "dual-fb", "--iters", "3", "--target", "load"])
        assert r.exit_code == 0, r.output
    finally:
        os.umask(old)
    files = sorted(out.iterdir())
    assert [p.suffix for p in files] == [".csv", ".json", ".npz"]
    assert all(p.stat().st_mode & 0o777 == 0o644 for p in files), [oct(p.stat().st_mode) for p in files]


def test_written_files_leave_the_umask_alone(workdir, tmp_path, monkeypatch):
    # the files get 0o666 less the umask without the CLI reading or setting
    # it: a umask changed for a moment applies to every thread's files
    out = tmp_path / "modes"
    args = ["--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5", "--seed", "1",
            "--out", str(out)]

    def no_umask(*_):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        assert invoke(["make-target", *args, "--target-iters", "20000"]).exit_code == 0
        r = invoke(["run", *args, "--solvers", "dual-fb", "--iters", "3", "--target", "load"])
        assert r.exit_code == 0, r.output
    finally:
        monkeypatch.undo()
        os.umask(old)
    files = sorted(out.iterdir())
    assert [p.suffix for p in files] == [".csv", ".json", ".npz"]
    assert all(p.stat().st_mode & 0o777 == 0o640 for p in files), [oct(p.stat().st_mode) for p in files]


def test_a_failed_atomic_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "log.csv"
    cli._atomic_write_bytes(path, b"old\n")
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        cli._atomic_write_bytes(path, b"new\n")
    monkeypatch.undo()
    # a write that fails before the rename cleans up too
    with pytest.raises(TypeError):
        cli._atomic_write_bytes(path, "not bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]
    assert path.read_bytes() == b"old\n"


def test_csv_rows_match_the_f_string_form(tmp_path):
    # each row is one %-format of its record; the bytes are those of the
    # f-strings the CSV was written with before, special values included
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, DB_CLAMP, -123.4567894, 1e-7, 5e-324, 1.0e300]
    records = [IterationRecord(i, abs(v) if math.isfinite(v) else 0.25, v, values[i - 1], -v)
               for i, v in enumerate(values)]
    lines = ["iter,wall_seconds,gap_db,target_db,value_db"]
    lines += [f"{r.iter},{r.wall_seconds:.6f},{r.gap_db:.6f},{r.target_db:.6f},{r.value_db:.6f}" for r in records]
    cli._write_csv(tmp_path / "a.csv", records)
    assert (tmp_path / "a.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    cli._write_csv(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == b"iter,wall_seconds,gap_db,target_db,value_db\n"


def test_sidecar_names_the_kernel_path(workdir, tmp_path, monkeypatch):
    args = base_args(workdir, ["--solvers", "dual-fb", "--iters", "3", "--target-iters", "20000"])
    args[args.index("--out") + 1] = str(tmp_path)
    for path, name in ((kernels.PATH, "c" if kernels.PATH == "c" else "numpy"), ("numpy (no C compiler)", "numpy")):
        monkeypatch.setattr(kernels, "PATH", path)
        assert invoke(["run"] + args).exit_code == 0
        assert json.loads((tmp_path / "dual-fb.meta.json").read_text())["kernels"] == name


def test_sidecar_records_the_kernel_threads(workdir, tmp_path):
    args = base_args(workdir, ["--solvers", "dual-fb", "--iters", "3", "--target-iters", "20000"])
    args[args.index("--out") + 1] = str(tmp_path)
    assert invoke(["run"] + args).exit_code == 0
    assert json.loads((tmp_path / "dual-fb.meta.json").read_text())["kernel_threads"] == kernels.THREADS


@pytest.mark.skipif(kernels.PATH != "c", reason=f"kernels: {kernels.PATH}")
@pytest.mark.parametrize("variant, alpha", [("tv", "0.01"), ("h1", "5")])
def test_logs_identical_on_both_paths(tmp_path, monkeypatch, variant, alpha):
    # the solvers, the target and its stopping test, and the per-iteration
    # metrics all run compiled: the same target, stop and logs on both paths
    write_pgm(synthetic_image(32, 32), tmp_path / "img.pgm")
    results = []
    for path in ("numpy (selected by the test)", "c"):
        monkeypatch.setattr(kernels, "PATH", path)
        out = tmp_path / path[:5]
        args = ["--image", str(tmp_path / "img.pgm"), "--variant", variant, "--alpha", alpha,
                "--sigma", "6.15", "--seed", "42", "--out", str(out)]
        r = invoke(["make-target", *args, "--target-iters", "2000"])
        assert r.exit_code == 0, r.output
        stop = r.output.splitlines()[0]
        r = invoke(["run", *args, "--solvers", ",".join(SOLVERS), "--iters", "300", "--target", "load"])
        assert r.exit_code == 0, r.output
        (target,) = out.glob("target_*.npz")
        with np.load(target) as npz:
            logs = {s: strip_wall((out / f"{s}.csv").read_text()) for s in SOLVERS}
            results.append((npz["x"].tobytes(), float(npz["gap_db"]), stop, logs))
    assert results[0] == results[1]
