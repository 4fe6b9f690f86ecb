import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from barrierpd import kernels
from barrierpd.cli import main
from barrierpd.imaging import synthetic_image
from barrierpd.pgm import write_pgm


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


def test_load_without_cache_fails(workdir, tmp_path):
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv",
                "--alpha", "0.01", "--sigma", "0", "--seed", "1",
                "--out", str(tmp_path), "--solvers", "dual-fb", "--iters", "5",
                "--target", "load"])
    assert r.exit_code != 0
    assert "make-target" in r.output


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
     ("dual-fb,pdhgm", ["--gamma", "-1"])],
    ids=["pedi-gamma", "pedi-zeta", "pdhgm-gamma"],
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
    rules = {s: json.loads((tmp_path / f"{s}.meta.json").read_text())["step_rule"]
             for s in ("pedi-general", "pedi-soc", "pdhgm", "dual-fb")}
    assert rules == {"pedi-general": "general", "pedi-soc": "soc", "pdhgm": None, "dual-fb": None}
    # on H1 the two rules take different steps, so the logs differ
    general, soc = (strip_wall((tmp_path / f"{s}.csv").read_text()) for s in ("pedi-general", "pedi-soc"))
    assert general != soc


def test_run_rejects_theta_with_tau0_override(workdir, tmp_path):
    # both set theta, so accepting the pair would leave a sidecar naming a theta the run did not use
    out = tmp_path / "out"
    r = invoke(["run", "--image", str(workdir / "img.pgm"), "--variant", "tv", "--alpha", "0.5",
                "--seed", "1", "--out", str(out), "--solvers", "pedi-general", "--iters", "5",
                "--target-iters", "20000", "--theta", "5", "--tau0-override", "0.01"])
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit), r.exception
    assert "--tau0-override" in r.output
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
