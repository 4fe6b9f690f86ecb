"""Benchmark command line: run solvers, tabulate threshold crossings.

Subcommands:

* ``run``: load a PGM image, add seeded Gaussian noise, build the TV or H1
  denoising problem, run the requested solvers, and write one CSV log per
  solver (schema ``iter,wall_seconds,gap_db,target_db,value_db``, where
  wall_seconds is solver time, the logging left out) plus a JSON sidecar
  with the full configuration.
* ``make-target``: compute and cache a long-run reference solution, keyed by
  a hash of the problem configuration.
* ``table``: report, per log and threshold, the first iteration (rounded up
  to a multiple of 10) and wall time at which the metric crosses.

All randomness is seeded; reruns with the same seed give byte-identical CSVs
except for the wall_seconds column.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
import zipfile
from pathlib import Path

import click
import numpy as np

from . import __version__, kernels
from .baselines import DUAL_FB_L, BaselineConfig, dual_fb_run, pdhgm_run
from .imaging import DenoiseProblem, Target, add_gaussian_noise, metrics
from .pedi import ConfigError, StepConfig, check_config, pedi_run
from .pgm import read_pgm

SOLVERS = ("pedi-general", "pedi-soc", "pdhgm", "dual-fb")
# the solver name alone picks the pedi step rule
PEDI_RULES = {"pedi-general": "general", "pedi-soc": "soc"}


def _problem_key(image_path: Path, variant: str, alpha: float, sigma: float, seed: int) -> dict:
    """Canonical problem identity: image content hash + noise/model config."""
    digest = hashlib.sha256(image_path.read_bytes()).hexdigest()[:16]
    return {
        "image_sha256_16": digest,
        "variant": variant,
        "alpha": alpha,
        "sigma": sigma,
        "seed": seed,
    }


def _key_hash(key: dict) -> str:
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:12]


def _build(image, variant, alpha, sigma, seed):
    """The denoising problem of the options; a click error for one it rejects."""
    try:
        grid = read_pgm(image)
        noisy = add_gaussian_noise(grid, sigma, seed)
        return DenoiseProblem(noisy, alpha, variant)
    except ValueError as exc:
        raise click.ClickException(f"invalid problem: {exc}")


def _target_path(out: Path, key_hash: str) -> Path:
    return out / f"target_{key_hash}.npz"


def _compute_target(problem: DenoiseProblem, iters: int) -> np.ndarray:
    # gamma = 0.3 keeps the step sizes from decaying too fast, which on these
    # problems gives a much sharper tail than the benchmark default
    cfg = BaselineConfig.default_for(problem, max_iters=iters, gamma=0.3)
    res = pdhgm_run(problem, cfg)
    gap0 = problem.half_z2
    gap = problem.duality_gap(res.x, res.p)
    # a NaN gap fails the gate too
    if not gap <= 1e-8 * gap0:
        raise click.ClickException(
            f"reference solution fails quality gate: gap {gap:g} > 1e-8*gap0 {1e-8 * gap0:g}; "
            f"increase --target-iters"
        )
    return res.x


def _read_target(path: Path):
    """(config, x) of the target file at path; a click error for a file that is not a readable target."""
    try:
        # opened here, since np.load leaves its own file open when a zip is bad
        with open(path, "rb") as f:
            npz = np.load(f, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with npz:
                if not {"config", "x"} <= set(npz.files):
                    raise click.ClickException(f"cached target at {path} lacks its config or x; remove the file")
                return json.loads(str(npz["config"])), npz["x"]
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        # a file that is no npz, an object-dtype x or a config that is not JSON
        raise click.ClickException(f"cached target at {path} cannot be read ({exc}); remove the file")


def _load_target(out: Path, key: dict, n_pixels: int):
    """The cached target x of key as a primal vector, None if there is none; a click error for a bad cache file."""
    path = _target_path(out, _key_hash(key))
    if not path.exists():
        return None
    stored_key, x = _read_target(path)
    if stored_key != key:
        raise click.ClickException(
            f"target cache collision at {path}: stored config {stored_key} "
            f"does not match requested {key}; remove the file or change --out"
        )
    if x.size != n_pixels:
        raise click.ClickException(
            f"cached target at {path} holds {x.size} entries, expected {n_pixels}; remove the file"
        )
    return x.reshape(-1)


def _atomic_write_bytes(path: Path, data: bytes):
    """Write data to path through a temporary file renamed into place.

    The temporary file sits next to path under a random name, created by
    open() in exclusive mode, so it gets open()'s mode, 0o666 less the
    umask, without the umask being read or changed (mkstemp's file would be
    0o600).  It is removed if the write or the rename fails.
    """
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _configure(solver, problem, iters, gamma, zeta, theta):
    """Build and check one solver's configuration before anything runs.

    solver must be one of SOLVERS.  Returns (run, params): run(log) runs
    the solver with log as its callback, which each solver calls after each
    iteration as log(i, x, p, ...) with its dual iterate p: the baselines'
    planar field, or pedi's lifted y, which metrics reads as it lies.
    params are the sidecar's gamma, zeta, theta and opnorm, the norm bound
    behind the solver's steps, each the value the solver runs with (pedi's
    default zeta and theta included) and None where the solver takes no
    such parameter.
    Raises ConfigError for a configuration the solver would reject.
    """
    if solver in PEDI_RULES:
        sp = problem.saddle_problem()
        cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=problem.alpha, gamma=gamma, zeta=zeta, theta=theta)
        rule = PEDI_RULES[solver]
        check_config(sp, cfg, rule)
        params = {"gamma": cfg.gamma, "zeta": cfg.zeta, "theta": cfg.theta, "opnorm": sp.opnorm_K}
        return (lambda log: pedi_run(sp, cfg, iters, step_rule=rule, callback=log)), params
    if solver == "pdhgm":
        cfg = BaselineConfig.default_for(problem, max_iters=iters, gamma=gamma)
        params = {"gamma": gamma, "zeta": None, "theta": None, "opnorm": problem.opnorm_D}
        return (lambda log: pdhgm_run(problem, cfg, callback=log)), params
    # dual_fb's step is 1 / L^2 with L = DUAL_FB_L
    params = {"gamma": None, "zeta": None, "theta": None, "opnorm": DUAL_FB_L}
    return (lambda log: dual_fb_run(problem, iters, callback=log)), params


def _run_solver(run, problem, target, gap0):
    """Run one configured solver, collecting an IterationRecord per iteration.

    A record's wall_seconds is solver time: the time since the run started
    less the time spent in earlier calls of log, which build the records.
    """
    records = []
    clock = time.perf_counter
    # t0 moves on by each call of log, so clock() - t0 leaves the logging out
    t0 = clock()

    def log(i, x, p, *_):
        nonlocal t0
        start = clock()
        records.append(metrics(x, p, problem, target, gap0, iter=i, wall_seconds=start - t0))
        t0 += clock() - start

    run(log)
    return records


def _write_csv(path: Path, records):
    # one %-format of each record, a named tuple in the CSV's column order
    rows = "".join(["%d,%.6f,%.6f,%.6f,%.6f\n" % r for r in records])
    _atomic_write_bytes(path, ("iter,wall_seconds,gap_db,target_db,value_db\n" + rows).encode())


@click.group()
@click.version_option(__version__)
def main():
    """Denoising solver benchmark harness."""


def _common_problem_options(fn):
    fn = click.option("--image", required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))(fn)
    fn = click.option("--variant", required=True, type=click.Choice(["tv", "h1"]))(fn)
    fn = click.option("--alpha", required=True, type=float)(fn)
    fn = click.option("--sigma", default=0.0, type=float, show_default=True)(fn)
    fn = click.option("--seed", required=True, type=int)(fn)
    fn = click.option("--out", default=Path("."), type=click.Path(file_okay=False, path_type=Path), show_default=True)(fn)
    return fn


@main.command()
@_common_problem_options
@click.option("--solvers", default="pedi-general", show_default=True, help="Comma-separated subset of " + ",".join(SOLVERS))
@click.option("--iters", default=1000, type=int, show_default=True)
@click.option("--gamma", default=0.9, type=float, show_default=True)
@click.option("--zeta", default=None, type=float)
@click.option("--theta", default=None, type=float)
@click.option("--target", "target_policy", default="compute", type=click.Choice(["load", "compute"]), show_default=True)
@click.option("--target-iters", default=100000, type=int, show_default=True)
def run(image, variant, alpha, sigma, seed, out, solvers, iters, gamma, zeta, theta, target_policy, target_iters):
    """Run solver(s) and write one CSV log per solver."""
    solver_list = [s.strip() for s in solvers.split(",") if s.strip()]
    if not solver_list:
        raise click.ClickException("solver list is empty")
    for i, s in enumerate(solver_list):
        if s not in SOLVERS:
            raise click.ClickException(f"unknown solver {s!r}; choose from {', '.join(SOLVERS)}")
        # a second run would overwrite the first's log and sidecar
        if s in solver_list[:i]:
            raise click.ClickException(f"solver {s!r} is listed more than once")
    if iters < 1:
        raise click.ClickException("--iters must be >= 1")
    if target_iters < 1:
        raise click.ClickException("--target-iters must be >= 1")

    problem = _build(image, variant, alpha, sigma, seed)
    try:
        plans = [
            _configure(solver, problem, iters, gamma, zeta, theta)
            for solver in solver_list
        ]
    except ConfigError as exc:
        raise click.ClickException(f"invalid solver configuration: {exc}")
    out.mkdir(parents=True, exist_ok=True)
    key = _problem_key(image, variant, alpha, sigma, seed)
    if target_policy == "load":
        target_x = _load_target(out, key, problem.n_pixels)
        if target_x is None:
            raise click.ClickException(
                f"no cached target for this configuration in {out}; run make-target first"
            )
    else:
        target_x = _compute_target(problem, target_iters)
    try:
        target = Target.of(problem, target_x)
    except ValueError as exc:
        raise click.ClickException(f"bad reference solution: {exc}")
    gap0 = problem.half_z2

    for solver, (run_solver, params) in zip(solver_list, plans):
        records = _run_solver(run_solver, problem, target, gap0)
        csv_path = out / f"{solver}.csv"
        _write_csv(csv_path, records)
        sidecar = {
            "solver": solver,
            "problem": key,
            "iters": iters,
            "step_rule": PEDI_RULES.get(solver),
            **params,
            "gap0": gap0,
            "kernels": "c" if kernels.PATH == "c" else "numpy",
            "kernel_threads": kernels.THREADS,
            "version": __version__,
        }
        _atomic_write_bytes(out / f"{solver}.meta.json", (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode())
        click.echo(f"wrote {csv_path}")


@main.command("make-target")
@_common_problem_options
@click.option("--target-iters", default=100000, type=int, show_default=True)
def make_target(image, variant, alpha, sigma, seed, out, target_iters):
    """Compute and cache a long-run reference solution for a configuration."""
    if target_iters < 1:
        raise click.ClickException("--target-iters must be >= 1")
    problem = _build(image, variant, alpha, sigma, seed)
    out.mkdir(parents=True, exist_ok=True)
    key = _problem_key(image, variant, alpha, sigma, seed)
    path = _target_path(out, _key_hash(key))
    cached = _load_target(out, key, problem.n_pixels)
    if cached is not None:
        click.echo(f"cache hit: {path}")
        return
    x = _compute_target(problem, target_iters)
    buf = io.BytesIO()
    np.savez(buf, x=x, config=json.dumps(key, sort_keys=True))
    _atomic_write_bytes(path, buf.getvalue())
    click.echo(f"wrote {path}")


def _parse_threshold(spec: str):
    try:
        metric, val = spec.split(":")
        metric = metric.strip()
        val = float(val)
    except ValueError:
        raise click.ClickException(f"bad threshold {spec!r}; expected metric:db, e.g. gap:-150")
    if metric not in ("gap", "target", "value"):
        raise click.ClickException(f"unknown metric {metric!r}; choose gap, target or value")
    # NaN would never be crossed and inf always, at row 0
    if not math.isfinite(val):
        raise click.ClickException(f"bad threshold {spec!r}; the level must be a finite number of dB")
    return metric, val


def _read_log(path: Path):
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        expected = ["iter", "wall_seconds", "gap_db", "target_db", "value_db"]
        if reader.fieldnames != expected:
            raise click.ClickException(f"{path}: bad header {reader.fieldnames}, expected {expected}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append(
                    (int(row["iter"]), float(row["wall_seconds"]),
                     float(row["gap_db"]), float(row["target_db"]), float(row["value_db"]))
                )
            except (TypeError, ValueError) as exc:
                raise click.ClickException(f"{path}:{lineno}: malformed row: {exc}")
    return rows


def _first_crossing(rows, metric: str, threshold: float):
    """First logged iteration at which the metric is <= threshold, reported
    at a resolution of 10 iterations (rounded up to the next multiple)."""
    col = {"gap": 2, "target": 3, "value": 4}[metric]
    for row in rows:
        if row[col] <= threshold:
            it = row[0]
            return ((it + 9) // 10) * 10, row[1]
    return None


@main.command()
@click.argument("logs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--threshold", "thresholds", multiple=True, help="metric:db, e.g. gap:-150 (repeatable)")
def table(logs, thresholds):
    """Tabulate first-crossing iterations and wall times for each log."""
    specs = [_parse_threshold(t) for t in thresholds]
    header = ["log"] + [f"{m}<={v:g}dB iters" for m, v in specs] + [f"{m}<={v:g}dB seconds" for m, v in specs]
    widths = [max(18, len(h)) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for log in logs:
        rows = _read_log(log)
        iter_cells, time_cells = [], []
        for metric, val in specs:
            hit = _first_crossing(rows, metric, val)
            if hit is None:
                iter_cells.append("--")
                time_cells.append("--")
            else:
                iter_cells.append(str(hit[0]))
                time_cells.append(f"{hit[1]:.3f}")
        cells = [log.stem] + iter_cells + time_cells
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
