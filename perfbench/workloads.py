"""The benchmark's workloads, their output checks and their metrics.

``tv-256`` and ``h1-256`` call the solvers through the library, one after
another in a closed loop, and time each iteration from a timestamp the
callback records.  ``cli-tv-64`` runs the user pipeline ``make-target``,
``run``, ``table`` through ``barrierpd.cli.main`` in-process, each cycle in a
fresh output directory.  A traced run first makes the untraced measurement,
then repeats one pass (or one cycle) with the layer wrappers of ``spans``
installed.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from barrierpd import cli
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DB_CLAMP, DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.pedi import StepConfig, pedi_run
from barrierpd.pgm import write_pgm

from catalog import NEVER, PER_LAYER, SOLVERS, WORKLOAD_NAMES
from spans import Tracer, instrumented, wrapped_points

clock = time.perf_counter
SIGMA = 6.15
# Relative gaps below this are double-precision roundoff (observed between
# 1e-16 and 1e-17, or exactly <= 0); they are reported as the floor.
GAP_FLOOR = 1e-14
GAP_TRACE_DB = -100.0
TABLE_THRESHOLDS = ("gap:-30", "target:-30")
CSV_HEADER = "iter,wall_seconds,gap_db,target_db,value_db"
RULE = {"pedi-general": "general", "pedi-soc": "soc"}
TAG = {s: RULE.get(s, s) for s in SOLVERS}
# iterations of every solver run, in the library and through the CLI
ITERS = 300
# set-ups timed per run of a library workload
SETUP_REPS = 25
# iterations of the pdhgm target solve in `make-target`
TARGET_ITERS = 2000
# repetitions made even when --seconds runs out, so each run checks a repeat
MIN_REPS = 2
# seconds of reference-kernel timing after each set-up, solver run or CLI command
REF_BUDGET_S = 0.1


@dataclass(frozen=True)
class Workload:
    variant: str
    alpha: float
    n: int
    # reference-kernel time (us) on the host that measured the seed-commit
    # numbers; the timing metrics are scaled to it
    ref_us: float = 2800.0
    cli: bool = False


WORKLOADS = {
    "tv-256": Workload("tv", 0.01, 256),
    "h1-256": Workload("h1", 5.0, 256),
    "cli-tv-64": Workload("tv", 0.01, 64, ref_us=130.0, cli=True),
}
# Largest final gap_db per solver that counts as a correct run, a few dB above
# what the seed commit reaches on every workload.  On h1-256 pedi-soc reaches
# roundoff only because mu underflows to 0 (a defect reported through
# pedi.mu_zero_iter), so it gets the bound of the other pedi runs.
GAP_BOUND_DB = {"pedi-general": -30.0, "pedi-soc": -30.0, "pdhgm": -33.0, "dual-fb": -100.0}
assert list(WORKLOADS) == WORKLOAD_NAMES


@dataclass
class Outcome:
    """Operations attempted and failed, timings and reported values.

    ``ops`` holds the timed operations of each timing metric as
    (start, end, raw value), where the raw value of a solver run is its mean
    iteration time; ``refs`` the reference-kernel timings as (time, median
    us); ``samples`` the single iteration times of each solver.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)
    refs: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def check(self, label: str, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def add(self, metric: str, values):
        self.samples.setdefault(metric, []).extend(values)

    def op(self, metric: str, start: float, end: float, raw: float):
        self.ops.setdefault(metric, []).append((start, end, raw))

    def scaled(self, metric: str, ref_us: float) -> float:
        """ref_us times the mean over operations of raw / nearby kernel time.

        An operation is paired with the kernel timings made during it and
        the nearest one before and after it.  The mean, not the median: the
        solver runs of one run differ by up to 40 % in a pattern that repeats
        from run to run (the allocator's state changes from one solver run to
        the next), and a median over 6-20 of them jumps within that pattern.
        """
        times = [t for t, _ in self.refs]
        ratios = []
        for start, end, raw in self.ops[metric]:
            lo = max(bisect.bisect_left(times, start) - 1, 0)
            hi = bisect.bisect_right(times, end) + 1
            ratios.append(raw / statistics.median(us for _, us in self.refs[lo:hi]))
        return ref_us * statistics.fmean(ratios)


def gap_ratio(dp: DenoiseProblem, x, p) -> float:
    """Certified duality gap relative to (1/2)||z||^2."""
    return dp.duality_gap(x, p) / (0.5 * float(np.sum(dp.z.values**2)))


def to_db(ratio: float) -> float:
    return DB_CLAMP if ratio <= 0.0 else max(DB_CLAMP, 10.0 * math.log10(ratio))


def first_at_or_below(values, threshold) -> int:
    return next((i for i, v in enumerate(values) if v <= threshold), NEVER)


def first_mu_zero(states) -> int:
    """First iteration with mu = 0 or phi = inf (the underflow defect)."""
    return next((i for i, st in enumerate(states) if st.mu == 0.0 or not math.isfinite(st.phi)), NEVER)


def boundary_blocks(y) -> int:
    """Final dual blocks on the cone boundary: head - ||tail|| <= 0."""
    return int(np.count_nonzero(y.heads - np.linalg.norm(y.tails, axis=1) <= 0.0))


def _problems(solver: str, x, gap_db: float, ref_x) -> list:
    out = []
    if not np.all(np.isfinite(x)):
        out.append("non-finite final iterate")
    if not gap_db <= GAP_BOUND_DB[solver]:
        out.append(f"gap {gap_db:.2f} dB above bound {GAP_BOUND_DB[solver]} dB")
    if ref_x is not None and not np.array_equal(x, ref_x):
        out.append("final iterate differs from the first repetition")
    return out


def reference_kernel(a):
    """Fixed numpy work on an (n, n, 2) field that runs no barrierpd code.

    The host's speed drifts by 15-40 % over minutes, in CPU time as well as
    wall time, and it differs between one solver run and the next.  This
    kernel is timed right after each set-up, solver run and CLI command, and
    each timing metric is scaled by the kernel time next to each of its
    operations (Outcome.scaled).  Most of the drift cancels, while a change
    to barrierpd still shows in full.
    """
    g = np.zeros_like(a)
    g[:-1, :, 0] = a[1:, :, 0] - a[:-1, :, 0]
    g[:, :-1, 1] = a[:, 1:, 1] - a[:, :-1, 1]
    s = np.sqrt(np.sum(g * g, axis=2))
    return g / np.maximum(s, 1.0)[..., None]


def time_reference(field, out: Outcome):
    """Time the reference kernel for REF_BUDGET_S; its median goes to out.refs."""
    times = []
    end = clock() + REF_BUDGET_S
    while True:
        t = clock()
        reference_kernel(field)
        t1 = clock()
        times.append((t1 - t) * 1e6)
        if t1 >= end:
            out.refs.append((t1, statistics.median(times)))
            return


def reference_field(w: Workload):
    return np.random.default_rng(0).standard_normal((w.n, w.n, 2))


# ----- library workloads ---------------------------------------------------


def build(w: Workload, seed: int, tracer=None):
    """Noise, DenoiseProblem, first read of opnorm_D, saddle_problem()."""
    noisy = add_gaussian_noise(synthetic_image(w.n, w.n), SIGMA, seed)
    dp = DenoiseProblem(noisy, w.alpha, w.variant)
    with tracer.span("imaging.opnorm_D") if tracer else contextlib.nullcontext():
        dp.opnorm_D
    return dp, dp.saddle_problem()


def solve(solver: str, dp, sp, iters: int, callback):
    """One solver run through the public entry point."""
    if solver in RULE:
        cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
        return pedi_run(sp, cfg, iters, step_rule=RULE[solver], callback=callback)
    if solver == "pdhgm":
        return pdhgm_run(dp, BaselineConfig.default_for(dp, iters), callback=callback)
    return dual_fb_run(dp, iters, callback=callback)


def final_gap(solver: str, dp, res) -> float:
    """Relative certified gap at the final iterate and unlifted dual field."""
    return gap_ratio(dp, res.x, dp.unlifted_dual(res.y) if solver in RULE else res.p)


def _unwrapped(dp) -> list:
    leaked = wrapped_points()
    if "project_dual" in vars(dp):
        leaked.append("DenoiseProblem.project_dual")
    return [f"untraced run saw wrappers: {leaked}"] if leaked else []


def library_untraced(w: Workload, seed: int, seconds: float, out: Outcome):
    dp, sp = build(replace(w, n=16), seed)
    for solver in SOLVERS:
        solve(solver, dp, sp, 3, None)

    field = reference_field(w)
    for _ in range(SETUP_REPS):
        t = clock()
        dp, sp = build(w, seed)
        t1 = clock()
        out.op("setup_s", t, t1, t1 - t)
        time_reference(field, out)

    ref = {}
    start, reps = clock(), 0
    while reps < MIN_REPS or clock() - start < seconds:
        pass_s, pass_start = 0.0, clock()
        for solver in SOLVERS:
            label = f"{solver} rep {reps}"
            leaked = _unwrapped(dp)
            stamps = []
            t0 = clock()
            try:
                res = solve(solver, dp, sp, ITERS, lambda *_: stamps.append(clock()))
            except Exception as exc:  # counted as a failed operation
                out.check(label, [repr(exc)])
                continue
            t1 = clock()
            pass_s += t1 - t0
            iter_us = np.diff([t0] + stamps) * 1e6
            out.add(f"iter_us.{solver}", iter_us)
            out.op(f"iter_us.{solver}", t0, t1, float(np.mean(iter_us)))
            gap = final_gap(solver, dp, res)
            ref.setdefault(solver, (res.x, gap))
            out.check(label, leaked + _unwrapped(dp) + _problems(solver, res.x, to_db(gap), ref[solver][0]))
            time_reference(field, out)
        out.op("cli_run_s", pass_start, clock(), pass_s)
        reps += 1
    for solver, (_, gap) in ref.items():
        out.values[f"gap_rel.{solver}"] = max(gap, GAP_FLOOR)
        out.values[f"gap_db.{solver}"] = to_db(gap)
    return ref


def library_traced(w: Workload, seed: int, out: Outcome, ref: dict):
    tracer = Tracer()
    traced_us = {}
    with instrumented(tracer, {}):
        with tracer.span("bench.setup"):
            dp, sp = build(w, seed, tracer)
        for solver in SOLVERS:
            enter, leave, gaps = [], [], []
            pedi = solver in RULE

            def check(i, x, second, *_):
                enter.append(clock())
                with tracer.span("bench.check"):
                    gaps.append(to_db(gap_ratio(dp, x, dp.unlifted_dual(second) if pedi else second)))
                leave.append(clock())

            try:
                with tracer.solver_run("pedi.run" if pedi else "baselines.run", TAG[solver]):
                    leave.append(clock())
                    if pedi:
                        res = solve(solver, dp, tracer.wrap_saddle(sp), ITERS, check)
                    else:
                        with tracer.wrap_project_dual(dp):
                            res = solve(solver, dp, sp, ITERS, check)
            except Exception as exc:  # counted as a failed operation
                out.check(f"{solver} traced", [repr(exc)])
                continue
            traced_us[solver] = float(np.mean(np.subtract(enter, leave[:-1]))) * 1e6
            ref_x = ref[solver][0] if solver in ref else None
            out.check(f"{solver} traced", _problems(solver, res.x, gaps[-1], ref_x))
            group = "pedi" if pedi else "baselines"
            out.values[f"{group}.iters_to_gap.{TAG[solver]}"] = first_at_or_below(gaps, GAP_TRACE_DB)
            if pedi:
                out.values[f"pedi.mu_zero_iter.{TAG[solver]}"] = first_mu_zero(res.states)
                out.values[f"pedi.boundary_blocks.{TAG[solver]}"] = boundary_blocks(res.y)
    out.values["cli.log_share"] = 0.0
    for solver in SOLVERS:
        out.values[f"cli.wall_seconds_inflation.{solver}"] = 0.0
    untraced = sum(statistics.fmean(out.samples[f"iter_us.{s}"]) for s in traced_us)
    out.values["trace_overhead"] = sum(traced_us.values()) / untraced - 1.0 if traced_us else 0.0
    _finish_trace(tracer, out)


# ----- CLI workload --------------------------------------------------------


def _invoke(runner: CliRunner, args, tracer, span: str):
    """Run one command; returns its start and end time, output and problems."""
    with tracer.span(span) if tracer else contextlib.nullcontext():
        t = clock()
        res = runner.invoke(cli.main, args)
        t1 = clock()
    problems = [] if res.exit_code == 0 else [f"exit {res.exit_code}: {res.output.strip()[-300:]} {res.exception!r}"]
    return (t, t1), res.output, problems


def read_log(path: Path, iters: int):
    """CSV rows as string tuples plus the problems found in them."""
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [], [repr(exc)]
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"bad header {lines[:1]}"]
    rows = [tuple(line.split(",")) for line in lines[1:]]
    problems = []
    if [r[0] for r in rows] != [str(i) for i in range(iters)] or any(len(r) != 5 for r in rows):
        problems.append("rows are not iterations 0..iters-1 with 5 columns")
    else:
        try:
            if not all(math.isfinite(float(v)) for r in rows for v in r):
                problems.append("non-finite value")
        except ValueError as exc:
            problems.append(repr(exc))
    return rows, problems


def crossing(rows, col: int, threshold: float):
    """First crossing as `table` reports it: iteration rounded up to 10, seconds."""
    for r in rows:
        if float(r[col]) <= threshold:
            return str(((int(r[0]) + 9) // 10) * 10), f"{float(r[1]):.3f}"
    return "--", "--"


def table_problems(text: str, logs: dict) -> list:
    lines = text.strip().splitlines()
    if len(lines) != 1 + len(logs) or not lines[0].startswith("log"):
        return [f"table has {len(lines)} lines"]
    cols = {"gap": 2, "target": 3}
    for line, (solver, rows) in zip(lines[1:], logs.items()):
        hits = [crossing(rows, cols[t.split(":")[0]], float(t.split(":")[1])) for t in TABLE_THRESHOLDS]
        expected = [solver] + [h[0] for h in hits] + [h[1] for h in hits]
        if line.split() != expected:
            return [f"table row {line.split()} != {expected}"]
    return []


def cli_cycle(w: Workload, seed: int, workdir: Path, k: int, out: Outcome, ref: dict, tracer=None, field=None):
    """make-target, run and table in a fresh directory.

    Returns the (start, end) times of make-target and of run, and the CSV
    rows.  With a reference field, the reference kernel is timed after
    make-target and after run.
    """
    runner = CliRunner()
    d = workdir / f"cycle{k}"
    base = ["--image", str(workdir / "image.pgm"), "--variant", w.variant, "--alpha", repr(w.alpha),
            "--sigma", repr(SIGMA), "--seed", str(seed), "--out", str(d)]
    setup_t, _, problems = _invoke(runner, ["make-target", *base, "--target-iters", str(TARGET_ITERS)],
                                   tracer, "cli.target")
    out.check(f"make-target cycle {k}", problems)
    if field is not None:
        time_reference(field, out)
    run_t, _, problems = _invoke(runner, ["run", *base, "--target", "load", "--solvers", ",".join(SOLVERS),
                                          "--iters", str(ITERS)], tracer, "cli.run")
    leaked = [] if tracer else wrapped_points()
    out.check(f"run cycle {k}", problems + ([f"untraced run saw wrappers: {leaked}"] if leaked else []))
    if field is not None:
        time_reference(field, out)
    logs = {}
    for solver in SOLVERS:
        rows, problems = read_log(d / f"{solver}.csv", ITERS)
        logs[solver] = rows
        if not problems:
            gap_db = float(rows[-1][2])
            if not gap_db <= GAP_BOUND_DB[solver]:
                problems.append(f"gap {gap_db:.2f} dB above bound {GAP_BOUND_DB[solver]} dB")
            fixed = [(r[0],) + r[2:] for r in rows]
            if ref.setdefault(solver, fixed) != fixed:
                problems.append("iter,gap_db,target_db,value_db differ from the first repetition")
        out.check(f"{solver} cycle {k}", problems)
    thresholds = [a for t in TABLE_THRESHOLDS for a in ("--threshold", t)]
    _, text, problems = _invoke(runner, ["table", *(str(d / f"{s}.csv") for s in SOLVERS), *thresholds],
                                tracer, "cli.table")
    out.check(f"table cycle {k}", problems or table_problems(text, logs))
    shutil.rmtree(d, ignore_errors=True)
    return setup_t, run_t, logs


def cli_untraced(w: Workload, seed: int, seconds: float, out: Outcome, workdir: Path):
    write_pgm(synthetic_image(w.n, w.n), workdir / "image.pgm")
    field = reference_field(w)
    ref = {}
    start, k = clock(), 0
    while k < MIN_REPS or clock() - start < seconds:
        setup_t, run_t, logs = cli_cycle(w, seed, workdir, k, out, ref, field=field)
        for metric, (t, t1) in (("setup_s", setup_t), ("cli_run_s", run_t)):
            out.op(metric, t, t1, t1 - t)
        for solver, rows in logs.items():
            if rows:
                iter_us = np.diff([float(r[1]) for r in rows]) * 1e6
                out.add(f"iter_us.{solver}", iter_us)
                out.op(f"iter_us.{solver}", *run_t, float(np.mean(iter_us)))
        k += 1
    for solver, rows in ref.items():
        gap_db = float(rows[-1][1])
        out.values[f"gap_rel.{solver}"] = max(10.0 ** (gap_db / 10.0), GAP_FLOOR)
        out.values[f"gap_db.{solver}"] = gap_db
    return ref


def cli_traced(w: Workload, seed: int, out: Outcome, ref: dict, workdir: Path):
    tracer = Tracer()
    pedi_results = {}
    with instrumented(tracer, pedi_results):
        _, _, logs = cli_cycle(w, seed, workdir, -1, out, ref, tracer)
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def dur(sp):
        return (sp.end - sp.start) * 1e-9

    run_span = by_name["cli.run"][0]
    metrics_spans = by_name.get("cli.metrics", [])
    out.values["cli.log_share"] = sum(map(dur, metrics_spans)) / dur(run_span)
    for root in by_name.get("pedi.run", []) + by_name.get("baselines.run", []):
        solver = next(s for s in SOLVERS if TAG[s] == root.tag)
        solver_s = dur(root) - sum(dur(m) for m in metrics_spans if m.run == root.id)
        if logs.get(solver):
            out.values[f"cli.wall_seconds_inflation.{solver}"] = float(logs[solver][-1][1]) / solver_s
    for solver, rows in logs.items():
        group = "pedi" if solver in RULE else "baselines"
        out.values[f"{group}.iters_to_gap.{TAG[solver]}"] = first_at_or_below(
            [float(r[2]) for r in rows], GAP_TRACE_DB)
    for rule, res in pedi_results.items():
        out.values[f"pedi.mu_zero_iter.{rule}"] = first_mu_zero(res.states)
        out.values[f"pedi.boundary_blocks.{rule}"] = boundary_blocks(res.y)
    out.values["trace_overhead"] = dur(run_span) / statistics.fmean(r for _, _, r in out.ops["cli_run_s"]) - 1.0
    _finish_trace(tracer, out)


# ----- shared ---------------------------------------------------------------


def _finish_trace(tracer: Tracer, out: Outcome):
    """Layer totals into out.values, span arithmetic check, spans for the file."""
    totals = tracer.layer_totals()
    tags = set(TAG.values())
    scale = {"calls": 1, "self_s": 1e-9, "bytes": 1}
    for name, _ in PER_LAYER:
        prefix, _, fld = name.rpartition(".")
        if fld not in scale or name in out.values:
            continue
        span, _, tag = prefix.rpartition(".")
        if tag in tags:
            row = totals.get((span, tag), (0, 0, 0))
        else:
            rows = [v for (n, _), v in totals.items() if n == prefix]
            row = [sum(col) for col in zip(*rows)] if rows else (0, 0, 0)
        value = row[("calls", "self_s", "bytes").index(fld)] * scale[fld]
        out.values[name] = value
    bad = tracer.unbalanced_runs()
    out.check("span self times", [f"self times do not add up in {bad}"] if bad else [])
    out.spans = tracer.to_json()


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    out = Outcome()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if w.cli:
            ref = cli_untraced(w, seed, seconds, out, workdir)
            if trace:
                cli_traced(w, seed, out, ref, workdir)
        else:
            ref = library_untraced(w, seed, seconds, out)
            if trace:
                library_traced(w, seed, out, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out.values["ref_us"] = statistics.median(us for _, us in out.refs)
    for metric in ("setup_s", "cli_run_s", *(f"iter_us.{s}" for s in SOLVERS)):
        if out.ops.get(metric):
            out.values[f"raw.{metric}"] = statistics.fmean(raw for _, _, raw in out.ops[metric])
            out.values[metric] = out.scaled(metric, w.ref_us)
    for solver in SOLVERS:
        samples = out.samples.get(f"iter_us.{solver}", [])
        out.values[f"iter_samples.{solver}"] = len(samples)
        if samples:
            out.values[f"iter_us_p99.{solver}"] = float(np.percentile(samples, 99))
    out.values["failed_frac"] = len(out.failures) / max(out.attempted, 1)
    return out
