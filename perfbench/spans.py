"""In-memory spans, self-time arithmetic and layer wrappers for the traced run.

A span records a name, a solver tag, start and end in nanoseconds, its parent
span and the solver run (root span) it belongs to.  Spans are recorded only by
wrappers that this module installs around the calls that cross into a layer of
``barrierpd``; nothing inside the package is edited.  ``instrumented`` installs
the module-level wrappers and removes them on exit, so an untraced run never
sees one.

Self time is a span's duration minus the part of its interval that its child
spans cover (children are clipped to the parent and overlaps counted once).
For a well-nested tree the self times of a root and all its descendants add
up to the root's duration exactly, since times are integers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

clock_ns = time.perf_counter_ns


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    run: int
    name: str
    tag: Optional[str]
    start: int
    end: int = -1
    nbytes: int = 0


def nbytes(obj) -> int:
    """Computed bytes of the arrays in obj (arrays, cone vectors, tuples)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(o) for o in obj)
    heads = getattr(obj, "heads", None)
    if isinstance(heads, np.ndarray):
        return heads.nbytes + obj.tails.nbytes
    return 0


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of intervals, each clipped to [start, end]."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Self time in ns of every span, indexed like spans."""
    children = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [sp.end - sp.start - covered_ns(sp.start, sp.end, children.get(sp.id, ())) for sp in spans]


def subtree_self_sum(spans, selfs, root_id: int) -> int:
    """Sum of the self times of a span and all of its descendants."""
    kids = {}
    for sp in spans:
        kids.setdefault(sp.parent, []).append(sp.id)
    total, todo = 0, [root_id]
    index = {sp.id: i for i, sp in enumerate(spans)}
    while todo:
        sid = todo.pop()
        total += selfs[index[sid]]
        todo.extend(kids.get(sid, ()))
    return total


class Tracer:
    """Records spans in memory; one tracer per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._run = -1
        self._tag = None
        self.muted = False

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        sp = Span(len(self.spans), parent, self._run, name, self._tag, clock_ns())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp: Span):
        sp.end = clock_ns()
        if self._stack.pop() is not sp:
            raise RuntimeError(f"span {sp.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    @contextlib.contextmanager
    def solver_run(self, name: str, tag: str):
        """Root span of one solver run; spans inside carry its id and tag."""
        outer = self._run, self._tag
        self._tag = tag
        sp = self.open(name)
        self._run = sp.id
        sp.run = sp.id
        try:
            yield sp
        finally:
            self.close(sp)
            self._run, self._tag = outer

    @contextlib.contextmanager
    def mute(self):
        """Let wrapped calls pass through without recording spans."""
        was, self.muted = self.muted, True
        try:
            yield
        finally:
            self.muted = was

    def wrap(self, fn, name: str, count_bytes: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted:
                return fn(*args, **kwargs)
            sp = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if count_bytes:
                sp.nbytes = nbytes(args) + nbytes(out)
            return out

        traced.perfbench_wrapper = True
        return traced

    # ----- instance-level wrappers (no global state to restore) ---------

    def wrap_saddle(self, sp):
        """Copy of a SaddleProblem whose operator callables record spans."""
        return dataclasses.replace(
            sp,
            apply_K=self.wrap(sp.apply_K, "imaging.apply_K", True),
            apply_K_adjoint=self.wrap(sp.apply_K_adjoint, "imaging.apply_K_adjoint", True),
            prox_G=self.wrap(sp.prox_G, "imaging.prox_G", True),
        )

    @contextlib.contextmanager
    def wrap_project_dual(self, dp):
        """Wrap DenoiseProblem.project_dual on one instance for a block."""
        dp.project_dual = self.wrap(dp.project_dual, "imaging.project_dual", True)
        try:
            yield dp
        finally:
            del dp.project_dual

    # ----- summaries ------------------------------------------------------

    def layer_totals(self) -> dict:
        """{(name, tag): [calls, self_ns, bytes]} over all recorded spans."""
        selfs = self_times(self.spans)
        out = {}
        for sp, s in zip(self.spans, selfs):
            row = out.setdefault((sp.name, sp.tag), [0, 0, 0])
            row[0] += 1
            row[1] += s
            row[2] += sp.nbytes
        return out

    def unbalanced_runs(self) -> list:
        """Solver runs whose subtree self times do not add up to their span."""
        selfs = self_times(self.spans)
        bad = []
        for sp in self.spans:
            if sp.id == sp.run and subtree_self_sum(self.spans, selfs, sp.id) != sp.end - sp.start:
                bad.append(sp.name)
        return bad

    def to_json(self) -> list:
        selfs = self_times(self.spans)
        return [
            {"id": sp.id, "parent": sp.parent, "run": sp.run, "name": sp.name, "tag": sp.tag,
             "start_ns": sp.start, "end_ns": sp.end, "self_ns": s, "bytes_computed": sp.nbytes}
            for sp, s in zip(self.spans, selfs)
        ]


# Module attributes replaced while a traced run is active:
# (module, attribute, span name, count bytes).
PATCH_POINTS = (
    ("barrierpd.baselines", "_grad", "imaging.grad", True),
    ("barrierpd.baselines", "_grad_adjoint", "imaging.grad_adjoint", True),
    ("barrierpd.pedi", "step_rule_general", "pedi.step_rule", False),
    ("barrierpd.pedi", "step_rule_soc", "pedi.step_rule", False),
    ("barrierpd.pedi", "central_path_solve", "barrier.central_path_solve", False),
    ("barrierpd.cli", "metrics", "cli.metrics", False),
    ("barrierpd.cli", "read_pgm", "pgm.read_pgm", False),
    ("barrierpd.cli", "pedi_run", None, False),
    ("barrierpd.cli", "pdhgm_run", None, False),
    ("barrierpd.cli", "dual_fb_run", None, False),
)


def wrapped_points() -> list:
    """Names of the patch points that currently hold a wrapper."""
    from barrierpd.jordan import BlockConeVector

    found = [f"{m}.{a}" for m, a, _, _ in PATCH_POINTS
             if getattr(getattr(importlib.import_module(m), a), "perfbench_wrapper", False)]
    if getattr(BlockConeVector.from_arrays, "perfbench_wrapper", False):
        found.append("barrierpd.jordan.BlockConeVector.from_arrays")
    return found


@contextlib.contextmanager
def instrumented(tracer: Tracer, pedi_results: dict):
    """Install the layer wrappers for the duration of a traced run.

    The CLI's solver entry points become solver runs; the pedi results they
    return are stored in pedi_results by step rule.  A pdhgm_run issued by
    ``make-target`` is the target solve: one ``cli.target_solve`` span, with
    the gradient wrappers muted inside it.
    """
    from barrierpd.jordan import BlockConeVector

    modules = [importlib.import_module(m) for m, _, _, _ in PATCH_POINTS]
    saved = [(mod, a, getattr(mod, a)) for mod, (_, a, _, _) in zip(modules, PATCH_POINTS)]
    saved_from_arrays = BlockConeVector.__dict__["from_arrays"]
    originals = {a: fn for _, a, fn in saved}

    def cli_pedi_run(sp, cfg, iters, step_rule="general", **kwargs):
        with tracer.solver_run("pedi.run", step_rule):
            res = originals["pedi_run"](tracer.wrap_saddle(sp), cfg, iters, step_rule=step_rule, **kwargs)
        pedi_results[step_rule] = res
        return res

    def cli_pdhgm_run(problem, config, callback=None):
        cur = tracer.current
        if cur is not None and cur.name == "cli.target":
            with tracer.span("cli.target_solve"), tracer.mute():
                return originals["pdhgm_run"](problem, config, callback)
        with tracer.solver_run("baselines.run", "pdhgm"), tracer.wrap_project_dual(problem):
            return originals["pdhgm_run"](problem, config, callback)

    def cli_dual_fb_run(problem, max_iters, callback=None):
        with tracer.solver_run("baselines.run", "dual-fb"), tracer.wrap_project_dual(problem):
            return originals["dual_fb_run"](problem, max_iters, callback)

    special = {"pedi_run": cli_pedi_run, "pdhgm_run": cli_pdhgm_run, "dual_fb_run": cli_dual_fb_run}
    try:
        for (mod, attr, fn), (_, _, name, count) in zip(saved, PATCH_POINTS):
            wrapper = special[attr] if name is None else tracer.wrap(fn, name, count)
            wrapper.perfbench_wrapper = True
            setattr(mod, attr, wrapper)
        BlockConeVector.from_arrays = classmethod(
            tracer.wrap(saved_from_arrays.__func__, "jordan.from_arrays", True)
        )
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        BlockConeVector.from_arrays = saved_from_arrays
