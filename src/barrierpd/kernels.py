"""Compiled kernels for the solvers' hot stages, built on first import.

``_kernels.c`` is compiled with the C compiler Python was built with into
this package's ``__pycache__`` and loaded from there as a CPython extension
module.  The build is cached under a key made of the SHA-256 of the source,
the compiler's resolved path and file stat (in place of its version, so that
a cache hit starts no process), the flags and the extension suffix.  A build
writes a temporary file and renames it into place, so processes importing at
the same time each load a complete file, and a successful build removes
the builds left under other keys.  The build gets the mode open() would
give it, 0o666 less the umask, which is read from the file the linker
creates in a private directory, never by changing the umask.

PATH names the path the solvers take: "c" when the extension loaded, and
otherwise "numpy (<reason>)", the reason being a missing compiler, the
compiler's error text or a cache directory that is not writable.  No option
selects the path.  A kernel form exists only for a stage that a solver
iteration or a logged row runs, and a one-off evaluation (D alone, D*
alone, dual_value's z - D* p, a projection into another out) runs numpy
code unless it shares such a form, as duality_gap shares a logged row's
metric_sums.

This module is the one home of the seven kernels.  Each is a function here,
named and called as the C form, whose body is its numpy reference; FORMS
maps each name to that reference.  A call runs the C form when PATH is
"c", and the reference on the numpy path and for arrays the kernel rejects
(non-contiguous, not float64, overlapping).  PATH and ext are read on every
call, so setting either selects the path, and no caller tests it.  The
references are the tests' reference: they and the kernels compute every
element with the same operations in the same order, so their results are
bit-identical.  They are built from _grad, _grad_adjoint, _sumsq,
_dual_update, _project and _pdhgm_step, numpy code only.  Every gradient
field or cone tail a kernel takes is stored planar, all of plane 0 (the
axis-0 differences) before plane 1, the one layout of the package's dual
fields.  The seven kernels, nine forms in all, each make one stage whole,
folding neighbouring elementwise passes into their own:

* primal_step(y, z, x, tau) makes pedi's whole primal step, which the
  reference composes as x - (K* y) tau into a new array, then the prox of G
  back into x and _sumsq's ||x||^2;
* tv_dual (TV) and h1_dual (H1), each (v, y, b0, mu), make pedi's whole
  dual step, which the reference composes as K x = _grad(v), its squared
  tail norms, the soc rule's np.min and _dual_update.  tv_dual keeps K x in
  registers; h1_dual forms it twice, once for its one block's norm and once
  to write y.  Both take y as a planar field, write it alone and store no
  K x;
* project_tv (TV) and project_h1 (H1) make a baseline's whole iteration,
  which the reference runs as _grad, (D v) s + p, _project into p and then
  the primal step.  project_tv(v, p, z, alpha, floor, s) and
  project_h1(v, p, z, alpha, s) make dual_fb's, whose primal step is
  v = z - D* p, _grad_adjoint's minuend form;
  project_tv(v, p, z, x, xn, alpha, floor, s, t, theta) and
  project_h1(v, p, z, x, xn, alpha, s, t, theta) make pdhgm's, whose primal
  step, _pdhgm_step, is the prox at x - t D* p into xn and its
  extrapolation over v.
  project_tv is one sweep that writes each tile's primal step right behind
  its projection; project_h1 sums the ascent's squares formed on the fly
  and then writes the projection, each block of rows followed by its
  primal step;
* grad_sumsq(v) makes H1's regularizer, and metric_sums(x, z, xhat, p, tv,
  c) a logged row's four sums (imaging.metrics) in one visit per pixel,
  D* p times the factor c formed in the same loop as the other terms on
  TV: c is 1 for a baseline's p and 2 for pedi's y, whose tails it reads as
  they lie, so that no logged row unlifts y.  DenoiseProblem.duality_gap
  shares it, with x as its own xhat, for the target solve's stopping test.

The kernels are bound by the divider, so each makes only the divisions
its algebra needs, and its reference uses the same expressions: tv_dual
and h1_dual form e = sqrt(t b0^2 + mu^2) + mu and the tail factor
(b0^2/2) / e, one division per block; primal_step and pdhgm's primal step
multiply by 1 / (1 + tau), taken once per call; project_tv divides once
per pixel.

tv_dual's minimum is exact in any order, and the kernels that sum --
metric_sums, primal_step's ||x||^2 for pedi's finiteness check, and the
sum of squares of a gradient formed on the fly (h1_dual's norm, H1's
regularizer and the baselines' H1 ascent) -- add their terms in the
pairwise order in which numpy's .sum() adds a float64 array, so no BLAS
takes part.  In the C source one stencil forms D for every kernel that
needs it, and one tree walker, specialised per leaf, adds every sum.

THREADS is the number of threads a large kernel call is split across,
the caller included: one per CPU in the process's affinity mask (so
``taskset`` restricts it), at most 8, and 1 on the numpy path.  The BLAS
thread variables do not set it, and neither does any option.  The worker
threads start on the first call whose every part would cover at least
32,768 pixels (on two CPUs a 256 x 256 image splits, a 128 x 128 one does
not), sleep between calls, and are started afresh in a forked child.
Each thread takes its own band of rows first, the same band in every
call, so one core keeps the same rows in its cache from one call to the
next; a thread that comes late takes what is left of the others' bands.
Every element is computed as on one thread, so the split changes no
result.  The sums split too, except the metrics pass's: by the subtrees
of numpy's pairwise order, each summed once by the thread whose band
holds its first pixel, and added by the caller in that order, so they
are also the same for any thread count.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import math
import os
import shlex
import shutil
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["PATH", "THREADS", "ext", "compiler", "load", "FORMS",
           "tv_dual", "h1_dual", "primal_step", "project_tv", "project_h1", "grad_sumsq", "metric_sums"]

SOURCE = Path(__file__).with_name("_kernels.c")
CACHE = Path(__file__).with_name("__pycache__")
# -ffp-contract=off keeps a*b + c from becoming a fused multiply-add
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-pthread", "-shared", "-fPIC")


def compiler() -> list:
    """The compiler command Python was built with, as an argument list."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _compile(cc: list, out: str):
    """Compile SOURCE into out; the compiler's error text on failure, else None."""
    import subprocess

    include = sysconfig.get_paths()["include"]
    cmd = [*cc, *FLAGS, "-I", include, str(SOURCE), "-o", out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        return str(exc)
    if done.returncode:
        return (done.stderr.strip() or f"exit status {done.returncode}")[-500:]
    return None


def load(cache: Path, cc: list):
    """(extension module, "c"), or (None, "numpy (<reason>)") when it cannot load.

    A build that succeeds removes the builds under other keys from cache;
    a cache hit or a failed build removes nothing.
    """
    try:
        source = SOURCE.read_bytes()
    except OSError as exc:
        return None, f"numpy (no kernel source: {exc})"
    exe = shutil.which(cc[0]) if cc else None
    if exe is None:
        return None, f"numpy (no C compiler: {' '.join(cc)!r} not found)"
    exe = os.path.realpath(exe)
    st = os.stat(exe)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(source)
    for part in (exe, st.st_size, st.st_mtime_ns, *cc, *FLAGS, suffix):
        key.update(f"\0{part}".encode())
    path = cache / f"_kernels.{key.hexdigest()[:16]}{suffix}"
    if not path.exists():
        try:
            cache.mkdir(exist_ok=True)
            tmpdir = tempfile.mkdtemp(dir=cache, prefix=path.name, suffix=".tmp")
        except OSError as exc:
            return None, f"numpy (cache directory not writable: {exc})"
        # a file the linker creates gets 0o777 less the umask; without the
        # execute bits that is the mode open() gives, and the umask is never
        # changed, not even to read it
        tmp = os.path.join(tmpdir, path.name)
        try:
            error = _compile(cc, tmp)
            if error is not None:
                return None, f"numpy (build failed: {error})"
            os.chmod(tmp, os.stat(tmp).st_mode & 0o666)
            os.replace(tmp, path)
        except OSError as exc:
            return None, f"numpy (build failed: {exc})"
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        for old in cache.glob("_kernels.*" + suffix):
            if old != path:
                try:
                    old.unlink()
                except OSError:
                    pass
    spec = importlib.util.spec_from_file_location(f"{__package__}._kernels", path)
    try:
        ext = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ext)
    except ImportError as exc:
        return None, f"numpy (load failed: {exc})"
    return ext, "c"


ext, PATH = load(CACHE, compiler())
THREADS = ext.THREADS if PATH == "c" else 1


# ---------------------------------------------------------------------------
# the numpy building blocks of the references


def _grad(values: np.ndarray) -> np.ndarray:
    """Gradient of an (n1, n2) array as a new planar (2, n1, n2) field.

    The axis-1 difference is one shifted pass over the flattened plane; the
    entries it computes across row ends fall in the last column, which the
    Neumann boundary then zeroes.  It is numpy code only: no loop stores
    D v, and the kernels that need it (pedi's dual step, the baselines'
    projections, the metric and H1 sums) form it on the fly with these
    operations.
    """
    out = np.empty((2,) + values.shape)
    g1f = out[1].reshape(-1)
    vf = values.reshape(-1)
    np.subtract(values[1:, :], values[:-1, :], out=out[0, :-1, :])
    out[0, -1, :] = 0.0
    np.subtract(vf[1:], vf[:-1], out=g1f[:-1])
    out[1, :, -1] = 0.0
    return out


def _grad_adjoint(
    planes: np.ndarray,
    out: Optional[np.ndarray] = None,
    scale: float = 1.0,
    minuend: Optional[np.ndarray] = None,
    step: float = 1.0,
) -> np.ndarray:
    """scale times the adjoint of _grad on a planar (2, n1, n2) field, an (n1, n2) array, into out if given.

    The axis-1 terms are two shifted passes over the flattened plane, each
    of which also reaches one column it must leave alone (column 0 across
    row ends, then the last column); that column is saved before the pass
    and restored after it.  Every element sees the same operations in the
    same order as the 2-d column slices, so the result is exact for any
    field, whatever its boundary columns hold.  The product with scale comes
    last; with an (n1, n2) minuend m, which must not overlap out, out is
    then m minus that product times step: pedi's x - tau K* y (in
    primal_step), pdhgm's x - tau D* p (in _pdhgm_step), dual_fb's
    x = z - D* p (in project_tv and project_h1) and dual_value's z - D* p.
    out and the minuend may also be flat, the row-major flattening of an
    (n1, n2) array.  It is numpy code only: the loops' kernels form D* on
    the fly, the baselines' behind their projection.
    """
    if out is None:
        out = np.empty(planes.shape[1:])
    g0, g1 = planes[0], planes[1]
    flat = out
    out = out.reshape(g0.shape) if out.ndim == 1 else out
    # a 1-d view of out, ValueError if flattening it would copy; the flags
    # test spares contiguous arrays np.reshape's argument parsing
    of = out.reshape(-1) if out.flags.c_contiguous else np.reshape(out, -1, copy=False)
    g1f = g1.reshape(-1)
    out[0, :] = 0.0
    out[1:, :] = g0[:-1, :]
    out[:-1, :] -= g0[:-1, :]
    edge = out[:, 0].copy()
    of[1:] += g1f[:-1]
    out[:, 0] = edge
    edge[:] = out[:, -1]
    of -= g1f
    out[:, -1] = edge
    if scale != 1.0:
        out *= scale
    if minuend is not None:
        if step != 1.0:
            out *= step
        np.subtract(minuend.reshape(out.shape), out, out=out)
    return flat


# the most entries _sumsq squares at once
_SLICE = 8192


def _sumsq(a: np.ndarray) -> float:
    """Sum of the squares of a's entries in C order, as np.square(a).sum() adds those of a C-contiguous a.

    It adds them in numpy's pairwise order, summing the order's subtrees
    down to slices of at most _SLICE entries, each squared into a small
    buffer and summed by numpy, so it allocates no array of a's size unless
    a must be copied into C order.  That is what it is for: in the numpy
    loops at 256 x 256 an image-sized square beside K x or an ascent made
    glibc give the top of the heap back on every iteration, some 480 page
    faults a call, which doubled an H1 iteration.  A sum that overflows is
    inf, with no warning.  The kernels that sum squares (grad_sumsq,
    h1_dual's norm, primal_step's ||x||^2, project_h1's ascent norm) add
    them in the same order.  H1's norms sum a planar field with it, so their
    roundoff depends on neither the field's strides nor BLAS.
    """
    flat = np.ravel(a)
    with np.errstate(over="ignore"):
        return _pairwise_sumsq(flat, np.empty(min(flat.size, _SLICE)))


def _pairwise_sumsq(a: np.ndarray, buf: np.ndarray) -> float:
    """The sum of the squares of the 1-d a in numpy's pairwise order, squared into buf slice by slice."""
    n = a.size
    if n <= _SLICE:
        return float(np.square(a, out=buf[:n]).sum())
    # numpy's pairwise sum splits at half the length, rounded down to a multiple of 8
    h = n // 2 - n // 2 % 8
    return _pairwise_sumsq(a[:h], buf) + _pairwise_sumsq(a[h:], buf)


def _tv(v: np.ndarray) -> float:
    """The TV seminorm of the (n1, n2) image v, the sum of its pixels' gradient norms."""
    g = _grad(v)
    norms = np.einsum("kij,kij->ij", g, g)
    return float(np.sqrt(norms, out=norms).sum())


def _dual_update(g: np.ndarray, tn2: np.ndarray, b0: float, mu: float, y: np.ndarray):
    """Closed-form dual solve per block for a = e and c_b = -(Kx)_b, into the planar field y.

    g is K x as the planar gradient field, and tn2 the squared tail norms t
    of its blocks, an (n1, n2) array on TV and a one-entry array on H1; it
    is overwritten: e and then the tail factor take its buffer, so the
    solve allocates nothing block-sized beside K x and tn2 (see _sumsq for
    why that matters).  With e = sqrt(t b0^2 + mu^2) + mu, the head of d_b
    would be e / b0 and the tail of y_b is tail(Kx)_b times
    s = (b0^2/2) / e: that is (b0/2) / head(d_b), with one division in
    place of two.  Writes the tails of y into y; head(y_b) = b0/2.
    """
    e = tn2
    e *= b0 * b0
    e += mu * mu
    np.sqrt(e, out=e)
    e += mu
    if e.min() > 0.0:
        scale = np.divide(b0 * b0 / 2.0, e, out=e)
    else:
        # e = 0 only when mu underflowed and so did b0^2 ||tail||^2; such
        # a block gets a zero dual tail
        scale = np.divide(b0 * b0 / 2.0, e, out=np.zeros_like(e), where=e > 0.0)
    np.multiply(g, scale, out=y)


def _project(a: np.ndarray, out: np.ndarray, alpha: float, floor: Optional[float]) -> None:
    """The planar field a projected onto the dual ball of radius alpha, into out.

    With a floor, per pixel (TV): each pixel times alpha / max(norm, floor),
    flooring the norm at alpha capping that factor at 1 without a second
    pass.  Without, globally (H1): a times 1 when sqrt(_sumsq(a)) <= alpha,
    else times alpha over that norm.
    """
    if floor is None:
        nrm = math.sqrt(_sumsq(a))
        np.multiply(a, 1.0 if nrm <= alpha else alpha / nrm, out=out)
        return
    scale = np.einsum("kij,kij->ij", a, a)
    np.sqrt(scale, out=scale)
    np.maximum(scale, floor, out=scale)
    np.divide(alpha, scale, out=scale)
    np.multiply(a, scale, out=out)


# ---------------------------------------------------------------------------
# the kernel forms, each with its numpy reference as its body

FORMS = {}


def _form(reference):
    """The kernel form named as reference: ext's function on the compiled path, else reference.

    The form calls reference on the numpy path and when the kernel raises
    ValueError, which it does before it writes anything.  It reads PATH and
    ext on every call.
    """
    name = reference.__name__
    FORMS[name] = reference

    @functools.wraps(reference)
    def form(*args):
        if PATH == "c":
            try:
                return getattr(ext, name)(*args)
            except ValueError:
                pass
        return reference(*args)

    return form


def _dual_step(v, y, b0, mu, tv: bool) -> float:
    """tv_dual's (tv) or h1_dual's reference: K x = _grad(v), its least squared tail norm, the solve into y."""
    g = _grad(v.reshape(y.shape[1:]))
    tn2 = np.einsum("kij,kij->ij", g, g) if tv else np.array([_sumsq(g)])
    minimum = float(np.min(tn2))
    _dual_update(g, tn2, b0, mu, y)
    return minimum


@_form
def tv_dual(v, y, b0, mu):
    """pedi's dual step on TV into the planar field y, from the image v: the least squared tail norm of K x."""
    return _dual_step(v, y, b0, mu, True)


@_form
def h1_dual(v, y, b0, mu):
    """pedi's dual step on H1 into the planar field y, from the image v: the one block's squared norm."""
    return _dual_step(v, y, b0, mu, False)


@_form
def primal_step(y, z, x, tau):
    """pedi's primal step x = prox_G(x - tau K* y, tau) in place, with K* y = 2 D* y: the new ||x||^2.

    The prox is (z tau + v) r, with r = 1 / (1 + tau) taken once.
    """
    v = _grad_adjoint(y, np.empty(x.shape), 2.0, x, tau)
    np.multiply(z.reshape(x.shape), tau, out=x)
    x += v
    x *= 1.0 / (1.0 + tau)
    return _sumsq(x)


def _iteration(v, p, z, prox, alpha, floor, s, t=0.0, theta=0.0):
    """A baseline's iteration: p = P(p + s D v) in place, then the primal step.

    That step is dual_fb's v = z - D* p, or with prox = (x, xn) pdhgm's
    prox at x - t D* p into xn and its extrapolation over v.
    """
    a = _grad(v.reshape(p.shape[1:]))
    a *= s
    a += p
    _project(a, p, alpha, floor)
    if prox is None:
        _grad_adjoint(p, out=v, minuend=z)
    else:
        _pdhgm_step(p, z, *prox, v, t, theta)


def _pdhgm_step(p, z, x, xn, v, t, theta):
    """pdhgm's primal step from p: the prox at x - t D* p into xn, then its extrapolation over v.

    The prox is ((x - t D* p) + z t) r, with r = 1 / (1 + t) taken once, and
    the extrapolation (xn - x) theta + xn.  x, xn, z and v are (n1, n2)
    images or their flattenings; v may overlap no other argument.
    """
    w = _grad_adjoint(p, out=xn, minuend=x, step=t).reshape(p.shape[1:])
    xb = v.reshape(w.shape)
    np.multiply(z.reshape(w.shape), t, out=xb)
    w += xb
    w *= 1.0 / (1.0 + t)
    np.subtract(w, x.reshape(w.shape), out=xb)
    xb *= theta
    xb += w


@_form
def project_tv(v, p, z, *args):
    """project_tv(v, p, z, alpha, floor, s), dual_fb's iteration on TV, or
    project_tv(v, p, z, x, xn, alpha, floor, s, t, theta), pdhgm's."""
    prox, args = (args[:2], args[2:]) if len(args) == 7 else (None, args)
    _iteration(v, p, z, prox, *args)


@_form
def project_h1(v, p, z, *args):
    """project_h1(v, p, z, alpha, s), dual_fb's iteration on H1, or
    project_h1(v, p, z, x, xn, alpha, s, t, theta), pdhgm's."""
    prox, (alpha, *steps) = (args[:2], args[2:]) if len(args) == 6 else (None, args)
    _iteration(v, p, z, prox, alpha, None, *steps)


@_form
def grad_sumsq(v):
    """The sum of the squares of grad v, for the (n1, n2) image v."""
    return _sumsq(_grad(v))


@_form
def metric_sums(x, z, xhat, p, tv, c):
    """(sum (x - z)^2, the TV of x if tv else 0, sum (z - (D* p) c)^2, sum (x - xhat)^2) for the planar p."""
    r = np.subtract(x, z)
    xz2 = float(np.square(r, out=r).sum())
    reg = _tv(np.reshape(x, p.shape[1:])) if tv else 0.0
    w = _grad_adjoint(p, scale=c, minuend=z).reshape(-1)
    zp2 = float(np.square(w, out=w).sum())
    r = np.subtract(x, xhat)
    return xz2, reg, zp2, float(np.square(r, out=r).sum())
