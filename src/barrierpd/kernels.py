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
alone, a projection into another out) runs the numpy reference unless it
shares such a form, as dual_value shares H1 dual_fb's z - D* p.  Every
function that calls a kernel keeps the numpy code it replaces, which runs
on the numpy path and for arrays a kernel rejects (non-contiguous, not
float64, overlapping), and which the tests use as the reference: both
compute every element with the same operations in the same order, so their
results are bit-identical.  Every gradient field or cone tail a kernel
takes is stored planar, all of plane 0 (the axis-0 differences) before
plane 1, the one layout of the package's dual fields.  The eight kernels,
ten forms in all, each make one stage whole, folding neighbouring
elementwise passes into their own:

* grad_adjoint(g, out, m) makes H1 dual_fb's x = z - D* p, which
  dual_value shares, and grad_adjoint(g, out, m, z, xb, t, theta) pdhgm's
  whole primal step, its prox and extrapolation, in D*'s pass;
* primal_step makes pedi's whole primal step, which the numpy code
  composes from the lifted K*, as x - (K* y) tau, then prox_G and _sumsq's
  ||x||^2;
* tv_dual (TV) and h1_dual (H1) make pedi's whole dual step, which the
  lifted apply_K composes on the numpy path as K x, then pedi's
  _tail_norms, the soc rule's np.min and _dual_update.  tv_dual keeps
  K x in registers; h1_dual forms it twice, once for its one block's norm
  and once to write y.  Both take y as a planar field, write it alone and
  store no K x;
* project_tv(v, p, alpha, floor, s) (TV) and project_h1(v, p, alpha, s)
  (H1) make the baselines' dual step, DenoiseProblem.project_dual with an
  ascent in place, which the numpy code runs as _grad, (D v) s + p and
  then the projection: project_tv in one pass, project_h1 as a
  sum of the ascent's squares formed on the fly followed by its write.
  project_tv(v, p, z, alpha, floor, s) makes TV dual_fb's whole
  iteration, project_dual with recover=z as well, whose numpy code then
  runs _grad_adjoint's v = z - D* p: one sweep that writes each tile's v
  right behind its projection;
* grad_sumsq makes H1's regularizer, and metric_sums(x, z, xhat, p, tv, c)
  a logged row's four sums (imaging.metrics) in one visit per pixel, D* p
  times the factor c formed in the same loop as the other terms on TV: c
  is 1 for a baseline's p and 2 for pedi's y, whose tails it reads as they
  lie, so that no logged row unlifts y.  DenoiseProblem.duality_gap shares
  it, with x as its own xhat, for the target solve's stopping test.

The kernels are bound by the divider, so each makes only the divisions
its algebra needs, and the numpy code it replaces uses the same
expressions: tv_dual and h1_dual form e = sqrt(t b0^2 + mu^2) + mu and the
tail factor (b0^2/2) / e, one division per block; primal_step and pdhgm's
grad_adjoint multiply by 1 / (1 + tau), taken once per call; project_tv
divides once per pixel.

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
Every element is computed as on one thread, so the split changes no
result.  The sums split too, except the metrics pass's: by the subtrees
of numpy's pairwise order, whose sums the caller adds in that order, so
they are also the same for any thread count.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
import shutil
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["PATH", "THREADS", "ext", "compiler", "load"]

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
