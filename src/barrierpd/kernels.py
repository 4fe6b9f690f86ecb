"""Compiled kernels for the solvers' hot stages, built on first import.

``_kernels.c`` is compiled with the C compiler Python was built with into
this package's ``__pycache__`` and loaded from there as a CPython extension
module.  The build is cached under a key made of the SHA-256 of the source,
the compiler's resolved path and file stat (in place of its version, so that
a cache hit starts no process), the flags and the extension suffix.  A build
writes a temporary file and renames it into place, so processes importing at
the same time each load a complete file, and a successful build removes
the builds left under other keys.

PATH names the path the solvers take: "c" when the extension loaded, and
otherwise "numpy (<reason>)", the reason being a missing compiler, the
compiler's error text or a cache directory that is not writable.  No option
selects the path.  Every function that calls a kernel keeps the numpy code
it replaces, which runs on the numpy path and for arrays a kernel rejects
(non-contiguous, not float64, overlapping), and which the tests use as the
reference: both compute every element with the same operations in the same
order, so their results are bit-identical.

THREADS is the number of threads a large kernel call is split across,
the caller included: one per CPU in the process's affinity mask (so
``taskset`` restricts it), at most 8, and 1 on the numpy path.  The BLAS
thread variables do not set it, and neither does any option.  The worker
threads start on the first call whose every part would cover at least
32,768 pixels (on two CPUs a 256 x 256 image splits, a 128 x 128 one does
not), sleep between calls, and are started afresh in a forked child.
Every element is computed as on one thread, so the split changes no
result.
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
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=path.name, suffix=".tmp")
        except OSError as exc:
            return None, f"numpy (cache directory not writable: {exc})"
        os.close(fd)
        try:
            error = _compile(cc, tmp)
            if error is not None:
                return None, f"numpy (build failed: {error})"
            mask = os.umask(0)
            os.umask(mask)
            os.chmod(tmp, 0o666 & ~mask)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
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
