"""The compiled kernels against the numpy code they replace.

Each stage is run on both paths by switching kernels.PATH, the one attribute
that selects the path; the numpy path is the reference, and the two must
agree bit for bit (NaN payloads aside) on fields with nonzero boundary
entries, signed zeros, subnormals, infinities and NaN.  The cache tests
build into temporary directories, so they never touch the package's own
build.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from barrierpd import baselines, imaging, kernels, pedi
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, _grad, _grad_adjoint, add_gaussian_noise, synthetic_image
from barrierpd.pedi import StepConfig, pedi_run

ROOT = Path(__file__).resolve().parents[1]
SHAPES = [(1, 1), (1, 7), (7, 1), (3, 5), (64, 64)]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, 1e200, -1e-200]
NUMPY = "numpy (selected by the test)"

needs_c = pytest.mark.skipif(kernels.PATH != "c", reason=f"kernels: {kernels.PATH}")
shape_ids = "{0[0]}x{0[1]}".format


def identical(a, b) -> bool:
    """Bitwise equality of two float arrays, with any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    na, nb = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(na, nb)
            and np.array_equal(a[~na].view(np.int64), b[~nb].view(np.int64)))


def special(rng, shape):
    """Standard normal entries with the special values planted at random places."""
    a = rng.standard_normal(shape)
    flat = a.reshape(-1)
    idx = rng.permutation(flat.size)[: min(flat.size // 3, 4 * len(SPECIALS))]
    flat[idx] = np.resize(SPECIALS, idx.size)
    return a


def on_both_paths(monkeypatch, stage, *arrays):
    """stage(*copies) on the compiled path, then on the numpy path: two lists of the copies.

    Each path gets its own copies of the arrays, since stages write in place;
    a stage's return value is appended to its list.
    """
    results = []
    for path in ("c", NUMPY):
        monkeypatch.setattr(kernels, "PATH", path)
        copies = [a.copy(order="K") for a in arrays]
        with np.errstate(all="ignore"):
            ret = stage(*copies)
        results.append(copies + [ret])
    return results


def assert_identical(c, ref):
    for got, want in zip(c, ref):
        if isinstance(want, np.ndarray) or isinstance(want, float):
            assert identical(got, want), (got, want)
        else:
            assert got == want


# ---------------------------------------------------------------------------
# each kernel bit for bit


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_gradient_pair(monkeypatch, rng, shape):
    v, planes = special(rng, shape), special(rng, (2,) + shape)
    c, ref = on_both_paths(monkeypatch, lambda v, out: _grad(v, out), v, np.full((2,) + shape, 7.0))
    assert_identical(c, ref)
    for scale in (1.0, 2.0):
        c, ref = on_both_paths(monkeypatch, lambda g, out: _grad_adjoint(g, out, scale), planes, np.empty(shape))
        assert_identical(c, ref)


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_tail_norms_and_min(monkeypatch, rng, shape):
    n = shape[0] * shape[1]
    for field in (rng.standard_normal((2, n)), special(rng, (2, n))):
        c, ref = on_both_paths(monkeypatch, lambda k, t: pedi._tail_norms(k.T, t, True), field, np.empty(n))
        assert_identical(c, ref)
        assert identical(c[-1], np.min(ref[1]))
    # np.min's answer with NaN present is NaN, and +0 is a minimum like any other
    field = np.zeros((2, n))
    field[0, -1] = np.nan
    assert np.isnan(pedi._tail_norms(field.T, np.empty(n), True))
    assert pedi._tail_norms(np.zeros((2, n)).T, np.empty(n), True) == 0.0


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("mu", [0.3, 1e-200, 0.0])
def test_dual_solve(monkeypatch, rng, shape, mu):
    n = shape[0] * shape[1]
    for kx in (rng.standard_normal((2, n)), special(rng, (2, n))):
        tn2 = np.einsum("ij,ij->i", kx.T, kx.T)

        def stage(kx, tn2, d0, y):
            pedi._dual_update(kx.T, tn2, 0.7, mu, d0, y.T)

        c, ref = on_both_paths(monkeypatch, stage, kx, tn2, np.empty(n), np.empty((2, n)))
        # the numpy path overwrites tn2; compare kx, d0 and y
        assert_identical([c[0], c[2], c[3]], [ref[0], ref[2], ref[3]])


@needs_c
def test_dual_solve_zero_heads(monkeypatch, rng):
    # b0^2 underflows to 0 and mu = 0, so every head d0 is 0: the tails must be 0, not NaN
    kx = rng.standard_normal((2, 50))
    tn2 = np.einsum("ij,ij->i", kx.T, kx.T)
    stage = lambda kx, tn2, d0, y: pedi._dual_update(kx.T, tn2, 1e-170, 0.0, d0, y.T)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, kx, tn2, np.empty(50), np.full((2, 50), np.nan))
    for got in (c, ref):
        assert np.all(got[2] == 0.0) and np.all(got[3] == 0.0)
    assert identical(c[3], ref[3])


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_primal_stages(monkeypatch, rng, shape):
    n = shape[0] * shape[1]
    x, v, z = special(rng, n), special(rng, n), special(rng, n)
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.5, "tv")
    for tau in (0.3, 1e-300, 7.0):
        c, ref = on_both_paths(monkeypatch, lambda x, v: pedi._prox_argument(x, v, tau), x, v)
        assert_identical(c, ref)
        # prox_G reads the problem's own z, finite by construction
        c, ref = on_both_paths(monkeypatch, lambda v, out: dp.saddle_problem().prox_G(v, tau, out=out), v, np.empty(n))
        assert_identical(c, ref)
        c, ref = on_both_paths(monkeypatch, lambda g, p: baselines._ascent(g, tau, p), x.reshape(shape), z.reshape(shape))
        assert_identical(c, ref)
        stage = lambda x, w, xb, z: baselines._pdhgm_primal(x, w, xb, z, tau, 0.8)  # noqa: E731
        c, ref = on_both_paths(monkeypatch, stage, x, v, np.empty(n), z)
        assert_identical(c, ref)


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("alpha", [0.4, 1e-305, 1e3])
def test_project_dual_tv(monkeypatch, rng, shape, alpha):
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), alpha, "tv")
    planes = special(rng, (2,) + shape)
    planes[0].reshape(-1)[0] = alpha
    # planar-backed fields, the layout the baselines iterate on
    stage = lambda p, out: dp.project_dual(imaging._field(p), out=imaging._field(out))  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, planes, np.empty_like(planes))
    assert_identical(c[:2], ref[:2])


# ---------------------------------------------------------------------------
# whole solvers


def run_all(dp):
    """x, the dual iterate and the step states of all four solvers, 50 iterations each."""
    sp = dp.saddle_problem()
    out = []
    for rule in ("general", "soc"):
        res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 50, step_rule=rule)
        out.append((res.x, res.y.tails, res.d.heads, res.states))
    res = pdhgm_run(dp, BaselineConfig.default_for(dp, 50))
    out.append((res.x, res.p))
    res = dual_fb_run(dp, 50)
    out.append((res.x, res.p))
    return out


@needs_c
@pytest.mark.parametrize("variant, alpha", [("tv", 0.3), ("h1", 5.0)])
def test_solvers_identical_on_both_paths(monkeypatch, variant, alpha):
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), alpha, variant)
    got = run_all(dp)
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    want = run_all(dp)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            if isinstance(b, list):
                assert a == b
            else:
                assert identical(a, b)


class Recorder:
    """Stands in for the extension module, counting calls and rejected arguments."""

    def __init__(self, ext):
        self.ext, self.calls, self.rejected = ext, {}, []

    def __getattr__(self, name):
        fn = getattr(self.ext, name)

        def call(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            try:
                return fn(*args)
            except ValueError as exc:
                self.rejected.append((name, str(exc)))
                raise

        return call


@needs_c
def test_solvers_take_the_compiled_path(monkeypatch):
    # a kernel that rejected the solvers' own buffers would fall back silently
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), 0.3, "tv")
    sp = dp.saddle_problem()
    for rule in ("general", "soc"):
        pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 5, step_rule=rule)
    pdhgm_run(dp, BaselineConfig.default_for(dp, 5))
    dual_fb_run(dp, 5)
    assert rec.rejected == []
    assert rec.calls == {
        "grad": 20, "grad_adjoint": 2 * 5 + 2 * 5, "tail_norms": 10, "dual_solve": 10,
        "x_minus_tau_v": 10, "prox": 10, "scale_add": 10, "project_tv": 10, "pdhgm_primal": 5,
    }


# ---------------------------------------------------------------------------
# arrays a kernel rejects


@needs_c
def test_kernels_reject_without_writing(rng):
    ext = kernels.ext
    v = rng.standard_normal((4, 5))
    bad_outs = {
        "not contiguous": np.full((2, 4, 6), 7.0)[:, :, :5],
        "float32": np.full((2, 4, 5), 7.0, dtype=np.float32),
        "read-only": np.full((2, 4, 5), 7.0),
        "wrong shape": np.full((2, 5, 4), 7.0),
    }
    bad_outs["read-only"].flags.writeable = False
    for why, out in bad_outs.items():
        before = out.copy()
        with pytest.raises(ValueError):
            ext.grad(v, out)
        assert np.array_equal(out, before), why
    with pytest.raises(ValueError):
        ext.grad(v.T, np.empty((2, 5, 4)))
    with pytest.raises(ValueError):
        ext.grad(v.astype(np.float32), np.empty((2, 4, 5)))
    # an output overlapping an input
    buf = rng.standard_normal(3 * 20)
    with pytest.raises(ValueError):
        ext.prox(buf[:20], buf[10:30], buf[20:40], 0.5)
    with pytest.raises(ValueError):
        ext.project_tv(buf[:40].reshape(2, 20), buf[20:60].reshape(2, 20), 1.0, 1.0)
    with pytest.raises(ValueError):
        ext.x_minus_tau_v(np.empty(3), np.empty(4), 0.5)
    with pytest.raises(ValueError):
        ext.prox(np.empty(4), np.empty((2, 2)), np.empty(4), 0.5)
    with pytest.raises(ValueError):
        ext.project_tv(np.empty((4, 5)), np.empty((4, 5)), 1.0, 1.0)
    with pytest.raises(ValueError):
        ext.tail_norms(np.empty((3, 4)), np.empty(4))


@needs_c
def test_public_functions_take_rejected_arrays_down_the_numpy_path(monkeypatch, rng):
    v = rng.standard_normal((6, 5))
    planes = rng.standard_normal((2, 6, 5))
    dp = DenoiseProblem(imaging.ImageGrid(v), 0.4, "tv")
    p = 3.0 * rng.standard_normal((6, 5, 2))
    kx = rng.standard_normal((30, 2))

    def rejected():
        q = p.copy()
        return [
            _grad(v.astype(np.float32)),
            _grad(np.asfortranarray(v)),
            _grad_adjoint(planes[:, :, ::-1].copy()[:, :, ::-1], scale=2.0),
            # an interleaved field, projected in place
            dp.project_dual(q, out=q),
            # C-ordered (n, 2) tails are not planar
            pedi._tail_norms(kx, np.empty(30), True),
            dp.saddle_problem().prox_G(v.reshape(-1)[::-1], 0.3),
        ]

    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    got = rejected()
    assert [name for name, _ in rec.rejected] == ["grad", "grad", "grad_adjoint", "project_tv", "tail_norms", "prox"]
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    for a, b in zip(got, rejected()):
        assert identical(a, b)


# ---------------------------------------------------------------------------
# build cache


@needs_c
def test_second_load_compiles_nothing(monkeypatch, tmp_path):
    old = os.umask(0o022)
    try:
        ext, path = kernels.load(tmp_path, kernels.compiler())
    finally:
        os.umask(old)
    assert path == "c" and ext.__file__.startswith(str(tmp_path))
    (built,) = tmp_path.iterdir()
    assert built.stat().st_mode & 0o777 == 0o644

    def no_compile(*_):
        raise AssertionError("compiled on a cache hit")

    monkeypatch.setattr(kernels, "_compile", no_compile)
    ext2, path2 = kernels.load(tmp_path, kernels.compiler())
    assert path2 == "c" and ext2.__file__ == ext.__file__
    assert list(tmp_path.iterdir()) == [built]


def test_failed_build_leaves_the_numpy_path(monkeypatch, tmp_path):
    ext, path = kernels.load(tmp_path, ["no-such-compiler-here"])
    assert ext is None and path.startswith("numpy (no C compiler")
    ext, path = kernels.load(tmp_path, [sys.executable, "-c", "import sys; sys.exit('cc: broken')"])
    assert ext is None and path == "numpy (build failed: cc: broken)"
    (tmp_path / "file").write_text("")
    ext, path = kernels.load(tmp_path / "file" / "cache", kernels.compiler())
    assert ext is None and path.startswith("numpy (cache directory not writable")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    # the solvers run on the path the failed load leaves
    monkeypatch.setattr(kernels, "PATH", path)
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(8, 8), 6.15, 3), 0.3, "tv")
    sp = dp.saddle_problem()
    assert np.all(np.isfinite(pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 5).x))
    assert np.all(np.isfinite(pdhgm_run(dp, BaselineConfig.default_for(dp, 5)).x))


@needs_c
def test_concurrent_first_imports_both_load(tmp_path):
    pkg = tmp_path / "barrierpd"
    shutil.copytree(ROOT / "src" / "barrierpd", pkg, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-c", "from barrierpd import kernels; print(kernels.PATH)"]
    procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outs == ["c", "c"]
    assert [p.suffix for p in (pkg / "__pycache__").iterdir()] == [".so"]


def test_package_data_ships_the_kernel_source(tmp_path):
    cmd = [sys.executable, "-c", "from setuptools import setup; setup()", "-q",
           "egg_info", "--egg-base", str(tmp_path), "build_py", "--build-lib", str(tmp_path / "lib")]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
    assert (tmp_path / "lib" / "barrierpd" / "_kernels.c").read_bytes() == kernels.SOURCE.read_bytes()
