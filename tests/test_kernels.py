"""The compiled kernels against the numpy code they replace.

Each stage is run on both paths by switching kernels.PATH, the one attribute
that selects the path; the numpy path is the reference, and the two must
agree bit for bit (NaN payloads aside) on fields with nonzero boundary
entries, signed zeros, subnormals, infinities and NaN.  The cache tests
build into temporary directories, so they never touch the package's own
build.
"""

import dataclasses
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from barrierpd import imaging, kernels, pedi
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import (
    VARIANTS,
    DenoiseProblem,
    IterationRecord,
    Target,
    _grad,
    _grad_adjoint,
    add_gaussian_noise,
    metrics,
    synthetic_image,
)
from barrierpd.jordan import BlockConeVector
from barrierpd.pedi import StepConfig, pedi_run

ROOT = Path(__file__).resolve().parents[1]
# the last two split across threads, into chunks of unequal size
SHAPES = [(1, 1), (1, 7), (7, 1), (3, 5), (64, 64), (256, 256), (257, 263)]
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
    # D*'s minuend form, dual_fb's x = z - D* p, with (n1, n2) and flat
    # arrays; then dual_value's z - D* p and the duality gap, which take
    # that form too, on special values in p and x
    n = shape[0] * shape[1]
    planes, m = special(rng, (2,) + shape), special(rng, shape)
    with np.errstate(all="ignore"):
        want = m - _grad_adjoint(planes)
    for layout in (shape, (n,)):
        stage = lambda g, out, m: _grad_adjoint(g, out, minuend=m)  # noqa: E731
        c, ref = on_both_paths(monkeypatch, stage, planes, np.full(layout, 7.0), m.reshape(layout))
        assert_identical(c, ref)
        assert identical(c[1], want.reshape(layout))
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    for variant in VARIANTS:
        dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.4, variant)
        for x, p in ((rng.standard_normal(n), special(rng, (2,) + shape)),
                     (special(rng, n), rng.standard_normal((2,) + shape))):
            c, ref = on_both_paths(monkeypatch, dp.dual_value, p)
            assert_identical(c[-1:], ref[-1:])
            with np.errstate(all="ignore"):
                r = dp.z.values - _grad_adjoint(p)
                assert identical(c[-1], dp.half_z2 - 0.5 * float(np.square(r).sum()))
            c, ref = on_both_paths(monkeypatch, dp.duality_gap, x, p)
            assert_identical(c[-1:], ref[-1:])
    monkeypatch.setattr(kernels, "ext", rec.ext)
    # on the compiled path every dual value's D* and H1's regularizer ran compiled
    assert rec.rejected == [] and rec.calls == {"grad_adjoint": 8, "grad_sumsq": 2}


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_folds_into_the_gradient_pair(monkeypatch, rng, shape):
    # pdhgm's prox and extrapolation in D*'s pass, on special values in
    # every argument, at steps that include 1, whose product the numpy code
    # skips, and inf
    planes, m, z = special(rng, (2,) + shape), special(rng, shape), special(rng, shape)
    for s in (0.3, 1.0, 1e-300, 7.0, np.inf):
        stage = lambda g, out, m, z, xb: _grad_adjoint(g, out, minuend=m, step=s, z=z, x_bar=xb, theta=0.8)  # noqa: E731
        c, ref = on_both_paths(monkeypatch, stage, planes, np.empty(shape), m, z, np.full(shape, 7.0))
        assert_identical(c, ref)


def dual_step(sp, x, b0=0.7, mu=0.3, keep=True, fill=7.0):
    """K x through apply_K with a DualSolve, its buffers and K x's prefilled with fill.

    Returns (K x's tails, d0, y_tails, minimum), the arrays apply_K wrote into.
    """
    dual = pedi.DualSolve(b0, mu=mu, keep=keep)
    kx = np.full_like(sp.apply_K(x), fill)
    for a in dual.buffers(kx):
        a.fill(fill)
    sp.apply_K(x, out=kx, dual=dual)
    return kx, dual.d0, dual.y_tails, dual.minimum


def tv_saddle(rng, shape):
    return DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.7, "tv").saddle_problem()


def h1_saddle(rng, shape):
    return DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.7, "h1").saddle_problem()


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_tail_norms_and_min(monkeypatch, rng, shape):
    # the fused pass reduces the soc rule's minimum of the tail norms it
    # forms, which the reference takes with np.min over _tail_norms' einsum
    n = shape[0] * shape[1]
    sp = tv_saddle(rng, shape)
    for x in (rng.standard_normal(n), special(rng, n)):
        g = _grad(x.reshape(shape))
        with np.errstate(all="ignore"):
            norms = np.einsum("kij,kij->ij", g, g)
        c, ref = on_both_paths(monkeypatch, lambda x: dual_step(sp, x), x)
        assert_identical(c[-1], ref[-1])
        assert identical(ref[-1][3], np.min(norms))
    # np.min's answer with NaN present is NaN, and +0 is a minimum like any other
    x = np.zeros(n)
    assert dual_step(sp, x)[3] == 0.0
    x[-1] = np.nan
    assert n < 2 or np.isnan(dual_step(sp, x)[3])


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("mu", [0.3, 1e-200, 0.0])
def test_dual_solve(monkeypatch, rng, shape, mu):
    # the fused pass against the reference, _grad, _tail_norms and
    # _dual_update, which the numpy path runs
    n = shape[0] * shape[1]
    sp = tv_saddle(rng, shape)
    for x in (rng.standard_normal(n), special(rng, n)):
        c, ref = on_both_paths(monkeypatch, lambda x: dual_step(sp, x, mu=mu), x)
        assert_identical(c[-1], ref[-1])
        kx, d0, y = ref[-1][:3]
        with np.errstate(all="ignore"):
            tn2 = pedi._tail_norms(kx, np.empty(n))
            d0_ref, y_ref = np.empty(n), np.empty_like(y)
            pedi._dual_update(kx, tn2, 0.7, mu, d0_ref, y_ref)
        assert identical(d0, d0_ref) and identical(y, y_ref)
        # without keep the pass writes y only: K x and d's heads stay as they were
        monkeypatch.setattr(kernels, "PATH", "c")
        got = dual_step(sp, x, mu=mu, keep=False)
        assert identical(got[2], y) and np.all(got[0] == 7.0) and np.all(got[1] == 7.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_dual_solve_follows_its_out(rng, variant):
    # apply_K keeps its kernel's views in the DualSolve with the out they
    # came from; another out, or none, gets K x written into it
    sp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((5, 7))), 0.7, variant).saddle_problem()
    dual = pedi.DualSolve(0.7, mu=0.3, keep=True)
    x = rng.standard_normal(35)
    first = sp.apply_K(x, dual=dual)
    again = sp.apply_K(x, dual=dual)
    assert again is not first and np.array_equal(again, first)
    other = np.full_like(first, 7.0)
    assert sp.apply_K(x, out=other, dual=dual) is other and np.array_equal(other, first)
    # a new x into the first out, K x as apply_K without a dual solve forms it
    for x in (rng.standard_normal(35), 2.0 * x):
        assert sp.apply_K(x, out=first, dual=dual) is first and np.array_equal(first, sp.apply_K(x))


@needs_c
def test_dual_solve_zero_heads(monkeypatch, rng):
    # b0^2 underflows to 0 and mu = 0, so every head d0 is 0: the tails must be 0, not NaN
    sp = tv_saddle(rng, (5, 10))
    stage = lambda x: dual_step(sp, x, b0=1e-170, mu=0.0, fill=np.nan)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, rng.standard_normal(50))
    for got in (c[-1], ref[-1]):
        assert np.all(got[1] == 0.0) and np.all(got[2] == 0.0)
    assert identical(c[-1][2], ref[-1][2])


# 1 x n and n x 1 images whose sum splits across threads; at 257 x 263 the
# planar length is 135,182, so the pairwise tree's first split falls at
# 67,584 and leaves straddle the two planes
H1_SHAPES = SHAPES + [(1, 70001), (70001, 1)]


@needs_c
@pytest.mark.parametrize("shape", H1_SHAPES, ids=shape_ids)
@pytest.mark.parametrize("mu", [0.3, 1e-200, 0.0])
def test_h1_dual_solve(monkeypatch, rng, shape, mu):
    # h1_dual against the reference the numpy path runs, _grad and then
    # DualSolve.solve (_tail_norms and _dual_update)
    n = shape[0] * shape[1]
    sp = h1_saddle(rng, shape)
    for x in (rng.standard_normal(n), special(rng, n)):
        c, ref = on_both_paths(monkeypatch, lambda x: dual_step(sp, x, mu=mu), x)
        assert_identical(c[-1], ref[-1])
        kx, d0, y, t = ref[-1]
        with np.errstate(all="ignore"):
            g = _grad(x.reshape(shape))
            want = pedi.DualSolve(0.7, mu=mu)
            want.solve(g.reshape(1, -1))
            assert identical(t, float(np.square(g).sum()))
        assert identical(kx, g.reshape(1, -1)) and identical(t, want.minimum)
        assert identical(d0, want.d0) and identical(y, want.y_tails)
        # without keep the pass writes y only: K x and d's head stay as they were
        monkeypatch.setattr(kernels, "PATH", "c")
        got = dual_step(sp, x, mu=mu, keep=False)
        assert identical(got[2], y) and np.all(got[0] == 7.0) and np.all(got[1] == 7.0)


@needs_c
@pytest.mark.parametrize("shape", [(5, 7), (256, 256)], ids=shape_ids)
def test_h1_dual_solve_zero_head(monkeypatch, shape):
    # a constant image with mu = 0: t = 0 and d = 0, so y's tail is zero, not NaN
    sp = h1_saddle(np.random.default_rng(0), shape)
    stage = lambda x: dual_step(sp, x, mu=0.0, fill=np.nan)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, np.full(shape[0] * shape[1], 3.0))
    for got in (c[-1], ref[-1]):
        assert got[3] == 0.0 and got[1].tolist() == [0.0] and np.all(got[2] == 0.0)
    assert_identical(c[-1], ref[-1])


def primal_step(sp, y, x, tau):
    """pedi's primal step through apply_K_adjoint with a PrimalStep, in place on x: [x, ||x||^2]."""
    step = pedi.PrimalStep(tau)
    assert sp.apply_K_adjoint(y, out=x, primal=step) is x
    return [x, step.norm2]


def primal_reference(sp, shape, y, x, tau):
    """The three operations pedi's primal step folds, each its own call: K* with x as the
    minuend into v, prox_G from v back into x, then the sum of squares of the new x."""
    v = _grad_adjoint(y.T.reshape((2,) + shape), np.empty_like(x), 2.0, minuend=x, step=tau)
    sp.prox_G(v, tau, out=x)
    return [x, float(np.square(x).sum())]


@needs_c
@pytest.mark.parametrize("shape", H1_SHAPES, ids=shape_ids)
@pytest.mark.parametrize("variant", VARIANTS)
def test_primal_step(monkeypatch, rng, shape, variant):
    # the fused step against the three operations it folds, on y tails in
    # the layout pedi_run passes, with special values in y and in x
    n = shape[0] * shape[1]
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.5, variant)
    sp = dp.saddle_problem()
    dual = pedi.DualSolve(0.5, mu=0.3)
    sp.apply_K(rng.standard_normal(n), dual=dual)
    for y, x in ((rng.standard_normal(dual.y_tails.shape), rng.standard_normal(n)),
                 (special(rng, dual.y_tails.shape), rng.standard_normal(n)),
                 (rng.standard_normal(dual.y_tails.shape), special(rng, n))):
        dual.y_tails[...] = y
        for tau in (0.3, 1.0, 1e-300, 7.0):
            c, ref = on_both_paths(monkeypatch, lambda x: primal_step(sp, dual.y_tails, x, tau), x)
            assert_identical(c[-1], ref[-1])
            with np.errstate(all="ignore"):
                want = primal_reference(sp, shape, dual.y_tails, x.copy(), tau)
            assert_identical(c[-1], want)


def pdhgm_primal_reference(planes, x, z, tau, theta):
    """pdhgm's primal step as its own passes after D*: (w, x_bar) with w = D* p, then
    w = ((x - w tau) + z tau) / (1 + tau) and x_bar = (w - x) theta + w."""
    w = _grad_adjoint(planes)
    w *= tau
    np.subtract(x, w, out=w)
    x_bar = np.multiply(z, tau)
    w += x_bar
    w /= 1.0 + tau
    np.subtract(w, x, out=x_bar)
    x_bar *= theta
    x_bar += w
    return w, x_bar


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_primal_stages(monkeypatch, rng, shape):
    n = shape[0] * shape[1]
    x, z = special(rng, n), special(rng, n)
    planes = special(rng, (2,) + shape)
    for tau in (0.3, 1e-300, 7.0):
        # pdhgm's prox and extrapolation in D*'s pass, with (n1, n2) and flat arrays
        for layout in (shape, (n,)):
            def stage(g, w, x, z, xb):
                return _grad_adjoint(g, out=w, minuend=x, step=tau, z=z, x_bar=xb, theta=0.8)

            arrays = (planes, np.full(layout, 7.0), x.reshape(layout), z.reshape(layout), np.full(layout, 7.0))
            c, ref = on_both_paths(monkeypatch, stage, *arrays)
            assert_identical(c, ref)
            with np.errstate(all="ignore"):
                w, x_bar = pdhgm_primal_reference(planes, x.reshape(shape), z.reshape(shape), tau, 0.8)
            assert identical(c[1], w.reshape(layout)) and identical(c[4], x_bar.reshape(layout))


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("alpha", [0.4, 1e-305, 1e3])
def test_project_dual_tv(monkeypatch, rng, shape, alpha):
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), alpha, "tv")
    planes = special(rng, (2,) + shape)
    planes[0].reshape(-1)[0] = alpha
    stage = lambda p, out: dp.project_dual(p, out=out)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, planes, np.empty_like(planes))
    assert_identical(c[:2], ref[:2])
    check_ascent(monkeypatch, dp, special(rng, shape), planes, {"project_tv": 1})


def check_ascent(monkeypatch, dp, v, planes, calls):
    """The baselines' dual step P(p + s D v) through project_dual on both paths, in place and into another out.

    Both must give the projection of _grad's ascent bit for bit.  The
    compiled path makes the step in place with one kernel call, calls per
    step s, without a rejected array; another out takes the numpy
    reference, the ascent and then its projection.
    """
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    scales = (0.3, 1.0, 1e-300, 7.0, np.inf)
    for s in scales:
        def in_place(v, p):
            assert dp.project_dual(p, out=p, ascent=(v, s)) is p

        def separate(v, p, out):
            assert dp.project_dual(p, out=out, ascent=(v, s)) is out

        c, ref = on_both_paths(monkeypatch, in_place, v, planes)
        assert_identical(c[:2], ref[:2])
        with np.errstate(all="ignore"):
            want = dp.project_dual(_grad(v, scale=s, addend=planes))
        assert identical(c[1], want)
        c, ref = on_both_paths(monkeypatch, separate, v, planes, np.full_like(planes, 7.0))
        assert_identical(c[:3], ref[:3])
        assert identical(c[1], planes) and identical(c[2], want)
    monkeypatch.setattr(kernels, "ext", rec.ext)
    assert rec.rejected == [] and rec.calls == {k: n * len(scales) for k, n in calls.items()}


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("variant", VARIANTS)
def test_unlifted_dual_on_both_layouts(monkeypatch, rng, shape, variant):
    # pedi_run's planar tails into a planar out, the CLI's call, on special
    # values: one numpy multiplication on either kernel path, 2 tail(y) bit
    # for bit, and no kernel call
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.5, variant)
    kx = dp.saddle_problem().apply_K(np.zeros(dp.n_pixels))
    kx[...] = special(rng, kx.shape)
    y = BlockConeVector.view_of(np.ones(kx.shape[0]), kx)
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    c, ref = on_both_paths(monkeypatch, lambda out: dp.unlifted_dual(y, out=out), np.full((2,) + shape, 7.0))
    monkeypatch.setattr(kernels, "ext", rec.ext)
    assert c[1] is c[0] and identical(c[0], ref[0])
    assert identical(c[0], 2.0 * imaging.unlift(y, shape)) and identical(c[0], 2.0 * kx.T.reshape((2,) + shape))
    assert rec.calls == {}


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_h1_elementwise_passes(monkeypatch, rng, shape):
    # _field_norm's sum of squares, the regularizer's sum over a gradient
    # it never stores, H1 project_dual's two branches and pedi's numpy-only
    # one-block tail norm and dual update
    planes = special(rng, (2,) + shape)
    c, ref = on_both_paths(monkeypatch, imaging._field_norm, planes)
    assert_identical(c, ref)
    x = special(rng, shape[0] * shape[1])
    dp = DenoiseProblem(imaging.ImageGrid(np.zeros(shape)), 0.5, "h1")
    c, ref = on_both_paths(monkeypatch, dp.regularizer, x)
    assert_identical(c, ref)
    with np.errstate(all="ignore"):
        assert identical(c[-1], imaging._field_norm(_grad(x.reshape(shape))))
    finite = rng.standard_normal((2,) + shape)
    norm = imaging._field_norm(finite)
    for alpha in (0.5 * norm, 2.0 * norm):
        dp = DenoiseProblem(imaging.ImageGrid(np.zeros(shape)), alpha, "h1")
        stage = lambda p, out: dp.project_dual(p, out=out)  # noqa: E731
        for field in (finite, planes):
            c, ref = on_both_paths(monkeypatch, stage, field, np.empty_like(field))
            assert_identical(c[:2], ref[:2])
    m = 2 * shape[0] * shape[1]
    for kx in (rng.standard_normal((m, 1)), special(rng, (m, 1))):
        tn2 = np.einsum("ij,ij->i", kx.T, kx.T)

        def stage(kx, tn2, d0, y):
            pedi._dual_update(kx.T, tn2, 0.7, 0.3, d0, y.T)

        c, ref = on_both_paths(monkeypatch, stage, kx, tn2, np.empty(1), np.empty((m, 1)))
        assert_identical([c[0], c[2], c[3]], [ref[0], ref[2], ref[3]])
        # the one block's squared norm, summed in component-major order
        stage = lambda kx, tn2: pedi._tail_norms(kx.T, tn2)  # noqa: E731
        c, ref = on_both_paths(monkeypatch, stage, kx, np.empty(1))
        with np.errstate(over="ignore"):
            assert identical(c[1], ref[1]) and identical(ref[1], [np.square(kx).sum()])


@needs_c
@pytest.mark.parametrize("shape", H1_SHAPES, ids=shape_ids)
def test_h1_project_dual_ascent(monkeypatch, rng, shape):
    # H1's dual step: the sum of the ascent's squares, formed on the fly,
    # then its write, inside the ball and outside, and on special values
    v, planes = rng.standard_normal(shape), rng.standard_normal((2,) + shape)
    norm = imaging._field_norm(_grad(v, scale=0.3, addend=planes))
    for alpha in (0.5 * norm, 2.0 * norm):
        dp = DenoiseProblem(imaging.ImageGrid(np.zeros(shape)), alpha, "h1")
        for args in ((v, planes), (special(rng, shape), planes), (v, special(rng, (2,) + shape))):
            check_ascent(monkeypatch, dp, *args, {"project_h1": 1})


@needs_c
@pytest.mark.parametrize("shape", [(256, 256), (257, 263)], ids=shape_ids)
def test_tail_norm_min_in_the_last_chunk(monkeypatch, shape):
    # every chunk's minimum must reach the soc rule: the only zero tail is
    # the Neumann corner's, in the last row and so the last chunk, and a NaN
    # formed in the last chunk must give NaN
    n1, n2 = shape
    i, j = np.mgrid[:n1, :n2]
    x = (3.0 * i + 5.0 * j + np.sin(i * j)).reshape(-1)
    sp = tv_saddle(np.random.default_rng(0), shape)
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=0.7)
    seen = []
    pedi_run(sp, cfg, 1, step_rule="soc", x0=x, callback=lambda *a: seen.append(a[4]["kx_norm"]))
    assert seen == [0.0]
    for path in ("c", NUMPY):
        monkeypatch.setattr(kernels, "PATH", path)
        kx, _, _, minimum = dual_step(sp, x)
        norms = np.einsum("ij,ij->i", kx, kx)
        assert minimum == 0.0 and np.flatnonzero(norms == 0.0).tolist() == [n1 * n2 - 1]
        x[-1] = np.nan
        assert np.isnan(dual_step(sp, x)[3])
        x[-1] = 0.0


def metric_terms(x, z, xhat, planes, tv):
    """The four terms metric_sums adds, from the numpy path's own operations."""
    g = _grad(x.reshape(planes.shape[1:]))
    norms = np.sqrt(np.einsum("kij,kij->ij", g, g)) if tv else np.zeros(x.size)
    w = _grad_adjoint(planes).reshape(-1)
    return [np.square(x - z), norms, np.square(z - w), np.square(x - xhat)]


@needs_c
def test_metric_sums_follow_numpys_summation_order(monkeypatch, rng):
    # numpy sums float64 pairwise; the kernel repeats that order, so a numpy
    # release that changed it fails here first
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    sizes = [*range(1, 301), 4095, 4096, 4097, 8191, 8192, 8193, 65536, 131072]
    for n in sizes:
        x, z, xhat = (rng.standard_normal(n) for _ in range(3))
        planes = rng.standard_normal((2, 1, n))
        for tv in (True, False):
            got = kernels.ext.metric_sums(x, z, xhat, planes, tv)
            want = [float(t.sum()) for t in metric_terms(x, z, xhat, planes, tv)]
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want], (n, tv)


@needs_c
def test_sumsq_follows_numpys_summation_order(monkeypatch, rng):
    # numpy's square-then-sum order, which fixes H1's norms and pedi's
    # ||x||^2: a numpy release that changed it fails here first.  The fused
    # primal step's sum splits across threads from 65,536 pixels on two
    # CPUs, and the numpy path's slices hold 8,192 entries
    sizes = [*range(1, 301), 4095, 4096, 4097, 8191, 8192, 8193, 65535, 65536, 65537, 131072, 262147]
    images = [(1, n) for n in sizes[:-1]] + [(1, 262145), (512, 512)] + SHAPES
    for shape in images:
        sp = tv_saddle(rng, shape)
        y = sp.apply_K(np.zeros(shape[0] * shape[1]))
        for x in (rng.standard_normal(y.shape[0]), special(rng, y.shape[0])):
            y[...] = rng.standard_normal(y.shape)
            got, norm2 = primal_step(sp, y, x.copy(), 0.3)
            with np.errstate(over="ignore"):
                want = float(np.square(got).sum())
            assert identical(norm2, want), (shape, norm2, want)
    arrays = [rng.standard_normal(n) for n in sizes]
    arrays += [rng.standard_normal((2,) + shape) for shape in SHAPES]
    arrays += [special(rng, (2,) + shape) for shape in SHAPES]
    for a in arrays:
        with np.errstate(all="ignore"):
            assert identical(kernels.ext.grad_sumsq(a.reshape(-1, a.shape[-1])),
                             float(np.square(_grad(a.reshape(-1, a.shape[-1]))).sum())), a.shape
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    for a in arrays:
        with np.errstate(over="ignore"):
            want = float(np.square(a).sum())
        assert identical(pedi._sumsq(a), want), a.shape
    # H1's field norm is the same whatever the field's strides: here the
    # planar field over interleaved (n1, n2, 2) memory
    planes = rng.standard_normal((2, 5, 7))
    norm = imaging._field_norm(planes)
    assert norm == imaging._field_norm(np.ascontiguousarray(np.moveaxis(planes, 0, -1)).transpose(2, 0, 1))
    assert norm == np.sqrt(np.square(planes).sum())


@pytest.mark.parametrize("path", ["c", NUMPY])
def test_overflowing_norm_of_a_finite_iterate_on_both_paths(monkeypatch, path):
    # every entry of x is finite but ||x|| overflows: the run raises, and
    # nothing warns
    if path == "c" and kernels.PATH != "c":
        pytest.skip(f"kernels: {kernels.PATH}")
    monkeypatch.setattr(kernels, "PATH", path)
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(8, 8), 6.15, 3), 0.3, "tv")
    sp = dp.saddle_problem()

    def apply_K_adjoint(y, out=None, primal=None):
        # the primal step leaves this entry near 1e200, so ||x||^2 overflows
        out[3] = 1e200
        return sp.apply_K_adjoint(y, out=out, primal=primal)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="at iteration 0$"):
            pedi_run(dataclasses.replace(sp, apply_K_adjoint=apply_K_adjoint),
                     StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 1)


def identical_records(a: IterationRecord, b: IterationRecord) -> bool:
    return all(identical(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(IterationRecord))


@needs_c
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_metrics_on_both_paths(monkeypatch, rng, shape, variant):
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.4, variant)
    n = dp.n_pixels
    x, xhat, planes = rng.standard_normal(n), rng.standard_normal(n) + 1.0, rng.standard_normal((2,) + shape)
    # all finite, then the special values in each argument in turn
    cases = [(x, planes, xhat), (special(rng, n), planes, xhat), (x, special(rng, (2,) + shape), xhat),
             (x, planes, special(rng, n))]
    for x, planes, xhat in cases:
        with np.errstate(all="ignore"):
            # Target.of rejects a non-finite x; the record is built directly
            # so that the kernel still meets special values in the target
            target = Target(xhat, float(np.sum(xhat**2)), dp.objective(xhat))

        def stage(x, planes):
            return metrics(x, planes, dp, target, 3.0, iter=7, wall_seconds=0.5)

        c, ref = on_both_paths(monkeypatch, stage, x, planes)
        assert identical_records(c[-1], ref[-1]), (c[-1], ref[-1])
    assert rec.rejected == [] and rec.calls["metric_sums"] == len(cases)


@needs_c
def test_metrics_allocates_no_image(rng):
    # the numpy path's objective, dual_value and residual peak at 133 KB
    # here; H1's regularizer sums its gradient without storing it
    for variant in VARIANTS:
        dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((64, 64))), 0.4, variant)
        x, p = rng.standard_normal(64 * 64), rng.standard_normal((2, 64, 64))
        target = Target.of(dp, rng.standard_normal(64 * 64))
        metrics(x, p, dp, target, 3.0)
        tracemalloc.start()
        try:
            metrics(x, p, dp, target, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, (variant, peak)


# ---------------------------------------------------------------------------
# whole solvers


def run_all(dp, iters=50):
    """x, the dual iterate and the step states of all four solvers, iters iterations each."""
    sp = dp.saddle_problem()
    out = []
    for rule in ("general", "soc"):
        res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), iters, step_rule=rule)
        out.append((res.x, res.y.heads, res.y.tails, res.d.heads, res.d.tails, res.states))
    res = pdhgm_run(dp, BaselineConfig.default_for(dp, iters))
    out.append((res.x, res.p))
    res = dual_fb_run(dp, iters)
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


@needs_c
@pytest.mark.parametrize("variant, alpha", [("tv", 0.3), ("h1", 5.0)])
def test_split_solvers_identical_on_both_paths(monkeypatch, variant, alpha):
    # these sizes split every kernel across the threads, into equal and
    # unequal chunks; one iteration is also the last, whose K x and d's
    # heads pedi's fused pass writes
    for shape in ((256, 256), (257, 263)):
        dp = DenoiseProblem(add_gaussian_noise(synthetic_image(*shape), 6.15, 3), alpha, variant)
        for iters in (20, 1):
            monkeypatch.setattr(kernels, "PATH", "c")
            got = run_all(dp, iters)
            monkeypatch.setattr(kernels, "PATH", NUMPY)
            want = run_all(dp, iters)
            for g, w in zip(got, want):
                for a, b in zip(g, w):
                    if isinstance(b, list):
                        assert a == b
                    else:
                        assert identical(a, b)


class Recorder:
    """Stands in for the extension module, counting calls and rejected arguments."""

    def __init__(self, ext):
        self.ext, self.calls, self.rejected, self.forms = ext, {}, [], set()

    def __getattr__(self, name):
        fn = getattr(self.ext, name)

        def call(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.forms.add((name, len(args)))
            try:
                return fn(*args)
            except ValueError as exc:
                self.rejected.append((name, str(exc)))
                raise

        return call


@needs_c
@pytest.mark.parametrize("shape", [(256, 256), (257, 263)], ids=shape_ids)
def test_dual_fb_x_on_both_paths(monkeypatch, shape):
    # x = z - D* p is made in D*'s pass, split across threads at these sizes
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(*shape), 6.15, 3), 0.3, "tv")
    got = dual_fb_run(dp, 10)
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    want = dual_fb_run(dp, 10)
    assert identical(got.x, want.x) and identical(got.p, want.p)


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
    # pedi's K, dual solve and soc minimum are one tv_dual pass, and its
    # K*, prox and ||x||^2 one primal_step call; the baselines' ascent and
    # projection are one project_tv pass, and pdhgm's primal step rides in
    # its grad_adjoint
    assert rec.calls == {"grad_adjoint": 2 * 5, "tv_dual": 10, "primal_step": 10, "project_tv": 10}


@needs_c
def test_h1_solvers_take_the_compiled_path(monkeypatch):
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), 5.0, "h1")
    sp = dp.saddle_problem()
    for rule in ("general", "soc"):
        pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 5, step_rule=rule)
    pdhgm_run(dp, BaselineConfig.default_for(dp, 5))
    dual_fb_run(dp, 5)
    assert rec.rejected == []
    # pedi's K, tail norm and dual solve are one h1_dual call, and its K*,
    # prox and ||x||^2 one primal_step call; the baselines' ascent, its norm
    # and projection are one project_h1 call, and pdhgm's primal step rides
    # in its grad_adjoint
    assert rec.calls == {"grad_adjoint": 10, "h1_dual": 10, "primal_step": 10, "project_h1": 10}


def documented_forms(ext) -> set:
    """(kernel, argument count) of every call form the kernels' docstrings list."""
    forms = set()
    for name in dir(ext):
        fn = getattr(ext, name)
        if callable(fn) and not name.startswith("_"):
            forms |= {(name, len(args.split(","))) for args in re.findall(rf"\b{name}\(([^)]*)\)", fn.__doc__)}
    return forms


@needs_c
def test_every_kernel_is_reached(monkeypatch):
    # a kernel, or a form of one, that no loop or logged row calls is dead
    # code: fold or delete it.  The workload is the CLI's: all four solvers,
    # pedi's dual field unlifted as its callback does, and the metrics
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    for variant, alpha in (("tv", 0.3), ("h1", 5.0)):
        dp = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), alpha, variant)
        sp = dp.saddle_problem()
        p = np.empty((2,) + dp.shape)
        for rule in ("general", "soc"):
            pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 3, step_rule=rule,
                     callback=lambda i, x, y, *_: dp.unlifted_dual(y, out=p))
        res = pdhgm_run(dp, BaselineConfig.default_for(dp, 3))
        dual_fb_run(dp, 3)
        metrics(res.x, res.p, dp, Target.of(dp, dp.z.flat()), 1.0)
    exported = {name for name in dir(rec.ext) if callable(getattr(rec.ext, name)) and not name.startswith("_")}
    forms = documented_forms(rec.ext)
    assert rec.rejected == []
    assert {name for name, _ in forms} == exported
    assert rec.forms == forms


# ---------------------------------------------------------------------------
# arrays a kernel rejects


@needs_c
def test_kernels_reject_without_writing(rng):
    ext = kernels.ext
    v = rng.standard_normal((4, 5))
    # the checks every wrapper shares, on tv_dual's K x and on the
    # baselines' p, which project_tv writes in place
    d0, y = np.full(20, 7.0), np.full((2, 20), 7.0)
    writes = {"tv_dual's kx": lambda out: ext.tv_dual(v, out, d0, y, 1.0, 0.5, True),
              "project_tv's p": lambda out: ext.project_tv(v, out, 1.0, 1.0, 0.5)}
    for what, write in writes.items():
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
                write(out)
            assert np.array_equal(out, before), (what, why)
    assert np.all(d0 == 7.0) and np.all(y == 7.0)
    # an image may be flat, of n1 n2 entries exactly
    g = rng.standard_normal((2, 4, 5))
    for flat in (v.reshape(-1)[:19].copy(), rng.standard_normal(21), v.reshape(1, -1)):
        p, x = np.full((2, 4, 5), 7.0), np.full((4, 5), 7.0)
        with pytest.raises(ValueError):
            ext.project_tv(flat, p, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ext.grad_adjoint(g, flat.copy(), v)
        with pytest.raises(ValueError):
            ext.grad_adjoint(g, x, flat)
        assert np.all(p == 7.0) and np.all(x == 7.0)
    # an output overlapping an input
    buf = rng.standard_normal(3 * 20)
    with pytest.raises(ValueError):
        ext.grad_adjoint(buf[:40].reshape(2, 4, 5), buf[30:50].reshape(4, 5), buf[40:60].reshape(4, 5))
    with pytest.raises(ValueError):
        ext.grad_adjoint(g, buf[:20].reshape(4, 5), buf[10:30].reshape(4, 5))
    # the baselines' dual step writes p in place: each of these leaves it unwritten
    p = np.full((2, 4, 5), 7.0)
    for project in (lambda v, p: ext.project_tv(v, p, 1.0, 1.0, 0.5), lambda v, p: ext.project_h1(v, p, 1.0, 0.5)):
        for why, (w, q) in {
            "v overlapping p": (p[1], p),
            "p of the wrong shape": (v, np.full((2, 5, 4), 7.0)),
            "v of the wrong shape": (v.reshape(5, 4), p),
            "float32 p": (v, np.full((2, 4, 5), 7.0, dtype=np.float32)),
            "float32 v": (v.astype(np.float32), p),
            "non-contiguous p": (v, np.full((2, 4, 6), 7.0)[:, :, :5]),
            "non-contiguous v": (np.repeat(v, 2, axis=1)[:, ::2], p),
        }.items():
            with pytest.raises(ValueError):
                project(w, q)
            assert np.all(q == 7.0) and np.all(p == 7.0), why
    # pedi's primal step writes x in place: each of these leaves it unwritten
    y, z = rng.standard_normal((2, 4, 5)), rng.standard_normal(20)
    x = np.full(20, 7.0)
    for why, (w, q, u) in {
        "x overlapping y": (y, z, y[1].reshape(-1)),
        "x overlapping z": (y, x, x),
        "x of the wrong shape": (y, z, np.full(21, 7.0)),
        "z of the wrong shape": (y, z[:19].copy(), x),
        "y of the wrong shape": (y.reshape(2, 5, 4), z.reshape(4, 5), x.reshape(4, 5)),
        "y not a field": (y.reshape(40), z, x),
        "float32 x": (y, z, np.full(20, 7.0, dtype=np.float32)),
        "float32 y": (y.astype(np.float32), z, x),
        "non-contiguous x": (y, z, np.full(40, 7.0)[::2]),
        "read-only x": (y, z, np.full(20, 7.0)),
    }.items():
        u.flags.writeable = why != "read-only x"
        before = u.copy()
        with pytest.raises(ValueError):
            ext.primal_step(w, q, u, 0.5)
        assert identical(u, before) and np.all(x == 7.0), why
    # tv_dual: the shapes, the dtype and an output overlapping another array
    kx, d0, y = np.full((2, 4, 5), 7.0), np.full(20, 7.0), np.full((2, 20), 7.0)
    wide = np.full((2, 40), 7.0)
    for args in ((v.T, kx, d0, y), (v, kx[:, :, :4].copy(), d0, y), (v, kx, d0[:19].copy(), y),
                 (v, kx, d0.reshape(4, 5), y), (v, kx, d0, y.reshape(2, 4, 5)), (v, kx, d0, y.T.copy()),
                 (v.astype(np.float32), kx, d0, y), (v, kx, d0, y.astype(np.float32)),
                 (v, kx, d0, wide[:, ::2]), (v, kx, d0, kx.reshape(2, 20)),
                 (v, kx, y[0], y)):
        with pytest.raises(ValueError):
            ext.tv_dual(*args, 1.0, 0.5, True)
    assert all(np.all(a == 7.0) for a in (kx, d0, y, wide))
    # h1_dual likewise, with a (1,) d0 and the (1, 2 n) tail y
    d0, y, wide = np.full(1, 7.0), np.full((1, 40), 7.0), np.full((1, 80), 7.0)
    for args in ((v.T, kx, d0, y), (v, kx[:, :, :4].copy(), d0, y), (v, kx, np.full(2, 7.0), y),
                 (v, kx, d0.reshape(1, 1), y), (v, kx, d0, y.reshape(2, 20)), (v, kx, d0, y.T.copy()),
                 (v.astype(np.float32), kx, d0, y), (v, kx, d0, y.astype(np.float32)),
                 (v, kx, d0, wide[:, ::2]), (v, kx, d0, kx.reshape(1, 40)), (v, kx, y[0, :1], y)):
        with pytest.raises(ValueError):
            ext.h1_dual(*args, 1.0, 0.5, True)
    assert all(np.all(a == 7.0) for a in (kx, d0, y, wide))
    for bad in (np.empty((4, 6))[:, :5], np.empty(20), np.empty((2, 4, 5)), np.empty((4, 5), dtype=np.float32),
                np.empty((0, 5))):
        with pytest.raises(ValueError):
            ext.grad_sumsq(bad)


@needs_c
def test_public_functions_take_rejected_arrays_down_the_numpy_path(monkeypatch, rng):
    v = rng.standard_normal((6, 5))
    planes = rng.standard_normal((2, 6, 5))
    dp = DenoiseProblem(imaging.ImageGrid(v), 0.4, "tv")
    # a planar field over interleaved (n1, n2, 2) memory, not C-contiguous
    p = (3.0 * rng.standard_normal((6, 5, 2))).transpose(2, 0, 1)
    x = rng.standard_normal(30)
    target = Target.of(dp, rng.standard_normal(30))

    def dual_update(x):
        dual = pedi.DualSolve(0.4, mu=0.3)
        kx = dp.saddle_problem().apply_K(x, dual=dual)
        return kx, dual.d0, dual.y_tails, dual.minimum

    y32 = dp.saddle_problem().apply_K(x).astype(np.float32)

    def rejected():
        q = p.copy(order="K")
        return [
            # strided planes, x = z - D* p as dual_fb makes it
            _grad_adjoint(planes[:, :, ::-1].copy()[:, :, ::-1], minuend=v),
            # the baselines' dual step in place on that field
            dp.project_dual(q, out=q, ascent=(v, 0.3)),
            # a reversed x, not C-contiguous: the fused pass rejects it
            *dual_update(x[::-1]),
            dp.saddle_problem().prox_G(v.reshape(-1)[::-1], 0.3),
            # float32 y tails: the fused primal step rejects them, and the
            # numpy reference runs
            *primal_step(dp.saddle_problem(), y32, x.copy(), 0.3),
            # the norm of that field, summed in planar order
            imaging._field_norm(p),
            # that field, a float32 one and a strided one
            *dataclasses.astuple(metrics(x, p, dp, target, 3.0)),
            *dataclasses.astuple(metrics(x, planes.astype(np.float32), dp, target, 3.0)),
            *dataclasses.astuple(metrics(x, np.repeat(planes, 2, axis=2)[:, :, ::2], dp, target, 3.0)),
        ]

    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    got = rejected()
    assert [name for name, _ in rec.rejected] == [
        "grad_adjoint", "project_tv", "tv_dual", "primal_step",
        # dual_value's D* rejects the interleaved and strided fields; it
        # takes a float64 copy of the float32 one, C-contiguous like it
        "metric_sums", "grad_adjoint", "metric_sums", "metric_sums", "grad_adjoint"]
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    for a, b in zip(got, rejected()):
        assert identical(a, b)


# ---------------------------------------------------------------------------
# the worker pool


def run_python(code: str, path: Path = ROOT / "src", **env: str) -> str:
    """Standard output of a fresh interpreter running code with the package under path, and env set."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1", **env)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


SOLVE_256 = """
import numpy as np
from barrierpd.baselines import BaselineConfig, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image

def solve(n):
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(n, n), 6.15, 3), 0.3, "tv")
    return pdhgm_run(dp, BaselineConfig.default_for(dp, 10)).x
"""


@needs_c
def test_forked_child_splits_like_its_parent():
    # the parent's worker sleeps in the pool at the fork; a child that kept
    # the parent's lock and condition variables would hang on its first split
    code = SOLVE_256 + """
import os
x = solve(256)
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(solve(256), x) else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    assert run_python(code) == "0"


@needs_c
def test_python_threads_share_the_pool():
    # more callers than CPUs, switching often: each gets the serial result
    dps = [DenoiseProblem(add_gaussian_noise(synthetic_image(256, 256), 6.15, 3), alpha, variant)
           for variant, alpha in (("tv", 0.3), ("h1", 5.0))]
    want = [dual_fb_run(dp, 20) for dp in dps]
    got = [None] * 4

    def call(k):
        got[k] = dual_fb_run(dps[k % 2], 20)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k, res in enumerate(got):
        assert identical(res.x, want[k % 2].x) and identical(res.p, want[k % 2].p)


def test_h1_does_not_depend_on_blas_threads():
    # H1's global norms are summed by barrierpd in numpy's pairwise order,
    # not by BLAS, whose order follows its thread count
    code = """
import hashlib
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.pedi import StepConfig, pedi_run

dp = DenoiseProblem(add_gaussian_noise(synthetic_image(256, 256), 6.15, 3), 5.0, "h1")
sp = dp.saddle_problem()
xs = [pdhgm_run(dp, BaselineConfig.default_for(dp, 50)).x, dual_fb_run(dp, 50).x]
xs += [pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 50, step_rule=r).x for r in ("general", "soc")]
print(*(hashlib.sha256(x.tobytes()).hexdigest() for x in xs), dp.regularizer(dp.z.flat()).hex())
"""
    one, two = (run_python(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n) for n in ("1", "2"))
    assert one == two


@needs_c
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_results_do_not_depend_on_the_thread_count():
    # the split sums add their subtrees in numpy's tree order, and every
    # other kernel computes each element as on one thread: a child pinned to
    # one CPU gets the bits of a child on all of them
    code = """
import hashlib, os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from barrierpd import kernels
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.pedi import StepConfig, pedi_run

rng = np.random.default_rng(5)
# the fused primal step's ||x||^2 over images of 65,535 to 262,145 pixels
sums = []
for shape in ((1, 65535), (256, 256), (1, 65537), (1, 131071), (257, 263), (512, 512), (262145, 1)):
    n = shape[0] * shape[1]
    x = rng.standard_normal(n)
    sums.append(kernels.ext.primal_step(rng.standard_normal((2,) + shape), rng.standard_normal(n), x, 0.3))
    sums.append(float(np.square(x).sum()))
sums += [kernels.ext.grad_sumsq(rng.standard_normal(shape)) for shape in ((181, 181), (257, 263), (1, 70001))]
dp = DenoiseProblem(add_gaussian_noise(synthetic_image(256, 256), 6.15, 3), 5.0, "h1")
sp = dp.saddle_problem()
xs = [pdhgm_run(dp, BaselineConfig.default_for(dp, 30)).x, dual_fb_run(dp, 30).x]
xs += [pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 30, step_rule=r).x for r in ("general", "soc")]
print(kernels.THREADS, *(s.hex() for s in sums), *(hashlib.sha256(x.tobytes()).hexdigest() for x in xs))
"""
    one, all_cpus = (run_python(code.replace("sys.argv[1]", repr(n))) for n in ("1", "all"))
    assert one.split()[0] == "1" and int(all_cpus.split()[0]) > 1
    assert one.split()[1:] == all_cpus.split()[1:]


@needs_c
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_workers_start_on_the_first_split():
    # numpy's BLAS may start threads of its own on import
    code = """
import os
import numpy
tasks = lambda: len(os.listdir("/proc/self/task"))
before = tasks()
""" + SOLVE_256 + """
from barrierpd import kernels
solve(64)
after_64 = tasks()
solve(256)
print(before, after_64, tasks(), kernels.THREADS)
"""
    before, after_64, after_256, threads = map(int, run_python(code).split())
    assert after_64 == before
    assert after_256 == before + threads - 1


@needs_c
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_threads_count_the_affinity_mask():
    assert kernels.THREADS == min(len(os.sched_getaffinity(0)), 8)
    code = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from barrierpd import kernels
print(kernels.PATH, kernels.THREADS)
"""
    assert run_python(code) == "c 1"


def test_report_header_names_path_and_threads():
    from conftest import pytest_report_header

    m = re.fullmatch(r"barrierpd kernels: (.+), (\d+) threads?", pytest_report_header(None))
    assert m and m[1] == kernels.PATH and int(m[2]) == kernels.THREADS


def test_numpy_path_runs_one_thread(tmp_path):
    pkg = tmp_path / "barrierpd"
    shutil.copytree(ROOT / "src" / "barrierpd", pkg, ignore=shutil.ignore_patterns("__pycache__", "_kernels.c"))
    code = "from barrierpd import kernels; print(kernels.PATH[:5], kernels.THREADS)"
    assert run_python(code, tmp_path) == "numpy 1"


# ---------------------------------------------------------------------------
# the ISA clones


def x86_64_gcc(cc) -> bool:
    """Whether cc is x86-64 gcc, for which _kernels.c clones each kernel per ISA."""
    try:
        done = subprocess.run([*cc, "-dM", "-E", "-x", "c", "-"], input="", capture_output=True, text=True,
                              timeout=60)
    except OSError:
        return False
    macros = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("#define ")}
    return done.returncode == 0 and {"__x86_64__", "__GNUC__"} <= macros and "__clang__" not in macros


def cpu_flags() -> set:
    """The CPU feature flags Linux reports, or none where it reports none."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    found = re.search(r"^flags\s*:(.*)$", text, re.M)
    return set(found.group(1).split()) if found else set()


# what x86-64-v3 code may use, by the names Linux gives them
X86_64_V3 = {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe", "xsave"}


@needs_c
def test_isa_clones_match_the_default_build(monkeypatch, tmp_path):
    # a host runs only the clone its CPU picks; defining KERNEL builds the
    # baseline ISA's code, or AVX2's, for every kernel
    cc = kernels.compiler()
    if not x86_64_gcc(cc):
        pytest.skip(f"{' '.join(cc)!r} is not x86-64 gcc, so the kernels have no clones")
    builds = {"baseline": ""}
    if X86_64_V3 <= cpu_flags():
        builds["x86-64-v3"] = '__attribute__((target("arch=x86-64-v3")))'
    problems = [DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), alpha, variant)
                for variant, alpha in (("tv", 0.3), ("h1", 5.0))]

    def solve():
        out = []
        for dp in problems:
            runs = run_all(dp, 20)
            x, p = runs[2]
            out += [*runs, dataclasses.astuple(metrics(x, p, dp, Target.of(dp, dp.z.flat()), 1.0))]
        return out

    want = solve()
    for name, kernel in builds.items():
        old = os.umask(0o027)
        try:
            ext, path = kernels.load(tmp_path / name, [*cc, f"-DKERNEL={kernel}"])
        finally:
            os.umask(old)
        assert path == "c", path
        # the linker's output, less its execute bits: open()'s mode
        assert Path(ext.__file__).stat().st_mode & 0o777 == 0o640
        monkeypatch.setattr(kernels, "ext", ext)
        for g, w in zip(solve(), want, strict=True):
            for a, b in zip(g, w, strict=True):
                assert a == b if isinstance(b, list) else identical(a, b), name


# ---------------------------------------------------------------------------
# build cache


@pytest.fixture(scope="session")
def prebuilt():
    """A stand-in for kernels._compile that copies the build this session loaded.

    The cache tests check the cache's logic, not the compiler, so they get
    this build instead of one gcc run each.  The copy is a file open()
    creates, as a compiler's output would be.
    """
    if kernels.PATH != "c":
        pytest.skip(f"kernels: {kernels.PATH}")
    build = Path(kernels.ext.__file__).read_bytes()

    def copy_build(cc, out):
        Path(out).write_bytes(build)

    return copy_build


@needs_c
def test_second_load_compiles_nothing(monkeypatch, tmp_path, prebuilt):
    monkeypatch.setattr(kernels, "_compile", prebuilt)
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


def test_kernel_source_builds_without_warnings(tmp_path):
    # the build's own flags plus -Wall -Werror: a warning fails here, not
    # silently in the cached build
    cc = kernels.compiler()
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {' '.join(cc)!r}")
    include = kernels.sysconfig.get_paths()["include"]
    cmd = [*cc, *kernels.FLAGS, "-Wall", "-Werror", "-I", include, str(kernels.SOURCE), "-o", str(tmp_path / "k.so")]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_data_ships_the_kernel_source(tmp_path):
    cmd = [sys.executable, "-c", "from setuptools import setup; setup()", "-q",
           "egg_info", "--egg-base", str(tmp_path), "build_py", "--build-lib", str(tmp_path / "lib")]
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
    assert (tmp_path / "lib" / "barrierpd" / "_kernels.c").read_bytes() == kernels.SOURCE.read_bytes()


@needs_c
def test_a_new_build_removes_stale_builds(monkeypatch, tmp_path, prebuilt):
    suffix = kernels.sysconfig.get_config_var("EXT_SUFFIX")
    stale = tmp_path / f"_kernels.0123456789abcdef{suffix}"
    stale.write_bytes(b"an old build")
    # a failed build removes nothing
    assert kernels.load(tmp_path, [sys.executable, "-c", "import sys; sys.exit(1)"])[0] is None
    assert stale.exists()
    # a successful one removes the builds under other keys
    monkeypatch.setattr(kernels, "_compile", prebuilt)
    ext, _ = kernels.load(tmp_path, kernels.compiler())
    assert sorted(tmp_path.iterdir()) == [Path(ext.__file__)]
    # a cache hit removes nothing
    stale.write_bytes(b"an old build")
    assert kernels.load(tmp_path, kernels.compiler())[1] == "c"
    assert stale.exists()


@needs_c
def test_a_build_leaves_the_umask_alone(monkeypatch, tmp_path, prebuilt):
    # a linker creates its output with mode 0o777 less the umask; the build
    # must get 0o666 less the umask without load reading or setting it
    def link(cc, out):
        prebuilt(cc, out)
        os.chmod(out, 0o777 & ~0o027)

    def no_umask(*_):
        raise AssertionError("os.umask called")

    old = os.umask(0o027)
    try:
        monkeypatch.setattr(kernels, "_compile", link)
        monkeypatch.setattr(os, "umask", no_umask)
        ext, path = kernels.load(tmp_path, kernels.compiler())
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert path == "c"
    assert [(p.name, p.stat().st_mode & 0o777) for p in tmp_path.iterdir()] == [(Path(ext.__file__).name, 0o640)]
