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
@pytest.mark.parametrize("variant, alpha", [("tv", 0.01), ("tv", 5.0), ("h1", 5.0)])
def test_duality_gap_is_one_metrics_visit(monkeypatch, variant, alpha):
    # on the compiled path the gap is metric_sums' visit with x as its own
    # target, bit for bit objective(x) - dual_value(p) of the numpy code, on
    # pdhgm's and dual_fb's iterates; a non-contiguous p, the same values in
    # column-major planes, falls back to that code
    for shape in ((16, 16), (63, 65)):
        dp = DenoiseProblem(add_gaussian_noise(synthetic_image(*shape), 6.15, 42), alpha, variant)
        iterates = []

        def keep(i, x, p, info):
            if i % 7 == 0:
                iterates.append((x.copy(), p.copy()))

        pdhgm_run(dp, BaselineConfig.default_for(dp, 30, gamma=0.3), callback=keep)
        dual_fb_run(dp, 30, callback=keep)
        for x, p in iterates:
            monkeypatch.setattr(kernels, "PATH", NUMPY)
            want = dp.objective(x) - dp.dual_value(p)
            monkeypatch.setattr(kernels, "PATH", "c")
            rec = Recorder(kernels.ext)
            monkeypatch.setattr(kernels, "ext", rec)
            assert identical(dp.duality_gap(x, p), want)
            assert rec.calls.get("metric_sums") == 1 and rec.rejected == []
            strided = np.asfortranarray(p.transpose(0, 2, 1)).transpose(0, 2, 1)
            assert not strided.flags.c_contiguous and np.array_equal(strided, p)
            assert identical(dp.duality_gap(x, strided), want)
            assert rec.calls["metric_sums"] == 2 and rec.rejected[0][0] == "metric_sums"
            monkeypatch.setattr(kernels, "ext", rec.ext)
    # a field of another grid's shape is refused, as dual_value refuses it
    with pytest.raises(ValueError, match="planar"):
        dp.duality_gap(x, np.zeros((2, 65, 63)))


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
    # on the compiled path every dual value's D* and H1's regularizer ran
    # compiled, and every gap was one metrics visit
    assert rec.rejected == [] and rec.calls == {"grad_adjoint": 4, "metric_sums": 4, "grad_sumsq": 2}


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


def dual_step(sp, x, b0=0.7, mu=0.3, fill=7.0):
    """The dual stage through apply_K on one LiftedStep, its y prefilled with fill.

    A first call allocates the record's y, which is then filled; returns
    (y, minimum) after the second call.
    """
    step = pedi.LiftedStep(b0, mu=mu)
    sp.apply_K(x, step=step)
    step.y.fill(fill)
    assert sp.apply_K(x, step=step) is None
    return step.y, step.minimum


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
        assert identical(ref[-1][1], np.min(norms))
    # np.min's answer with NaN present is NaN, and +0 is a minimum like any other
    x = np.zeros(n)
    assert dual_step(sp, x)[1] == 0.0
    x[-1] = np.nan
    assert n < 2 or np.isnan(dual_step(sp, x)[1])


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
        y = ref[-1][0]
        with np.errstate(all="ignore"):
            kx = sp.apply_K(x)
            y_ref = np.empty_like(y)
            pedi._dual_update(kx, pedi._tail_norms(kx), 0.7, mu, y_ref)
        assert identical(y, y_ref)


@pytest.mark.parametrize("path", ["c", NUMPY], ids=["c", "numpy"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_dual_stage_writes_into_its_record(monkeypatch, rng, path, variant):
    # the first apply_K with a LiftedStep allocates the record's y; every
    # later call writes into the same buffers and returns nothing, and on
    # the compiled path allocates nothing image-sized
    if path == "c" and kernels.PATH != "c":
        pytest.skip(f"kernels: {kernels.PATH}")
    monkeypatch.setattr(kernels, "PATH", path)
    sp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((64, 64))), 0.7, variant).saddle_problem()
    step = pedi.LiftedStep(0.7, mu=0.3)
    x = rng.standard_normal(64 * 64)
    assert sp.apply_K(x, step=step) is None
    buffers = (step.y, step.y_planes)
    for x in (rng.standard_normal(64 * 64), 2.0 * x):
        tracemalloc.start()
        try:
            again = sp.apply_K(x, step=step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again is None and all(a is b for a, b in zip((step.y, step.y_planes), buffers))
        assert path != "c" or peak < 4096, peak


@needs_c
@pytest.mark.parametrize("variant", VARIANTS)
def test_compiled_dual_stage_writes_y_alone(monkeypatch, rng, variant):
    # the compiled dual stage used to store K x and d's heads on a run's
    # final iteration; it writes y alone: its image is left as it was, the
    # record holds its declared fields and no K x, and the numpy path,
    # which composes K x and the solve, gives the compiled pass's y
    sp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((9, 11))), 0.7, variant).saddle_problem()
    step = pedi.LiftedStep(0.7, mu=0.3)
    fields = {f.name for f in dataclasses.fields(step)}
    assert fields == {"b0", "mu", "tau", "minimum", "norm2", "y", "y_planes"}
    x = rng.standard_normal(99)
    before = x.copy()
    for _ in range(2):
        sp.apply_K(x, step=step)
        assert identical(x, before)
        assert set(vars(step)) <= fields
    y = step.y.copy()
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    sp.apply_K(x, step=step)
    assert identical(step.y, y) and set(vars(step)) <= fields


@needs_c
def test_dual_solve_zero_heads(monkeypatch, rng):
    # b0^2 underflows to 0 and mu = 0, so every e is 0: the tails must be 0, not NaN
    sp = tv_saddle(rng, (5, 10))
    stage = lambda x: dual_step(sp, x, b0=1e-170, mu=0.0, fill=np.nan)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, rng.standard_normal(50))
    for got in (c[-1], ref[-1]):
        assert np.all(got[0] == 0.0)
    assert identical(c[-1][0], ref[-1][0])


# 1 x n and n x 1 images whose sum splits across threads; at 257 x 263 the
# planar length is 135,182, so the pairwise tree's first split falls at
# 67,584 and leaves straddle the two planes
H1_SHAPES = SHAPES + [(1, 70001), (70001, 1)]


@needs_c
@pytest.mark.parametrize("shape", H1_SHAPES, ids=shape_ids)
@pytest.mark.parametrize("mu", [0.3, 1e-200, 0.0])
def test_h1_dual_solve(monkeypatch, rng, shape, mu):
    # h1_dual against the reference the numpy path runs, _grad and then
    # LiftedStep.solve (_tail_norms and _dual_update) on K x
    n = shape[0] * shape[1]
    sp = h1_saddle(rng, shape)
    for x in (rng.standard_normal(n), special(rng, n)):
        c, ref = on_both_paths(monkeypatch, lambda x: dual_step(sp, x, mu=mu), x)
        assert_identical(c[-1], ref[-1])
        y, t = ref[-1]
        with np.errstate(all="ignore"):
            g = _grad(x.reshape(shape))
            want = pedi.LiftedStep(0.7, mu=mu)
            want.y = np.empty((1, 2 * n))
            want.solve(g.reshape(1, -1))
            assert identical(t, float(np.square(g).sum()))
        assert identical(t, want.minimum) and identical(y, want.y)


@needs_c
@pytest.mark.parametrize("shape", [(5, 7), (256, 256)], ids=shape_ids)
def test_h1_dual_solve_zero_head(monkeypatch, shape):
    # a constant image with mu = 0: t = 0 and e = 0, so y's tail is zero, not NaN
    sp = h1_saddle(np.random.default_rng(0), shape)
    stage = lambda x: dual_step(sp, x, mu=0.0, fill=np.nan)  # noqa: E731
    c, ref = on_both_paths(monkeypatch, stage, np.full(shape[0] * shape[1], 3.0))
    for got in (c[-1], ref[-1]):
        assert got[1] == 0.0 and np.all(got[0] == 0.0)
    assert_identical(c[-1], ref[-1])


def primal_step(sp, y, x, tau, step=None):
    """pedi's primal step through apply_K_adjoint on a LiftedStep, a new one if None, in place on x: [x, ||x||^2]."""
    step = pedi.LiftedStep(0.7) if step is None else step
    step.tau = tau
    assert sp.apply_K_adjoint(y, out=x, step=step) is x
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
    # the fused step against the three operations it folds, on the y of
    # the record pedi_run passes, with special values in y and in x
    n = shape[0] * shape[1]
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.5, variant)
    sp = dp.saddle_problem()
    step = pedi.LiftedStep(0.5, mu=0.3)
    sp.apply_K(rng.standard_normal(n), step=step)
    for y, x in ((rng.standard_normal(step.y.shape), rng.standard_normal(n)),
                 (special(rng, step.y.shape), rng.standard_normal(n)),
                 (rng.standard_normal(step.y.shape), special(rng, n))):
        step.y[...] = y
        # both paths multiply by the prox's factor 1 / (1 + tau), also at
        # the edge of the range: subnormal at 1e308, 0 at inf
        for tau in (0.3, 1.0, 1e-300, 7.0, 1e308, np.inf):
            c, ref = on_both_paths(monkeypatch, lambda x: primal_step(sp, step.y, x, tau, step), x)
            assert_identical(c[-1], ref[-1])
            with np.errstate(all="ignore"):
                want = primal_reference(sp, shape, step.y, x.copy(), tau)
            assert_identical(c[-1], want)


def pdhgm_primal_reference(planes, x, z, tau, theta):
    """pdhgm's primal step as its own passes after D*: (w, x_bar) with w = D* p, then
    w = ((x - w tau) + z tau) (1 / (1 + tau)) and x_bar = (w - x) theta + w."""
    w = _grad_adjoint(planes)
    w *= tau
    np.subtract(x, w, out=w)
    x_bar = np.multiply(z, tau)
    w += x_bar
    w *= 1.0 / (1.0 + tau)
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
    for tau in (0.3, 1e-300, 7.0, 1e308, np.inf):
        # pdhgm's prox and extrapolation in D*'s pass, with (n1, n2) and flat
        # arrays; the last two steps make the prox's factor 1 / (1 + tau)
        # subnormal and 0
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
    check_ascent(monkeypatch, dp, special(rng, shape), planes, special(rng, shape), {"project_tv": 2})


def ascent(v, s, p):
    """The baselines' ascent (D v) s + p, formed as project_dual's numpy reference forms it."""
    g = _grad(v)
    g *= s
    g += p
    return g


def check_ascent(monkeypatch, dp, v, planes, z, calls):
    """The baselines' dual step P(p + s D v) through project_dual on both paths, in place and into another out.

    Both must give the projection of the ascent bit for bit, and in
    place with recover=z also dual_fb's v = z - D* p of that projection
    over v.  The compiled path makes each in-place step with its kernel
    calls, calls per step s in all, without a rejected array; another out
    takes the numpy reference, the ascent and then its projection.
    """
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    scales = (0.3, 1.0, 1e-300, 7.0, np.inf)
    for s in scales:
        def in_place(v, p):
            assert dp.project_dual(p, out=p, ascent=(v, s)) is p

        def separate(v, p, out):
            assert dp.project_dual(p, out=out, ascent=(v, s)) is out

        def recovering(v, p, z):
            assert dp.project_dual(p, out=p, ascent=(v, s), recover=z) is p

        c, ref = on_both_paths(monkeypatch, in_place, v, planes)
        assert_identical(c[:2], ref[:2])
        with np.errstate(all="ignore"):
            want = dp.project_dual(ascent(v, s, planes))
            primal = z - _grad_adjoint(want)
        assert identical(c[1], want)
        c, ref = on_both_paths(monkeypatch, separate, v, planes, np.full_like(planes, 7.0))
        assert_identical(c[:3], ref[:3])
        assert identical(c[1], planes) and identical(c[2], want)
        c, ref = on_both_paths(monkeypatch, recovering, v, planes, z)
        assert_identical(c[:3], ref[:3])
        assert identical(c[0], primal) and identical(c[1], want) and identical(c[2], z)
    monkeypatch.setattr(kernels, "ext", rec.ext)
    assert rec.rejected == [] and rec.calls == {k: n * len(scales) for k, n in calls.items()}


@needs_c
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
@pytest.mark.parametrize("variant", VARIANTS)
def test_unlifted_dual_on_both_layouts(monkeypatch, rng, shape, variant):
    # pedi_run's planar tails, on special values: one numpy multiplication
    # on either kernel path, 2 tail(y) bit for bit, and no kernel call
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal(shape)), 0.5, variant)
    kx = dp.saddle_problem().apply_K(np.zeros(dp.n_pixels))
    kx[...] = special(rng, kx.shape)
    y = BlockConeVector.view_of(np.ones(kx.shape[0]), kx)
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    c, ref = on_both_paths(monkeypatch, lambda: dp.unlifted_dual(y))
    monkeypatch.setattr(kernels, "ext", rec.ext)
    assert identical(c[0], ref[0])
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

        def stage(kx, tn2, y):
            pedi._dual_update(kx.T, tn2, 0.7, 0.3, y.T)

        c, ref = on_both_paths(monkeypatch, stage, kx, tn2, np.empty((m, 1)))
        assert_identical(c, ref)
        # the one block's squared norm, summed in component-major order
        c, ref = on_both_paths(monkeypatch, lambda kx: pedi._tail_norms(kx.T), kx)
        with np.errstate(over="ignore"):
            assert identical(c[1], ref[1]) and identical(ref[1], np.array([np.square(kx).sum()]))


@needs_c
@pytest.mark.parametrize("shape", H1_SHAPES, ids=shape_ids)
def test_h1_project_dual_ascent(monkeypatch, rng, shape):
    # H1's dual step: the sum of the ascent's squares, formed on the fly,
    # then its write, inside the ball and outside, and on special values
    v, planes = rng.standard_normal(shape), rng.standard_normal((2,) + shape)
    norm = imaging._field_norm(ascent(v, 0.3, planes))
    for alpha in (0.5 * norm, 2.0 * norm):
        dp = DenoiseProblem(imaging.ImageGrid(np.zeros(shape)), alpha, "h1")
        for args in ((v, planes), (special(rng, shape), planes), (v, special(rng, (2,) + shape))):
            check_ascent(monkeypatch, dp, *args, special(rng, shape), {"project_h1": 2, "grad_adjoint": 1})


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
        kx, minimum = sp.apply_K(x), dual_step(sp, x)[1]
        norms = np.einsum("ij,ij->i", kx, kx)
        assert minimum == 0.0 and np.flatnonzero(norms == 0.0).tolist() == [n1 * n2 - 1]
        x[-1] = np.nan
        assert np.isnan(dual_step(sp, x)[1])
        x[-1] = 0.0


def metric_terms(x, z, xhat, planes, tv, c):
    """The four terms metric_sums adds, from the numpy path's own operations."""
    g = _grad(x.reshape(planes.shape[1:]))
    norms = np.sqrt(np.einsum("kij,kij->ij", g, g)) if tv else np.zeros(x.size)
    w = _grad_adjoint(planes, scale=c).reshape(-1)
    return [np.square(x - z), norms, np.square(z - w), np.square(x - xhat)]


@needs_c
def test_metric_sums_follow_numpys_summation_order(monkeypatch, rng):
    # numpy sums float64 pairwise; the kernel repeats that order, so a numpy
    # release that changed it fails here first.  Rows of one pixel, single
    # rows and rows whose length is no multiple of 8 each cut the leaves of
    # the sum into row segments differently, and c = 2 is pedi's factor
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    sizes = [*range(1, 301), 4095, 4096, 4097, 8191, 8192, 8193, 65536, 131072]
    shapes = [(1, n) for n in sizes] + [(n, 1) for n in range(1, 301)] + [(n, 1) for n in (4097, 8193)]
    shapes += [(3, 5), (7, 9), (13, 11), (5, 127), (17, 129), (63, 65), (129, 3), (37, 101), (255, 257)]
    for shape in shapes:
        n = shape[0] * shape[1]
        x, z, xhat = (rng.standard_normal(n) for _ in range(3))
        planes = rng.standard_normal((2,) + shape)
        for tv in (True, False):
            for c in (1.0, 2.0):
                got = kernels.ext.metric_sums(x, z, xhat, planes, tv, c)
                want = [float(t.sum()) for t in metric_terms(x, z, xhat, planes, tv, c)]
                assert [float.hex(v) for v in got] == [float.hex(v) for v in want], (shape, tv, c)


@needs_c
def test_sumsq_follows_numpys_summation_order(monkeypatch, rng):
    # numpy's square-then-sum order, which fixes H1's norms and pedi's
    # ||x||^2: a numpy release that changed it fails here first.  The fused
    # primal step's sum splits across threads from 65,536 pixels on two
    # CPUs, and sizes about 8,192, numpy's ufunc buffer size, check that
    # numpy's own sum adds one pairwise tree over the whole array
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

    def apply_K_adjoint(y, out=None, step=None):
        # the primal step leaves this entry near 1e200, so ||x||^2 overflows
        out[3] = 1e200
        return sp.apply_K_adjoint(y, out=out, step=step)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="at iteration 0$"):
            pedi_run(dataclasses.replace(sp, apply_K_adjoint=apply_K_adjoint),
                     StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 1)


def identical_records(a: IterationRecord, b: IterationRecord) -> bool:
    return all(identical(getattr(a, f), getattr(b, f)) for f in IterationRecord._fields)


def lifted(planes, variant):
    """pedi's y over the planar field planes, laid out as pedi_run lays out its tails."""
    n = planes[0].size
    tails = planes.reshape(2, n).T if variant == "tv" else planes.reshape(1, 2 * n)
    return BlockConeVector.view_of(np.ones(tails.shape[0]), tails)


@needs_c
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", SHAPES, ids=shape_ids)
def test_metrics_on_both_paths(monkeypatch, rng, shape, variant):
    # each field is logged as a baseline's p and as the tails of pedi's y,
    # which metrics reads as they lie, 2 D* tail(y) with the product last:
    # for finite tails that is the record of the field 2 tail(y)
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

        def stage(x, planes, lift):
            dual = lifted(planes, variant) if lift else planes
            return metrics(x, dual, dp, target, 3.0, iter=7, wall_seconds=0.5)

        for lift in (False, True):
            c, ref = on_both_paths(monkeypatch, lambda x, planes: stage(x, planes, lift), x, planes)
            assert identical_records(c[-1], ref[-1]), (lift, c[-1], ref[-1])
        if planes is not cases[2][1]:
            for path in ("c", NUMPY):
                monkeypatch.setattr(kernels, "PATH", path)
                with np.errstate(all="ignore"):
                    assert identical_records(stage(x, 2.0 * planes, False), c[-1]), path
    assert rec.rejected == [] and rec.calls["metric_sums"] == 2 * len(cases) + len(cases) - 1
    with pytest.raises(ValueError):
        metrics(x, lifted(rng.standard_normal((2, shape[0] + 1, shape[1])), variant), dp, target, 3.0)


@needs_c
def test_metrics_allocates_no_image(rng):
    # the numpy path's objective, dual_value and residual peak at 133 KB
    # here; H1's regularizer sums its gradient without storing it, and
    # pedi's y is read as it lies, with no unlifted field: the loop's view
    # and the result's copy alike
    for variant in VARIANTS:
        dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((64, 64))), 0.4, variant)
        x, p = rng.standard_normal(64 * 64), rng.standard_normal((2, 64, 64))
        target = Target.of(dp, rng.standard_normal(64 * 64))
        sp = dp.saddle_problem()
        res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 3)
        for dual in (p, lifted(p, variant), res.y):
            metrics(x, dual, dp, target, 3.0)
            tracemalloc.start()
            try:
                metrics(x, dual, dp, target, 3.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096, (variant, type(dual), peak)


# ---------------------------------------------------------------------------
# whole solvers


def go_on(*_):
    return None


def run_all(dp, iters=50):
    """x, the dual iterate, the step states and the stop of all four solvers, iters iterations each.

    Each run gets a callback that returns None, so the contract's test rides
    in every iteration.
    """
    sp = dp.saddle_problem()
    out = []
    for rule in ("general", "soc"):
        res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), iters, step_rule=rule, callback=go_on)
        out.append((res.x, res.y.heads, res.y.tails, res.states, [res.n_iters, res.stop_reason]))
    res = pdhgm_run(dp, BaselineConfig.default_for(dp, iters), callback=go_on)
    out.append((res.x, res.p, [res.n_iters, res.stop_reason]))
    res = dual_fb_run(dp, iters, callback=go_on)
    out.append((res.x, res.p, [res.n_iters, res.stop_reason]))
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
@pytest.mark.parametrize("shape", [(256, 256), (257, 263), (1, 1), (1, 7), (7, 1), (2, 2)], ids=shape_ids)
def test_dual_fb_x_on_both_paths(monkeypatch, shape):
    # on TV the projection and x = z - D* p are one sweep, split across
    # threads at the first two sizes, whose chunks' first rows of x the
    # caller makes after the join
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(*shape), 6.15, 3), 0.3, "tv")
    for iters in (1, 20):
        rec = Recorder(kernels.ext)
        monkeypatch.setattr(kernels, "ext", rec)
        got = dual_fb_run(dp, iters)
        monkeypatch.setattr(kernels, "ext", rec.ext)
        assert rec.rejected == [] and rec.forms == {("project_tv", 6)} and rec.calls == {"project_tv": iters}
        monkeypatch.setattr(kernels, "PATH", NUMPY)
        want = dual_fb_run(dp, iters)
        monkeypatch.setattr(kernels, "PATH", "c")
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
    # projection are one project_tv pass, pdhgm's primal step rides in its
    # grad_adjoint, and dual_fb's x = z - D* p in its project_tv sweep
    assert rec.calls == {"grad_adjoint": 5, "tv_dual": 10, "primal_step": 10, "project_tv": 10}


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
    # each logging its rows through metrics, pedi's y as it lies
    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    for variant, alpha in (("tv", 0.3), ("h1", 5.0)):
        dp = DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 3), alpha, variant)
        sp = dp.saddle_problem()
        target = Target.of(dp, dp.z.flat())

        def log(i, x, p, *_):
            metrics(x, p, dp, target, 1.0)

        for rule in ("general", "soc"):
            pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 3, step_rule=rule, callback=log)
        pdhgm_run(dp, BaselineConfig.default_for(dp, 3), callback=log)
        dual_fb_run(dp, 3, callback=log)
    exported = {name for name in dir(rec.ext) if callable(getattr(rec.ext, name)) and not name.startswith("_")}
    forms = documented_forms(rec.ext)
    assert rec.rejected == []
    assert {name for name, _ in forms} == exported
    assert rec.forms == forms and len(forms) == 10


# ---------------------------------------------------------------------------
# arrays a kernel rejects


@needs_c
def test_kernels_reject_without_writing(rng):
    ext = kernels.ext
    v = rng.standard_normal((4, 5))
    # the checks every wrapper shares, on pedi's y, which tv_dual writes,
    # and on the baselines' p, which project_tv writes in place
    writes = {"tv_dual's y": lambda out: ext.tv_dual(v, out, 1.0, 0.5),
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
    # dual_fb's sweep also writes x = z - D* p over v: each of these leaves
    # both unwritten
    x, z = np.full((4, 5), 7.0), rng.standard_normal((4, 5))
    for why, (w, q, u) in {
        "x overlapping p": (p[1], p, z),
        "z overlapping x": (x, p, x),
        "z overlapping p": (x, p, p[0]),
        "z of the wrong shape": (x, p, z.reshape(5, 4)),
        "flat z of 19 entries": (x, p, z.reshape(-1)[:19].copy()),
        "read-only x": (np.full((4, 5), 7.0), p, z),
    }.items():
        w.flags.writeable = why != "read-only x"
        with pytest.raises(ValueError):
            ext.project_tv(w, q, u, 1.0, 1.0, 0.5)
        assert np.all(w == 7.0) and np.all(q == 7.0) and np.all(p == 7.0), why
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
    # tv_dual and h1_dual: the shapes, the dtype and a y overlapping the image
    y, wide = np.full((2, 4, 5), 7.0), np.full((2, 4, 10), 7.0)
    under = np.full((3, 4, 5), 7.0)
    for dual in (ext.tv_dual, ext.h1_dual):
        for args in ((v.T, y), (v, y[:, :, :4].copy()), (v, y.reshape(2, 20)), (v, y.reshape(1, 40)),
                     (v, y.transpose(0, 2, 1).copy()), (v.astype(np.float32), y), (v, y.astype(np.float32)),
                     (v, wide[:, :, ::2]), (under[0], under[:2])):
            with pytest.raises(ValueError):
                dual(*args, 1.0, 0.5)
    assert all(np.all(a == 7.0) for a in (y, wide, under))
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
        step = pedi.LiftedStep(0.4, mu=0.3)
        dp.saddle_problem().apply_K(x, step=step)
        return step.y, step.minimum

    y32 = dp.saddle_problem().apply_K(x).astype(np.float32)

    def fb_step(z):
        q, x2 = planes.copy(), v.copy()
        dp.project_dual(q, out=q, ascent=(x2, 0.3), recover=z)
        return [q, x2]

    def rejected():
        q = p.copy(order="K")
        return [
            # strided planes, x = z - D* p as dual_value makes it
            _grad_adjoint(planes[:, :, ::-1].copy()[:, :, ::-1], minuend=v),
            # the baselines' dual step in place on that field
            dp.project_dual(q, out=q, ascent=(v, 0.3)),
            # dual_fb's sweep with a reversed z: the reference, whose D*
            # rejects it too
            *fb_step(v[:, ::-1]),
            # a reversed x, not C-contiguous: the fused pass rejects it
            *dual_update(x[::-1]),
            dp.saddle_problem().prox_G(v.reshape(-1)[::-1], 0.3),
            # float32 y tails: the fused primal step rejects them, and the
            # numpy reference runs
            *primal_step(dp.saddle_problem(), y32, x.copy(), 0.3),
            # the norm of that field, summed in planar order
            imaging._field_norm(p),
            # that field, a float32 one and a strided one
            *metrics(x, p, dp, target, 3.0),
            *metrics(x, planes.astype(np.float32), dp, target, 3.0),
            *metrics(x, np.repeat(planes, 2, axis=2)[:, :, ::2], dp, target, 3.0),
        ]

    rec = Recorder(kernels.ext)
    monkeypatch.setattr(kernels, "ext", rec)
    got = rejected()
    assert [name for name, _ in rec.rejected] == [
        "grad_adjoint", "project_tv", "project_tv", "grad_adjoint", "tv_dual", "primal_step",
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
# TV dual_fb's sweep, whose chunks leave their first row of x to the caller
for shape in ((256, 256), (257, 263)):
    res = dual_fb_run(DenoiseProblem(add_gaussian_noise(synthetic_image(*shape), 6.15, 3), 0.3, "tv"), 30)
    xs += [res.x, res.p]
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
            x, p = runs[2][:2]
            out += [*runs, tuple(metrics(x, p, dp, Target.of(dp, dp.z.flat()), 1.0))]
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
