import dataclasses
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from barrierpd import imaging, kernels
from barrierpd.imaging import (
    DB_CLAMP,
    DenoiseProblem,
    ImageGrid,
    Target,
    _grad,
    _grad_adjoint,
    add_gaussian_noise,
    metrics,
    synthetic_image,
    unlift,
)
from barrierpd.jordan import BlockConeVector
from barrierpd.pedi import LiftedStep
from test_golden_trajectory import planar, ref_grad, ref_grad_adjoint, ref_project


def rand_grid(rng, n1=6, n2=5, scale=1.0):
    return ImageGrid(scale * rng.standard_normal((n1, n2)))


def test_image_grid_validation():
    with pytest.raises(ValueError):
        ImageGrid(np.array([1.0, 2.0]))  # not 2-d
    with pytest.raises(ValueError):
        ImageGrid(np.array([[np.inf]]))
    g = ImageGrid(np.ones((2, 3)))
    assert g.n1 == 2 and g.n2 == 3
    with pytest.raises(ValueError):
        g.values[0, 0] = 5.0


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_problem_rejects_alpha_that_is_not_positive_and_finite(alpha):
    with pytest.raises(ValueError):
        DenoiseProblem(ImageGrid(np.ones((2, 3))), alpha, "tv")


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
def test_noise_rejects_sigma_that_is_not_nonnegative_and_finite(sigma):
    with pytest.raises(ValueError):
        add_gaussian_noise(ImageGrid(np.ones((2, 3))), sigma, 1)


def test_constant_image_zero_gradient():
    g = _grad(np.full((4, 7), 3.5))
    assert np.all(g == 0.0)


def test_two_pixel_stencil():
    # vertical pair (a, b): single axis-0 difference b - a, no axis-1 term
    g = np.moveaxis(_grad(np.array([[1.0], [4.0]])), 0, -1)
    assert g[0, 0, 0] == 3.0
    assert g[1, 0, 0] == 0.0  # Neumann: last difference vanishes
    assert np.all(g[..., 1] == 0.0)


def test_adjoint_identity(rng):
    for _ in range(20):
        img = rand_grid(rng)
        planes = rng.standard_normal((2, 6, 5))
        lhs = float(np.sum(_grad(img.values) * planes))
        rhs = float(np.sum(img.values * _grad_adjoint(planes)))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (64, 64)], ids="{0[0]}x{0[1]}".format)
def test_gradient_kernels_match_slicing_reference(rng, shape):
    # the flat shifted passes must round exactly like interleaved 2-d column
    # slices; the boundary entries the Neumann gradient never produces are
    # nonzero here, so a kernel that assumes them zero fails
    v = rng.standard_normal(shape)
    planes = rng.standard_normal((2,) + shape)
    assert np.all(planes[1, :, -1] != 0.0) and np.all(planes[0, -1, :] != 0.0)
    want_grad = np.moveaxis(ref_grad(v), -1, 0)
    want_adj = ref_grad_adjoint(np.moveaxis(planes, 0, -1))
    assert np.array_equal(_grad(v), want_grad)
    assert np.array_equal(_grad_adjoint(planes), want_adj)
    img = np.full(shape, np.nan)
    assert _grad_adjoint(planes, out=img) is img and np.array_equal(img, want_adj)


def test_gradient_kernels_refuse_out_that_would_copy(rng):
    # writing through a flattened copy would leave out untouched
    n = 5
    with pytest.raises(ValueError):
        _grad_adjoint(rng.standard_normal((2, n, n)), out=np.empty((n, n + 1))[:, :n])


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_kernels_allocate_no_array_copy(rng, variant):
    # each call may allocate at most a quarter of one n1*n2 float array: a
    # reshape that silently started copying would allocate a whole one.
    # pedi's two stages with step= are one kernel call each on the compiled
    # path; the numpy path composes them from operators that allocate
    n = 64
    dp = DenoiseProblem(rand_grid(rng, n, n), 0.5, variant)
    sp = dp.saddle_problem()
    v = rng.standard_normal((n, n))
    G, img = _grad(v), np.empty((n, n))
    y = sp.apply_K(v.reshape(-1))
    y[...] = rng.standard_normal(y.shape)
    x = np.empty(n * n)
    x2, step = np.zeros(n * n), LiftedStep(0.5, mu=0.3, tau=0.3)
    calls = {
        "_grad_adjoint": lambda: _grad_adjoint(G, out=img),
        "apply_K_adjoint": lambda: sp.apply_K_adjoint(y, out=x),
    }
    if kernels.PATH == "c":
        calls["dual step"] = lambda: sp.apply_K(v.reshape(-1), step=step)
        calls["primal step"] = lambda: sp.apply_K_adjoint(step.y, out=x2, step=step)
    for call in calls.values():
        call()
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(peak < n * n * 8 / 4 for peak in peaks.values()), peaks


def test_saddle_operators_are_freed_without_a_cyclic_collection(rng):
    # an operator that called itself through its closure made a reference
    # cycle, which kept z alive with every saddle problem until the cyclic
    # collector ran: perfbench's peak RSS grew by 5.7 MiB at 256 x 256
    sp = DenoiseProblem(rand_grid(rng, 8, 8), 0.5, "h1").saddle_problem()
    refs = [weakref.ref(f) for f in (sp.apply_K, sp.apply_K_adjoint, sp.prox_G)]
    gc.disable()
    try:
        del sp
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_lift_unlift(rng):
    # K x carries the gradient tails, (n_blocks, m); the heads are zero
    z = rand_grid(rng, 4, 3)
    x = rng.standard_normal(12)
    field = _grad(x.reshape(4, 3))
    for variant, shape in (("tv", (12, 2)), ("h1", (1, 24))):
        tails = DenoiseProblem(z, 1.0, variant).saddle_problem().apply_K(x)
        assert tails.shape == shape
        v = BlockConeVector.from_arrays(np.zeros(shape[0]), tails)
        assert np.array_equal(unlift(v, (4, 3)), field)
    with pytest.raises(ValueError):
        DenoiseProblem(z, 1.0, "l2")
    with pytest.raises(ValueError):
        unlift(BlockConeVector.from_arrays(np.zeros(12), field.reshape(12, 2)), (5, 5))


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_operators_write_into_out(rng, variant):
    dp = DenoiseProblem(rand_grid(rng, 4, 3), 0.7, variant)
    sp = dp.saddle_problem()
    x, x2 = rng.standard_normal(12), rng.standard_normal(12)
    # the dual stage returns nothing and writes y into its record, the same
    # buffer on every call
    step = LiftedStep(0.7, mu=0.3)
    assert sp.apply_K(x, step=step) is None
    y = step.y
    assert sp.apply_K(x2, step=step) is None and step.y is y
    buf = sp.apply_K(x)
    v = np.empty(12)
    assert np.shares_memory(sp.apply_K_adjoint(buf, out=v), v)
    assert np.array_equal(v, sp.apply_K_adjoint(buf))
    assert np.shares_memory(sp.prox_G(x, 0.3, out=v), v)
    assert np.array_equal(v, sp.prox_G(x, 0.3))
    with pytest.raises(ValueError):
        sp.prox_G(v, 0.3, out=v)
    # the primal step writes over the x it is given, and needs one
    with pytest.raises(ValueError):
        sp.apply_K_adjoint(buf, step=LiftedStep(0.7, tau=0.3))
    p = rng.standard_normal((2, 4, 3)) * 3.0
    q = p.copy()
    assert dp.project_dual(q, out=q) is q
    assert np.array_equal(q, dp.project_dual(p))


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_unlift_round_trip(rng, variant):
    # field -> tails in apply_K's layout -> field, through both entry points
    dp = DenoiseProblem(rand_grid(rng, 4, 3), 0.7, variant)
    field = rng.standard_normal((2, 4, 3))
    tails = field.reshape(-1, 12 if variant == "tv" else 1).T
    assert tails.shape == dp.saddle_problem().apply_K(np.zeros(12)).shape
    for y in (BlockConeVector.from_arrays(np.ones(tails.shape[0]), tails),
              BlockConeVector.view_of(np.ones(tails.shape[0]), tails)):
        assert np.array_equal(unlift(y, (4, 3)), field)
        assert np.array_equal(dp.unlifted_dual(y), 2.0 * field)


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_dual_fields_are_planar_only(rng, variant):
    # every dual-field entry point takes the planar (2, n1, n2) layout alone:
    # an interleaved (n1, n2, 2) array of the same size, or any other shape,
    # raises before anything is written
    dp = DenoiseProblem(rand_grid(rng, 4, 3), 0.7, variant)
    x, v = rng.standard_normal(12), rng.standard_normal((4, 3))
    target = Target.of(dp, rng.standard_normal(12))
    y = BlockConeVector.view_of(np.ones(12 if variant == "tv" else 1), dp.saddle_problem().apply_K(x))
    good = rng.standard_normal((2, 4, 3))
    for shape in ((4, 3, 2), (2, 3, 4), (24,), (1, 2, 4, 3)):
        bad = np.full(shape, 7.0)
        calls = {
            "project_dual's p": lambda: dp.project_dual(bad),
            "project_dual's out": lambda: dp.project_dual(good, out=bad),
            "project_dual in place": lambda: dp.project_dual(bad, out=bad),
            "project_dual's iteration": lambda: dp.project_dual(bad, out=bad, ascent=(v, 0.3), recover=v.copy()),
            "dual_value": lambda: dp.dual_value(bad),
            "duality_gap": lambda: dp.duality_gap(x, bad),
            "metrics": lambda: metrics(x, bad, dp, target, 1.0),
        }
        for what, call in calls.items():
            with pytest.raises(ValueError, match="planar"):
                call()
            assert np.all(bad == 7.0), (what, shape)
    # the planar field itself passes every one of them
    assert dp.project_dual(good).shape == good.shape and dp.unlifted_dual(y).shape == good.shape
    assert math.isfinite(dp.duality_gap(x, good)) and math.isfinite(metrics(x, good, dp, target, 1.0).gap_db)


def test_half_z2_is_not_an_init_field(rng):
    # (1/2)||z||^2 is derived from z: the constructor must not take it, and
    # a problem built from another one's fields computes its own
    z = rand_grid(rng, 4, 3)
    with pytest.raises(TypeError):
        DenoiseProblem(z, 0.5, "tv", 123.0)
    with pytest.raises(TypeError):
        DenoiseProblem(z, 0.5, "tv", _half_z2=123.0)
    dp = DenoiseProblem(z, 0.5, "tv")
    assert dp.half_z2 == 0.5 * float(np.square(z.flat()).sum())
    other = rand_grid(rng, 4, 3)
    assert dataclasses.replace(dp, z=other).half_z2 == 0.5 * float(np.square(other.flat()).sum())
    assert dp.duality_gap(dp.z.flat(), np.zeros((2, 4, 3))) == pytest.approx(0.5 * dp.regularizer(dp.z.flat()))


def test_zero_field_lifts_to_zero():
    sp = DenoiseProblem(ImageGrid(np.full((2, 2), 3.0)), 1.0, "tv").saddle_problem()
    assert np.all(sp.apply_K(np.full(4, 3.0)) == 0.0)


def test_saddle_problem_prox(rng):
    z = rand_grid(rng)
    sp = DenoiseProblem(z, 0.7, "tv").saddle_problem()
    zf = z.flat()
    # the data is a fixed point of the prox for any step
    assert np.allclose(sp.prox_G(zf, 3.7), zf)
    assert np.allclose(sp.prox_G(np.zeros_like(zf), 1.0), zf / 2.0)


def test_saddle_problem_adjoint_consistency(rng):
    # tails arrays carry the trace inner product <u, v> = 2 u.v
    z = rand_grid(rng)
    for variant in ("tv", "h1"):
        sp = DenoiseProblem(z, 0.3, variant).saddle_problem()
        x = rng.standard_normal(sp.primal_dim)
        Kx = sp.apply_K(x)
        y_tails = rng.standard_normal(Kx.shape)
        assert 2.0 * float(np.sum(Kx * y_tails)) == pytest.approx(
            float(x @ sp.apply_K_adjoint(y_tails)), rel=1e-12
        )
        assert sp.b0 == 0.3


def estimate_opnorm(apply_op, apply_adjoint, dim: int, iters: int = 30, rtol: float = 1e-6, seed: int = 0) -> float:
    """Operator norm by power iteration on the normal map v -> A*(A v).

    The oracle for DenoiseProblem.opnorm_D: it converges from below, so it
    may never exceed the closed form.  Deterministic (fixed seed), with early
    stopping when successive Rayleigh estimates agree to rtol.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = apply_adjoint(apply_op(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new_est = math.sqrt(nw)
        v = w / nw
        if est > 0.0 and abs(new_est - est) <= rtol * est:
            est = new_est
            break
        est = new_est
    return est


def power_iteration_opnorm_D(n1, n2):
    """The 30-step power-iteration estimate of ||D|| that opnorm_D once returned."""
    return estimate_opnorm(
        lambda v: _grad(v.reshape(n1, n2)), lambda g: _grad_adjoint(g).reshape(-1), n1 * n2
    )


def test_opnorms(rng):
    dp = DenoiseProblem(rand_grid(rng, 8, 8), 1.0, "tv")
    assert 0.0 < dp.opnorm_D <= np.sqrt(8.0)
    sp = dp.saddle_problem()
    assert sp.opnorm_K == pytest.approx(np.sqrt(2.0) * dp.opnorm_D)
    # a long power iteration attains ||K|| from below, to roundoff
    x = rng.standard_normal(64)
    for _ in range(500):
        v = sp.apply_K_adjoint(sp.apply_K(x))
        x = v / np.linalg.norm(v)
    Kx = sp.apply_K(x)
    attained = np.sqrt(2.0 * float(np.sum(Kx * Kx)))
    assert attained <= sp.opnorm_K <= attained * (1.0 + 1e-14)


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (9, 20), (16, 16)], ids="{0[0]}x{0[1]}".format
)
def test_opnorm_D_is_the_dense_spectral_norm(shape):
    # D as a dense (2N, N) matrix, column k the gradient of the k-th unit image
    n = shape[0] * shape[1]
    M = np.stack([_grad(e.reshape(shape)).reshape(-1) for e in np.eye(n)], axis=1)
    exact = np.linalg.norm(M, 2)
    got = DenoiseProblem(ImageGrid(np.zeros(shape)), 1.0, "tv").opnorm_D
    assert exact <= got <= exact * (1.0 + 1e-14)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_power_iteration_stays_below_closed_form(n):
    dp = DenoiseProblem(ImageGrid(np.zeros((n, n))), 1.0, "tv")
    assert power_iteration_opnorm_D(n, n) <= dp.opnorm_D


def test_setup_applies_no_gradient(monkeypatch, rng):
    # set-up reads ||D|| from its closed form; an iterative estimate
    # would apply D and D* here
    calls = {"_grad": 0, "_grad_adjoint": 0}

    def counted(name):
        kernel = getattr(imaging, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(imaging, name, counted(name))
    for variant in imaging.VARIANTS:
        dp = DenoiseProblem(rand_grid(rng, 16, 16), 0.5, variant)
        assert dp.opnorm_D > 0.0
        assert dp.saddle_problem().opnorm_K > 0.0
    assert calls == {"_grad": 0, "_grad_adjoint": 0}
    # the counters do see the kernels
    dp.saddle_problem().apply_K(np.zeros(dp.n_pixels))
    assert calls["_grad"] == 1


def test_estimate_opnorm_on_matrix(rng):
    mat = rng.standard_normal((7, 5))
    est = estimate_opnorm(lambda v: mat @ v, lambda w: mat.T @ w, 5, iters=200, rtol=1e-12)
    assert est == pytest.approx(np.linalg.norm(mat, 2), rel=1e-6)


def test_regularizer_matches_dense_evaluation(rng):
    # direct evaluation on a 4x4 image against the vectorised implementation
    z = rand_grid(rng, 4, 4)
    x = rng.standard_normal(16)
    g = np.moveaxis(_grad(x.reshape(4, 4)), 0, -1)
    tv_direct = sum(
        np.sqrt(g[i, j, 0] ** 2 + g[i, j, 1] ** 2) for i in range(4) for j in range(4)
    )
    h1_direct = np.sqrt(sum(g[i, j, k] ** 2 for i in range(4) for j in range(4) for k in range(2)))
    assert DenoiseProblem(z, 1.0, "tv").regularizer(x) == pytest.approx(tv_direct)
    assert DenoiseProblem(z, 1.0, "h1").regularizer(x) == pytest.approx(h1_direct)


def test_noise_determinism_and_identity(rng):
    img = synthetic_image(8, 8)
    assert add_gaussian_noise(img, 0.0, 1) is img
    a = add_gaussian_noise(img, 2.0, 7)
    b = add_gaussian_noise(img, 2.0, 7)
    c = add_gaussian_noise(img, 2.0, 8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError):
        add_gaussian_noise(img, -1.0, 1)
    with pytest.raises(ValueError):
        add_gaussian_noise(img, 1.0, None)


def test_noise_statistics():
    img = ImageGrid(np.zeros((1000, 1000)))
    noisy = add_gaussian_noise(img, 3.0, 123)
    assert np.std(noisy.values) == pytest.approx(3.0, rel=0.01)


def test_project_dual(rng):
    dp = DenoiseProblem(rand_grid(rng, 5, 5), 0.4, "tv")
    p = dp.project_dual(rng.standard_normal((2, 5, 5)) * 3.0)
    assert np.all(np.sqrt(np.sum(p**2, axis=0)) <= 0.4 * (1 + 1e-14))
    dph = DenoiseProblem(rand_grid(rng, 5, 5), 0.4, "h1")
    ph = dph.project_dual(rng.standard_normal((2, 5, 5)) * 3.0)
    assert np.linalg.norm(ph) <= 0.4 * (1 + 1e-14)
    small = 0.01 * rng.standard_normal((2, 5, 5))
    assert np.allclose(dph.project_dual(small), small)
    # the primal recovery writes over the ascent's image, so it needs one
    q = np.full((2, 5, 5), 7.0)
    with pytest.raises(ValueError, match="ascent"):
        dp.project_dual(q, out=q, recover=dp.z.values)
    # and pdhgm's prox takes its z from recover=
    x, x_next = dp.z.values.copy(), np.full((5, 5), 7.0)
    with pytest.raises(ValueError, match="recover"):
        dp.project_dual(q, out=q, ascent=(x, 0.5), prox=(dp.z.values, x_next, 0.3, 0.8))
    # an ascent is a baseline's whole iteration, in place with recover=:
    # without recover=, or into another out, it raises and writes nothing
    out = np.full((2, 5, 5), 7.0)
    for call in (lambda: dp.project_dual(q, out=q, ascent=(x, 0.5)),
                 lambda: dp.project_dual(q, out=out, ascent=(x, 0.5), recover=dp.z.values),
                 lambda: dp.project_dual(q, ascent=(x, 0.5), recover=dp.z.values)):
        with pytest.raises(ValueError, match="ascent"):
            call()
    assert np.all(q == 7.0) and np.all(out == 7.0)
    assert np.all(x == dp.z.values) and np.all(x_next == 7.0)


@pytest.mark.parametrize("alpha", [0.4, 1e-5, 1e3, 1e-305])
def test_project_dual_edges_match_reference(rng, alpha):
    # bit for bit against the clamp min(1, alpha / max(||p||, 1e-300)) on a
    # zero pixel, pixels of norm exactly alpha and one ulp either side of
    # it, and norms at and below the 1e-300 floor; p is laid out as the
    # reference's interleaved field, then projected in the planar layout
    dp = DenoiseProblem(rand_grid(rng, 4, 4), alpha, "tv")
    p = alpha * rng.standard_normal((4, 4, 2))
    p[0] = [[0.0, 0.0], [alpha, 0.0], [0.0, -alpha], [np.nextafter(alpha, 0.0), 0.0]]
    p[1] = [[np.nextafter(alpha, np.inf), 0.0], [1e-301, 0.0], [5e-324, 0.0], [1e-300, 1e-300]]
    got = np.moveaxis(dp.project_dual(planar(p)), 0, -1)
    assert np.array_equal(got, ref_project(dp, p))
    assert np.all(got[0, 0] == 0.0)
    if alpha > 1e-150:
        # sqrt(alpha^2) == alpha unless alpha^2 underflows
        assert np.array_equal(got[0, 1:], p[0, 1:])


# ---------------------------------------------------------------------------
# metrics


def test_metrics_clamp_at_target(rng):
    dp = DenoiseProblem(rand_grid(rng, 4, 4, scale=10.0), 0.5, "tv")
    target = dp.z.flat() * 0.9
    gap0 = 0.5 * float(np.sum(dp.z.flat() ** 2))
    rec = metrics(target, np.zeros((2, 4, 4)), dp, Target.of(dp, target), gap0, iter=3)
    assert rec.target_db == DB_CLAMP
    assert rec.value_db == DB_CLAMP
    assert rec.iter == 3


def test_metrics_gap_at_data(rng):
    # x = z, p = 0: the gap is exactly alpha R(z)
    dp = DenoiseProblem(rand_grid(rng, 4, 4, scale=10.0), 0.5, "tv")
    zf = dp.z.flat()
    assert dp.duality_gap(zf, np.zeros((2, 4, 4))) == pytest.approx(
        0.5 * dp.regularizer(zf)
    )


def test_weak_duality(rng):
    dp = DenoiseProblem(rand_grid(rng, 5, 5, scale=10.0), 0.5, "tv")
    for _ in range(50):
        x = rng.standard_normal(25)
        p = dp.project_dual(rng.standard_normal((2, 5, 5)))
        gap = dp.duality_gap(x, p)
        assert gap >= -1e-9 * (1.0 + abs(dp.objective(x)))


def test_metrics_rejects_degenerate_target(rng):
    dp = DenoiseProblem(rand_grid(rng, 4, 4), 0.5, "tv")
    with pytest.raises(ValueError):
        Target.of(dp, np.zeros(16))
    with pytest.raises(ValueError):
        metrics(np.zeros(16), np.zeros((2, 4, 4)), dp, Target.of(dp, np.ones(16)), 0.0)


def test_metrics_log_a_nan_as_nan(rng):
    # max(DB_CLAMP, nan) is DB_CLAMP: a NaN metric used to read -320 dB,
    # perfect convergence
    dp = DenoiseProblem(rand_grid(rng, 4, 4, scale=10.0), 0.5, "tv")
    target = Target.of(dp, dp.z.flat() * 0.9)
    x = dp.z.flat() * 0.9
    x[5] = np.nan
    rec = metrics(x, np.zeros((2, 4, 4)), dp, target, 1.0)
    assert math.isnan(rec.gap_db) and math.isnan(rec.target_db) and math.isnan(rec.value_db)
    assert imaging._db(math.nan, 1.0) != imaging._db(math.nan, 1.0)
    assert imaging._db(1e-40, 1.0) == DB_CLAMP and imaging._db(0.0, 1.0) == DB_CLAMP
    # a quotient that underflows to 0 used to raise from math.log10
    assert imaging._db(5e-324, 4.0) == DB_CLAMP
    for gap0 in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="gap0"):
            metrics(x, np.zeros((2, 4, 4)), dp, target, gap0)
    for bad in (np.nan, np.inf, -np.inf):
        x[5] = bad
        with pytest.raises(ValueError, match="finite"):
            Target.of(dp, x)


def test_synthetic_image_range():
    img = synthetic_image(32, 32)
    assert img.values.min() == 0.0
    assert img.values.max() == 255.0
    assert np.array_equal(img.values, synthetic_image(32, 32).values)


def test_synthetic_image_of_one_pixel():
    # a constant pattern has no range to stretch: it used to divide 0 by 0,
    # warn, and then fail ImageGrid's finiteness check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = synthetic_image(1, 1)
    assert img.values.tolist() == [[0.0]]
    assert synthetic_image(1, 2).values.tolist() == [[0.0, 255.0]]
