import dataclasses
import math
import warnings

import numpy as np
import pytest

from barrierpd.barrier import RankOneConstraint, central_path_solve
from barrierpd.baselines import dual_fb_run
from barrierpd.imaging import DenoiseProblem, ImageGrid, add_gaussian_noise, synthetic_image, unlift
from barrierpd.jordan import SpinElement, identity, is_interior
from barrierpd import pedi
from barrierpd.pedi import (
    ConfigError,
    _dual_update,
    StepConfig,
    StepState,
    initial_state,
    pedi_run,
    step_rule_general,
    step_rule_soc,
)


def make_problem(n=8, variant="h1", alpha=2.0, seed=3):
    rng = np.random.default_rng(seed)
    z = ImageGrid(10.0 * rng.standard_normal((n, n)))
    return DenoiseProblem(z, alpha, variant)


# ---------------------------------------------------------------------------
# step rules


def test_config_defaults():
    cfg = StepConfig(opnorm_K=2.0, b0=3.0)
    assert cfg.zeta == pytest.approx(0.9 / 9.0)
    assert cfg.theta == pytest.approx(10.0)
    assert cfg.gamma == 0.9


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        StepConfig(opnorm_K=0.0, b0=1.0)
    with pytest.raises(ConfigError):
        StepConfig(opnorm_K=1.0, b0=1.0, gamma=-0.1)
    with pytest.raises(ConfigError):
        StepConfig(opnorm_K=1.0, b0=1.0, zeta=-1.0)


@pytest.mark.parametrize("bad", [
    {"theta": math.nan}, {"theta": math.inf}, {"gamma": math.nan}, {"gamma": math.inf}, {"zeta": math.nan},
    {"zeta": math.inf}, {"opnorm_K": math.nan}, {"opnorm_K": math.inf}, {"opnorm_K": 1e200}, {"b0": math.nan},
    {"b0": math.inf}, {"b0": 1e-170}, {"b0": 1e200}, {"b0": -1.0},
])
def test_config_rejects_non_finite_values(bad):
    # a NaN passed every positivity check, and a square that overflows or
    # underflows left a step rule to fail mid-run
    with pytest.raises(ConfigError):
        StepConfig(**{"opnorm_K": 1.0, "b0": 1.0, **bad})


def test_general_rule_invariants():
    cfg = StepConfig(opnorm_K=3.0, b0=1.0)
    s = initial_state()
    for _ in range(50):
        prev = s
        s = step_rule_general(s, cfg)
        assert s.mu == pytest.approx(cfg.theta * prev.phi**-0.5)
        assert s.omega_lb == pytest.approx(cfg.zeta * s.mu)
        assert s.tau == pytest.approx(2.0 * s.omega_lb / cfg.opnorm_K**2)
        assert s.phi == pytest.approx(prev.phi * (1.0 + 2.0 * cfg.gamma * s.tau))
        assert s.iter == prev.iter + 1
        assert s.phi > prev.phi
        if prev.mu is not None:
            assert s.mu <= prev.mu


def test_general_rule_zeta_range():
    cfg = StepConfig(opnorm_K=1.0, b0=2.0, zeta=0.3)  # 0.3 >= 1/b0^2 = 0.25
    with pytest.raises(ConfigError):
        step_rule_general(initial_state(), cfg)
    # the same zeta is fine for the soc rule (allowed up to 2/b0^2)
    step_rule_soc(initial_state(), 1.0, cfg)


def test_soc_rule_invariants():
    cfg = StepConfig(opnorm_K=2.0, b0=1.5, zeta=0.5)
    s = initial_state()
    kx = 3.7
    s = step_rule_soc(s, kx, cfg)
    assert s.omega_lb == pytest.approx(s.mu * cfg.zeta + kx / (np.sqrt(2.0) * cfg.b0))
    # a NaN norm passed a check of "< 0" alone and gave phi = tau = NaN,
    # and inf gave phi = tau = inf, with no error
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            step_rule_soc(s, bad, cfg)


def test_rules_take_the_barrier_weight_the_loop_computed():
    # pedi_run computes mu_{i+1} once and passes it to the rule; the state
    # is the one the rule reaches by computing mu itself, bit for bit
    cfg = StepConfig(opnorm_K=2.0, b0=1.5, zeta=0.3)
    for rule in (lambda s, **kw: step_rule_general(s, cfg, **kw), lambda s, **kw: step_rule_soc(s, 3.7, cfg, **kw)):
        s = initial_state()
        for _ in range(20):
            given = rule(s, mu=pedi._barrier_weight(s, cfg))
            s = rule(s)
            assert given == s and isinstance(s, StepState)
    # the rules check the config whether or not mu is given
    bad = StepConfig(opnorm_K=1.0, b0=2.0, zeta=0.6)
    with pytest.raises(ConfigError):
        step_rule_general(initial_state(), bad, mu=1.0)
    with pytest.raises(ConfigError):
        step_rule_soc(initial_state(), 1.0, bad, mu=1.0)


def test_phi_growth_orders():
    # quadratic growth under the general rule, geometric under the soc rule
    # with a lower-bounded ||Kx||
    cfg = StepConfig(opnorm_K=2.0, b0=1.0)
    s = initial_state()
    for _ in range(2000):
        s = step_rule_general(s, cfg)
    ratio_a = s.phi / s.iter**2
    for _ in range(2000):
        s = step_rule_general(s, cfg)
    assert s.phi / s.iter**2 == pytest.approx(ratio_a, rel=0.15)

    s = initial_state()
    for _ in range(200):
        s = step_rule_soc(s, 1.0, cfg)
    # once mu is small the per-step factor is >= 1 + sqrt(2) gamma L0 /
    # (b0 ||K||^2); check geometric growth over the second hundred steps
    phi100 = None
    s = initial_state()
    for i in range(200):
        s = step_rule_soc(s, 1.0, cfg)
        if i == 99:
            phi100 = s.phi
    growth = (s.phi / phi100) ** (1.0 / 100.0)
    assert growth > 1.1


# ---------------------------------------------------------------------------
# solver


def test_pedi_dual_iterates_exactly_feasible():
    dp = make_problem()
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    seen = []

    def cb(i, x, y, state, info):
        seen.append(i)
        # heads pinned by the constraint, iterates interior
        assert np.all(y.heads == dp.alpha / 2.0)
        assert np.all(np.linalg.norm(y.tails, axis=1) < dp.alpha / 2.0)

    res = pedi_run(sp, cfg, 30, callback=cb)
    assert seen == list(range(30))
    assert is_interior(res.y)


def test_pedi_deterministic():
    dp = make_problem()
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    r1 = pedi_run(sp, cfg, 100, step_rule="soc")
    r2 = pedi_run(sp, cfg, 100, step_rule="soc")
    assert np.array_equal(r1.x, r2.x)
    assert np.array_equal(r1.y.tails, r2.y.tails)


def test_pedi_rejects_bad_input():
    dp = make_problem()
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    with pytest.raises(ConfigError):
        pedi_run(sp, cfg, 10, step_rule="fancy")
    with pytest.raises(ValueError):
        pedi_run(sp, cfg, 10, x0=np.zeros(3))


@pytest.mark.parametrize(
    "change",
    [{"b0": 50.0}, {"gamma": 1.5}, {"opnorm_K": 1.0}],
    ids=["b0", "gamma", "opnorm_K"],
)
def test_pedi_rejects_config_that_does_not_fit_problem(change):
    # a config made for another problem used to run silently: b0 = 50 on an
    # alpha = 0.5 problem gave dual heads 25 instead of 0.25
    dp = make_problem(variant="tv", alpha=0.5)
    sp = dp.saddle_problem()
    assert sp.gamma == 1.0 and sp.opnorm_K > 1.0
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    with pytest.raises(ConfigError):
        pedi_run(sp, dataclasses.replace(cfg, **change), 1)
    # a larger norm bound and a smaller gamma are admissible
    pedi_run(sp, dataclasses.replace(cfg, opnorm_K=2.0 * sp.opnorm_K, gamma=0.5), 1)


@pytest.mark.parametrize("variant,alpha", [("tv", 0.5), ("h1", 2.0)])
@pytest.mark.parametrize("rule", ["general", "soc"])
def test_dual_update_matches_central_path_oracle(variant, alpha, rule):
    # every block of the vectorised a = e dual solve against the general
    # closed form of barrier.central_path_solve at the same mu and c = -K x
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(4, 4), 6.15, 1), alpha, variant)
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=alpha)
    xs = [np.zeros(sp.primal_dim)]

    def oracle(x_prev, mu):
        kx = sp.apply_K(x_prev)
        con = RankOneConstraint(identity(kx.shape[1]), alpha)
        return [central_path_solve(con, SpinElement(0.0, -t), mu) for t in kx]

    def cb(i, x, y, state, info):
        for b, pt in enumerate(oracle(xs[-1], state.mu)):
            yb = np.concatenate(([y.heads[b]], y.tails[b]))
            assert np.linalg.norm(yb - pt.y.as_array()) <= 1e-12 * np.linalg.norm(pt.y.as_array())
        xs.append(x.copy())

    pedi_run(sp, cfg, 12, step_rule=rule, callback=cb)
    assert len(xs) == 13


def test_dual_update_zero_heads_give_zero_tails():
    # with mu = 0 and b0^2 underflowing, every e is 0; the dual tails
    # must then be 0, not NaN or whatever y held
    kx = np.ones((3, 2))
    tn2 = np.einsum("ij,ij->i", kx, kx)
    y = np.full((3, 2), np.nan)
    _dual_update(kx, tn2, 1e-170, 0.0, y)
    assert np.all(y == 0.0)


def test_soc_rule_is_the_general_rule_on_tv():
    # the Neumann corner pixel's block of K is zero, so on TV
    # min_b ||(Kx)_b|| = 0 at every iterate and the soc rule's bound is the
    # general rule's: the two runs agree bit for bit.  A soc rule that left
    # out zero blocks of K would change this on purpose.
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(32, 32), 6.15, 1), 0.3, "tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    norms = []
    soc = pedi_run(sp, cfg, 100, step_rule="soc", callback=lambda i, x, y, s, info: norms.append(info["kx_norm"]))
    general = pedi_run(sp, cfg, 100, step_rule="general")
    assert norms == [0.0] * 100
    assert soc.states == general.states
    for a, b in ((soc.x, general.x), (soc.y.tails, general.y.tails)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant,alpha", [("h1", 2.0), ("tv", 0.5)])
@pytest.mark.parametrize("rule", ["general", "soc"])
def test_pedi_converges_to_reference(variant, alpha, rule):
    dp = make_problem(variant=variant, alpha=alpha)
    ref = dual_fb_run(dp, 100000).x
    sp = dp.saddle_problem()
    # larger theta front-loads the barrier weight and sharpens the tail
    zeta = 0.9 / alpha**2
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha, theta=1000.0 / zeta)
    res = pedi_run(sp, cfg, 30000, step_rule=rule)
    rel = np.linalg.norm(res.x - ref) / np.linalg.norm(ref)
    # pure-noise TV at this regularization strength is a worst case with a
    # genuine O(1/N) tail; the strict 1e-6 agreement on the benchmark
    # images is exercised by the acceptance suite
    assert rel < (2e-4 if variant == "tv" else 1e-5)
    if variant == "h1" and rule == "soc":
        assert rel < 1e-10  # single cone with nonzero optimal gradient


def test_descent_certificate_bounded():
    # the series (1/2) phi_i ||x^i - x_hat||^2, formed from the callback's
    # state.phi = phi_{i+1} and x^{i+1}, after phi_0 = 1 and x^0 = 0
    dp = make_problem(variant="h1")
    ref = dual_fb_run(dp, 30000).x
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    series = [0.5 * float(np.sum(ref**2))]

    def cb(i, x, y, s, info):
        series.append(0.5 * s.phi * float(np.sum((x - ref) ** 2)))

    pedi_run(sp, cfg, 500, callback=cb)
    assert len(series) == 501
    # bounded by a modest multiple of the initial value
    assert np.max(series) <= 20.0 * series[0]


def test_pedi_x0_and_watchdog():
    # a run from x0 gives a finite iterate and leaves x0 unwritten
    dp = make_problem(variant="tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    x0 = dp.z.flat().copy()
    res = pedi_run(sp, cfg, 50, x0=x0)
    assert np.all(np.isfinite(res.x))
    assert np.array_equal(x0, dp.z.flat())


@pytest.mark.parametrize("rule", ["general", "soc"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_x0_is_refused_before_the_first_iteration(rule, value):
    # "general" failed after a whole iteration with a FloatingPointError,
    # "soc" with step_rule_soc's ValueError: both now refuse x0 up front
    dp = make_problem(variant="tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    x0 = dp.z.flat().copy()
    x0[5] = value
    calls = []

    def apply_K(x, step=None):
        calls.append(x)
        return sp.apply_K(x, step=step)

    with pytest.raises(ValueError, match="x0 must be finite"):
        pedi_run(dataclasses.replace(sp, apply_K=apply_K), cfg, 3, step_rule=rule, x0=x0)
    assert calls == []


def _with_x_entry(sp, value):
    """sp whose primal step starts from an x with value in one entry, which the step
    carries into the new x: NaN and +-inf stay, and 1e200 stays finite with
    ||x||^2 overflowing."""

    def apply_K_adjoint(y, out=None, step=None):
        out[3] = value
        return sp.apply_K_adjoint(y, out=out, step=step)

    return dataclasses.replace(sp, apply_K_adjoint=apply_K_adjoint)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_iterate_raises(value):
    dp = make_problem(variant="tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    with pytest.raises(FloatingPointError, match="at iteration 0$"):
        pedi_run(_with_x_entry(sp, value), cfg, 3)


def test_finite_iterate_with_overflowing_norm_trips_watchdog():
    # ||x|| overflows to inf, but every entry of x is finite: the run fails
    # loudly, as for a non-finite x, and nothing warns
    dp = make_problem(variant="tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="at iteration 0$"):
            pedi_run(_with_x_entry(sp, 1e200), cfg, 1)


def test_callback_views_are_read_only():
    # x and y are borrowed views of the solver's buffers
    dp = make_problem(variant="tv")
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    seen = []

    def cb(i, x, y, state, info):
        with pytest.raises(ValueError):
            y.tails[0, 0] = 1.0
        with pytest.raises(ValueError):
            y.heads[0] = 1.0
        with pytest.raises(ValueError):
            x[0] = 1.0
        seen.append(i)

    pedi_run(sp, cfg, 3, callback=cb)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_result_keeps_the_loops_planar_layout(variant):
    # the result's y is a copy laid out as the loop's tails, so its
    # unlifted field is a C-contiguous view, which the kernels take
    dp = make_problem(variant=variant)
    sp = dp.saddle_problem()
    res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), 3)
    field = unlift(res.y, dp.shape)
    assert field.flags.c_contiguous and np.shares_memory(field, res.y.tails)


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_results_survive_a_later_run(variant):
    dp = make_problem(variant=variant)
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    first = pedi_run(sp, cfg, 5, step_rule="soc")
    kept = [a.copy() for a in (first.x, first.y.tails)]
    pedi_run(sp, cfg, 9, step_rule="soc", x0=dp.z.flat())
    for a, b in zip((first.x, first.y.tails), kept):
        assert np.array_equal(a, b)
