import numpy as np
import pytest

from barrierpd.baselines import (
    DUAL_FB_L,
    BaselineConfig,
    ConfigError,
    dual_fb_run,
    pdhgm_run,
)
from barrierpd import pedi
from barrierpd.imaging import DenoiseProblem, ImageGrid
from test_imaging import power_iteration_opnorm_D


def make_problem(n=8, variant="tv", alpha=0.5, seed=11):
    rng = np.random.default_rng(seed)
    return DenoiseProblem(ImageGrid(10.0 * rng.standard_normal((n, n))), alpha, variant)


def test_step_condition_enforced():
    with pytest.raises(ConfigError):
        BaselineConfig(tau0=1.0, sigma0=1.0, gamma=0.9, max_iters=10, opnorm=2.0)
    # tau0*sigma0*||K||^2 = 0.988 with the defaults
    cfg = BaselineConfig.default_for(make_problem(), max_iters=10)
    assert cfg.tau0 * cfg.sigma0 * cfg.opnorm**2 <= 1.0


def test_step_condition_uses_the_exact_bound():
    # tau0*sigma0 = 1/est^2 with the 30-step power-iteration estimate est
    # passes a check against est, but exceeds 1 against the true ||D||
    dp = make_problem(n=64)
    est = power_iteration_opnorm_D(64, 64)
    assert est < dp.opnorm_D
    BaselineConfig(tau0=1.0 / est, sigma0=1.0 / est, gamma=0.9, max_iters=10, opnorm=est)
    with pytest.raises(ConfigError):
        BaselineConfig(tau0=1.0 / est, sigma0=1.0 / est, gamma=0.9, max_iters=10, opnorm=dp.opnorm_D)


def test_pdhgm_refuses_an_opnorm_below_the_problems():
    # the same estimate from below passes BaselineConfig's step test against
    # itself; the run must refuse it before its first iteration, as
    # pedi.check_config refuses such an opnorm_K
    dp = make_problem(n=64)
    est = power_iteration_opnorm_D(64, 64)
    cfg = BaselineConfig(tau0=1.0 / est, sigma0=1.0 / est, gamma=0.9, max_iters=10, opnorm=est)
    calls = []
    with pytest.raises(ConfigError, match="below"):
        pdhgm_run(dp, cfg, callback=lambda *a: calls.append(a))
    assert calls == []
    # an upper bound above the problem's passes
    cfg = BaselineConfig(tau0=0.1, sigma0=0.1, gamma=0.9, max_iters=2, opnorm=2.0 * dp.opnorm_D)
    assert pdhgm_run(dp, cfg).n_iters == 2


@pytest.mark.parametrize("bad", [
    {"tau0": np.nan}, {"tau0": np.inf}, {"sigma0": np.nan}, {"sigma0": np.inf}, {"gamma": np.nan},
    {"gamma": np.inf}, {"opnorm": np.nan}, {"opnorm": np.inf}, {"opnorm": 1e200}, {"opnorm": -1.0},
    {"gamma": 1.5},
])
def test_config_rejects_non_finite_values(bad):
    # a NaN passed every check, the step condition's too; and a finite
    # gamma above 1, G's strong-convexity modulus, voids the O(1/N^2) rate
    with pytest.raises(ConfigError):
        BaselineConfig(**{"tau0": 0.1, "sigma0": 0.1, "gamma": 0.9, "max_iters": 10, "opnorm": 2.0, **bad})


def test_config_error_is_shared_with_pedi():
    # one exception class, so `except pedi.ConfigError` also catches a
    # baseline step-condition failure
    assert ConfigError is pedi.ConfigError
    with pytest.raises(pedi.ConfigError):
        BaselineConfig(tau0=1.0, sigma0=1.0, gamma=0.9, max_iters=10, opnorm=2.0)


@pytest.mark.parametrize("solver", ["pedi-general", "pedi-soc", "pdhgm", "dual-fb"])
@pytest.mark.parametrize("max_iters", [0, -3])
def test_every_solver_rejects_max_iters_below_one(solver, max_iters):
    # one rule for all four: the shared ConfigError, before any iteration
    dp = make_problem()
    with pytest.raises(ConfigError, match="max_iters must be >= 1"):
        if solver == "pdhgm":
            pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters))
        elif solver == "dual-fb":
            dual_fb_run(dp, max_iters)
        else:
            sp = dp.saddle_problem()
            cfg = pedi.StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
            pedi.pedi_run(sp, cfg, max_iters, step_rule=solver.removeprefix("pedi-"))


def run_solver(solver, dp, max_iters, callback=None):
    """(result, dual iterate) of one of the four solvers on dp: the baselines' p, pedi's y tails."""
    if solver == "pdhgm":
        res = pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters), callback=callback)
        return res, res.p
    if solver == "dual-fb":
        res = dual_fb_run(dp, max_iters, callback=callback)
        return res, res.p
    sp = dp.saddle_problem()
    cfg = pedi.StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    res = pedi.pedi_run(sp, cfg, max_iters, step_rule=solver.removeprefix("pedi-"), callback=callback)
    return res, res.y.tails


SOLVERS = ["pedi-general", "pedi-soc", "pdhgm", "dual-fb"]


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("variant", ["tv", "h1"])
@pytest.mark.parametrize("k", [0, 6])
def test_a_callback_reason_ends_the_run_after_that_iteration(solver, variant, k):
    # one stop contract for all four: the run ends after iteration k, and
    # its iterates are those of a run of k + 1 iterations, bit for bit
    dp = make_problem(variant=variant)
    seen = []

    def stop_at_k(i, *_):
        seen.append(i)
        return "enough" if i == k else None

    res, dual = run_solver(solver, dp, 50, stop_at_k)
    assert seen == list(range(k + 1))
    assert (res.n_iters, res.stop_reason) == (k + 1, "enough")
    ref, ref_dual = run_solver(solver, dp, k + 1)
    assert (ref.n_iters, ref.stop_reason) == (k + 1, "max_iters")
    assert res.x.tobytes() == ref.x.tobytes() and dual.tobytes() == ref_dual.tobytes()
    if solver.startswith("pedi"):
        assert res.states == ref.states and len(res.states) == k + 1


@pytest.mark.parametrize("solver", SOLVERS)
def test_a_callback_returning_none_runs_to_max_iters(solver):
    seen = []
    res, _ = run_solver(solver, make_problem(), 12, lambda i, *_: seen.append(i))
    assert (res.n_iters, res.stop_reason) == (12, "max_iters")
    assert seen == list(range(12))


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("reason", [True, 0, b"stop"], ids=["true", "zero", "bytes"])
def test_a_callback_returning_another_value_fails_loudly(solver, reason):
    # a reason is a str: any other value but None is a mistake, not a stop
    with pytest.raises(TypeError, match="returns None to go on or a str reason to stop"):
        run_solver(solver, make_problem(), 12, lambda *_: reason)


def test_acceleration_identities():
    dp = make_problem()
    cfg = BaselineConfig.default_for(dp, max_iters=40)
    taus, sigmas, thetas = [cfg.tau0], [cfg.sigma0], []

    def cb(i, x, p, info):
        taus.append(info["tau"])
        sigmas.append(info["sigma"])
        thetas.append(info["theta"])

    pdhgm_run(dp, cfg, callback=cb)
    for i in range(40):
        assert thetas[i] == pytest.approx(1.0 / np.sqrt(1.0 + 2.0 * cfg.gamma * taus[i]))
        assert taus[i + 1] == pytest.approx(thetas[i] * taus[i])
        # the product sigma*tau is invariant under the schedule
        assert sigmas[i + 1] * taus[i + 1] == pytest.approx(sigmas[i] * taus[i])


def test_dual_ball_constraint_holds():
    dp = make_problem(variant="tv", alpha=0.3)

    def cb(i, x, p, info):
        assert p.shape == (2,) + dp.shape
        norms = np.sqrt(np.sum(p**2, axis=0))
        assert np.all(norms <= dp.alpha * (1 + 1e-14))

    pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=50), callback=cb)

    dph = make_problem(variant="h1", alpha=2.0)

    def cbh(i, x, p, info):
        assert np.linalg.norm(p) <= dph.alpha * (1 + 1e-14)

    dual_fb_run(dph, 50, callback=cbh)


def test_vanishing_regularization_recovers_data():
    # negligible ball radius: the dual contribution vanishes and x -> z
    dp = make_problem(variant="h1", alpha=1e-9)
    res = pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=4000, gamma=0.3))
    assert np.linalg.norm(res.x - dp.z.flat()) / np.linalg.norm(dp.z.flat()) < 1e-6


def test_dual_fb_zero_data():
    dp = DenoiseProblem(ImageGrid(np.zeros((4, 4))), 1.0, "tv")
    res = dual_fb_run(dp, 20)
    assert np.all(res.x == 0.0)
    assert np.all(res.p == 0.0)


def test_dual_fb_monotone_descent():
    dp = make_problem(variant="h1", alpha=3.0)
    vals = []

    def cb(i, x, p, info):
        vals.append(dp.dual_value(p))

    dual_fb_run(dp, 200, callback=cb)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-10 * (1.0 + np.abs(vals[:-1])))


def test_pdhgm_matches_independent_reference():
    # cross-algorithm oracle: forward-backward on the dual converges to the
    # same primal solution
    dp = make_problem(variant="tv", alpha=0.5)
    ref = dual_fb_run(dp, 100000).x
    x = pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=60000, gamma=0.3)).x
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-6


def test_cross_solver_objective_agreement():
    dp = make_problem(variant="h1", alpha=2.0)
    x_cp = pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=40000, gamma=0.3)).x
    x_fb = dual_fb_run(dp, 40000).x
    assert dp.objective(x_cp) == pytest.approx(dp.objective(x_fb), rel=1e-8)


def test_analytic_step_bound():
    assert DUAL_FB_L == pytest.approx(np.sqrt(8.0))
    dp = make_problem()
    assert dp.opnorm_D <= DUAL_FB_L
