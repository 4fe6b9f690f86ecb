"""The in-place solvers against an out-of-place reference of their iterations.

The reference keeps the gradient field interleaved, (n1, n2, 2), and
allocates every intermediate, as the solvers did before they moved to planar
buffers updated in place.  Elementwise arithmetic is unchanged by that move,
so TV trajectories and the baselines' H1 trajectories must agree bit for bit.
The solvers hand out planar (2, n1, n2) fields, so each reference field is
compared in that layout (planar).
pedi's H1 tail is one component-major block, whose squared norm sums in
another order, so there only roundoff may move.
"""

import math

import numpy as np
import pytest

from barrierpd.baselines import DUAL_FB_L, BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image, unlift
from barrierpd.pedi import StepConfig, initial_state, pedi_run, step_rule_general, step_rule_soc

ITERS = 50


def ref_grad(v):
    g = np.zeros(v.shape + (2,))
    g[:-1, :, 0] = v[1:, :] - v[:-1, :]
    g[:, :-1, 1] = v[:, 1:] - v[:, :-1]
    return g


def ref_grad_adjoint(g):
    out = np.zeros(g.shape[:2])
    out[1:, :] += g[:-1, :, 0]
    out[:-1, :] -= g[:-1, :, 0]
    out[:, 1:] += g[:, :-1, 1]
    out[:, :-1] -= g[:, :-1, 1]
    return out


def planar(field):
    """The planar (2, n1, n2) array of an interleaved (n1, n2, 2) reference field."""
    return np.ascontiguousarray(np.moveaxis(field, -1, 0))


def ref_project(dp, p):
    if dp.variant == "tv":
        return p * np.minimum(1.0, dp.alpha / np.maximum(np.sqrt(np.sum(p**2, axis=2)), 1e-300))[..., None]
    # the global norm sums the squares in planar, component-major order
    nrm = math.sqrt(float(np.square(planar(p)).sum()))
    return p.copy() if nrm <= dp.alpha else p * (dp.alpha / nrm)


def ref_pedi(dp, cfg, rule):
    shape, zf, b0 = dp.shape, dp.z.flat(), cfg.b0
    x, state = np.zeros(zf.size), initial_state()
    for _ in range(ITERS):
        kx = ref_grad(x.reshape(shape)).reshape((-1, 2) if dp.variant == "tv" else (1, -1))
        tn2 = np.einsum("ij,ij->i", kx, kx)
        if rule == "soc":
            state = step_rule_soc(state, math.sqrt(2.0 * float(np.min(tn2))), cfg)
        else:
            state = step_rule_general(state, cfg)
        d0 = (state.mu + np.sqrt(state.mu * state.mu + b0 * b0 * tn2)) / b0
        y = (b0 / (2.0 * d0))[:, None] * kx
        v = x - state.tau * (2.0 * ref_grad_adjoint(y.reshape(shape + (2,))).reshape(-1))
        x = (v + state.tau * zf) / (1.0 + state.tau)
    return x, y.reshape(shape + (2,)), d0


def ref_pdhgm(dp, cfg):
    zf = dp.z.flat()
    x, x_bar, p = np.zeros_like(zf), np.zeros_like(zf), np.zeros(dp.shape + (2,))
    tau, sigma = cfg.tau0, cfg.sigma0
    for _ in range(cfg.max_iters):
        p = ref_project(dp, p + sigma * ref_grad(x_bar.reshape(dp.shape)))
        x_old = x
        x = (x - tau * ref_grad_adjoint(p).reshape(-1) + tau * zf) / (1.0 + tau)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * cfg.gamma * tau)
        x_bar = x + theta * (x - x_old)
        tau, sigma = theta * tau, sigma / theta
    return x, p


def ref_dual_fb(dp):
    zf, p = dp.z.flat(), np.zeros(dp.shape + (2,))
    for _ in range(ITERS):
        x = zf - ref_grad_adjoint(p).reshape(-1)
        p = ref_project(dp, p + (1.0 / DUAL_FB_L**2) * ref_grad(x.reshape(dp.shape)))
    return zf - ref_grad_adjoint(p).reshape(-1), p


def problem(variant):
    alpha = 0.3 if variant == "tv" else 5.0
    return DenoiseProblem(add_gaussian_noise(synthetic_image(16, 16), 6.15, 1), alpha, variant)


@pytest.mark.parametrize("variant", ["tv", "h1"])
@pytest.mark.parametrize("rule", ["general", "soc"])
def test_pedi_matches_reference(variant, rule):
    dp = problem(variant)
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    res = pedi_run(sp, cfg, ITERS, step_rule=rule)
    x, y, d0 = ref_pedi(dp, cfg, rule)
    got = (res.x, unlift(res.y, dp.shape), res.d.heads)
    for a, b in zip(got, (x, planar(y), d0)):
        if variant == "tv":
            assert np.array_equal(a, b)
        else:
            assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b)


@pytest.mark.parametrize("variant", ["tv", "h1"])
def test_baselines_match_reference(variant):
    dp = problem(variant)
    cfg = BaselineConfig.default_for(dp, ITERS)
    for res, (x, p) in ((pdhgm_run(dp, cfg), ref_pdhgm(dp, cfg)), (dual_fb_run(dp, ITERS), ref_dual_fb(dp))):
        assert np.array_equal(res.x, x)
        assert np.array_equal(res.p, planar(p))
