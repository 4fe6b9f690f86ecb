"""The one-division formulas against the ones they replaced, within a stated bound.

pedi's dual solve used to form each block's head d0 = e / b0, with
e = sqrt(t b0^2 + mu^2) + mu, and then the tail factor (b0/2) / d0: two
divisions per pixel.  It now forms the factor (b0^2/2) / e, one division,
and no d0.  pedi's and pdhgm's proxes used to divide
each pixel by 1 + tau and now multiply it by 1 / (1 + tau).  The two kernel
paths agree bit for bit with each other (test_kernels), but not with the old
formulas, which this file keeps as its reference, in numpy: the former
_dual_update, prox and pdhgm step, patched into the solvers' numpy path.
The bound:

* every solver's final x within 1e-13 max|x| of the reference's, and its
  duality gap within 1e-12 of the reference's gap, on the golden instances
  and on 64 x 64 TV at alpha 0.01 over 300 iterations;
* one dual solve per special value in x: the same zero, infinite (with
  sign) and NaN entries of y's tails as the reference, and the finite ones
  within 4 ulp.
"""

import dataclasses

import numpy as np
import pytest

from barrierpd import baselines, imaging, kernels, pedi
from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.pedi import StepConfig, _sumsq, pedi_run

from test_kernels import NUMPY, SPECIALS, identical

# (variant, alpha, n, iterations): the golden instances, then the benchmark's alpha
INSTANCES = [("tv", 0.3, 16, 50), ("h1", 5.0, 16, 50), ("tv", 0.01, 64, 300)]
ULPS = 4


def old_dual_update(kx_tails, tn2, b0, mu, d0, y_tails):
    """The dual solve with two divisions per block: d0 = e / b0, then (b0/2) / d0."""
    np.multiply(tn2, b0 * b0, out=d0)
    d0 += mu * mu
    np.sqrt(d0, out=d0)
    d0 += mu
    d0 /= b0
    scale = tn2
    if d0.min() > 0.0:
        np.divide(b0 / 2.0, d0, out=scale)
    else:
        scale.fill(0.0)
        np.divide(b0 / 2.0, d0, out=scale, where=d0 > 0.0)
    np.multiply(kx_tails, scale[:, None], out=y_tails)


def old_saddle_problem(dp):
    """dp's saddle problem whose primal step, the one K* pedi_run takes, divides by 1 + tau."""
    sp = dp.saddle_problem()
    zf, shape = dp.z.flat(), dp.shape

    def apply_K_adjoint(y_tails, out, step):
        tau = step.tau
        v = imaging._grad_adjoint(y_tails.T.reshape((2,) + shape), np.empty_like(out), 2.0, out, tau)
        np.multiply(zf, tau, out=out)
        out += v
        out /= 1.0 + tau
        step.norm2 = _sumsq(out)
        return out

    return dataclasses.replace(sp, apply_K_adjoint=apply_K_adjoint)


def old_grad_adjoint(planes, out=None, scale=1.0, minuend=None, step=1.0, z=None, x_bar=None, theta=0.0):
    """_grad_adjoint whose pdhgm step (z given) divides by 1 + step."""
    out = imaging._grad_adjoint(planes, out, scale, minuend, step)
    if z is not None:
        xb = x_bar.reshape(out.shape)
        np.multiply(z.reshape(out.shape), step, out=xb)
        out += xb
        out /= 1.0 + step
        np.subtract(out, minuend.reshape(out.shape), out=xb)
        xb *= theta
        xb += out
    return out


def solve_all(dp, sp, iters):
    """{solver: (x, p)} after iters iterations of each of the four solvers, pedi's on sp."""
    out = {}
    for rule in ("general", "soc"):
        res = pedi_run(sp, StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha), iters, step_rule=rule)
        out[f"pedi-{rule}"] = res.x, dp.unlifted_dual(res.y)
    res = pdhgm_run(dp, BaselineConfig.default_for(dp, iters))
    out["pdhgm"] = res.x, res.p
    res = dual_fb_run(dp, iters)
    out["dual-fb"] = res.x, res.p
    return out


@pytest.mark.parametrize("variant, alpha, n, iters", INSTANCES, ids=lambda v: str(v))
def test_solvers_within_the_roundoff_bound(monkeypatch, variant, alpha, n, iters):
    dp = DenoiseProblem(add_gaussian_noise(synthetic_image(n, n), 6.15, 1), alpha, variant)
    new = solve_all(dp, dp.saddle_problem(), iters)
    monkeypatch.setattr(kernels, "PATH", NUMPY)
    monkeypatch.setattr(pedi, "_dual_update", old_dual_update)
    monkeypatch.setattr(baselines, "_grad_adjoint", old_grad_adjoint)
    old = solve_all(dp, old_saddle_problem(dp), iters)
    for name, (x, p) in new.items():
        x_old, p_old = old[name]
        assert np.max(np.abs(x - x_old)) <= 1e-13 * np.max(np.abs(x_old)), name
        gap, gap_old = dp.duality_gap(x, p), dp.duality_gap(x_old, p_old)
        assert abs(gap - gap_old) <= 1e-12 * abs(gap_old), (name, gap, gap_old)


def within_ulps(a, b, n):
    """a and b zero, infinite (with sign) and NaN at the same entries, finite ones within n ulp."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    special = ~np.isfinite(b) | (b == 0.0)
    if not (np.array_equal(~np.isfinite(a) | (a == 0.0), special) and identical(a[special], b[special])):
        return False
    fa, fb = a[~special], b[~special]
    gap = np.abs(np.abs(fa).view(np.int64) - np.abs(fb).view(np.int64))
    return bool(np.all(np.sign(fa) == np.sign(fb)) and np.all(gap <= n))


@pytest.mark.parametrize("variant", ["tv", "h1"])
@pytest.mark.parametrize("mu", [0.3, 1e-200, 0.0])
@pytest.mark.parametrize("value", SPECIALS, ids=repr)
def test_dual_solve_within_ulps_of_the_two_division_form(variant, mu, value):
    # K x's tails take the special value, its differences with normal
    # entries, and with zeros, exactly as it is
    rng = np.random.default_rng(7)
    dp = DenoiseProblem(imaging.ImageGrid(rng.standard_normal((6, 7))), 0.7, variant)
    sp = dp.saddle_problem()
    for x in (rng.standard_normal(42), np.zeros(42)):
        x[::5] = value
        step = pedi.LiftedStep(0.7, mu=mu)
        with np.errstate(all="ignore"):
            sp.apply_K(x, step=step)
            kx = sp.apply_K(x)
            y = np.empty_like(step.y)
            old_dual_update(kx, pedi._tail_norms(kx, np.empty(len(kx))), 0.7, mu, np.empty(len(kx)), y)
        assert within_ulps(step.y, y, ULPS), (step.y, y)
