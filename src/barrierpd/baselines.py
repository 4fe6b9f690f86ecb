"""Comparison solvers on the unlifted denoising problem.

Both methods iterate directly on the gradient-field dual variable p with the
ball constraint ||p|| <= alpha (per pixel for TV, global for H1) -- no cone
lifting.  They converge to the same primal solution as the interior method
and serve as references in the benchmark harness.  Like the interior method
they keep the dual field in a planar (2, n1, n2) buffer and the primal
iterates in vectors allocated once, updated in place through the same
gradient kernels (_grad, _grad_adjoint) and DenoiseProblem.project_dual.
Those and pdhgm's primal update run compiled (barrierpd.kernels) whenever
pedi's stages do, so timings compare the algorithms, not their
implementations.  As pedi's x - tau K* y rides in K*'s pass, the ascent
g = (D v) s + p rides in D's (_grad's scale= and addend=), and dual_fb's
x = z - D* p in D*'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .imaging import DenoiseProblem, ImageGrid, _field, _grad, _grad_adjoint
from .pedi import ConfigError, _readonly

__all__ = [
    "BaselineConfig",
    "BaselineResult",
    "ConfigError",
    "pdhgm_run",
    "dual_fb_run",
    "DUAL_FB_L",
]

# Analytic gradient-operator bound used for the forward-backward step.
DUAL_FB_L = math.sqrt(8.0)


@dataclass(frozen=True)
class BaselineConfig:
    """Initial steps and acceleration parameter for the accelerated
    primal-dual hybrid gradient method.

    The classical step condition tau0*sigma0*||K||^2 <= 1 is enforced at
    construction against the supplied operator norm, which must be an upper
    bound on ||D||: use the problem's closed-form DenoiseProblem.opnorm_D.
    """

    tau0: float
    sigma0: float
    gamma: float
    max_iters: int
    opnorm: float

    def __post_init__(self):
        if self.tau0 <= 0 or self.sigma0 <= 0:
            raise ConfigError("tau0 and sigma0 must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.tau0 * self.sigma0 * self.opnorm**2 > 1.0 + 1e-12:
            raise ConfigError(
                f"step condition violated: tau0*sigma0*||K||^2 = "
                f"{self.tau0 * self.sigma0 * self.opnorm**2:g} > 1"
            )

    @classmethod
    def default_for(cls, problem: DenoiseProblem, max_iters: int, gamma: float = 0.9) -> "BaselineConfig":
        """tau0 ~ 0.52/L, sigma0 = 1.9/L with the analytic L = sqrt(8)."""
        L = DUAL_FB_L
        return cls(tau0=0.52 / L, sigma0=1.9 / L, gamma=gamma, max_iters=max_iters, opnorm=problem.opnorm_D)


def _pdhgm_primal(x, w, x_bar, zf, tau: float, theta: float):
    """pdhgm's primal prox step into w, which holds D* p on entry, and its extrapolation into x_bar.

    w = (x - tau D* p + tau z) / (1 + tau), then x_bar = w + theta (w - x).
    """
    if kernels.PATH == "c":
        try:
            kernels.ext.pdhgm_primal(x, w, x_bar, zf, tau, theta)
            return
        except ValueError:
            pass
    w *= tau
    np.subtract(x, w, out=w)
    np.multiply(zf, tau, out=x_bar)
    w += x_bar
    w /= 1.0 + tau
    np.subtract(w, x, out=x_bar)
    x_bar *= theta
    x_bar += w


@dataclass
class BaselineResult:
    x: np.ndarray
    p: np.ndarray


def pdhgm_run(
    problem: DenoiseProblem,
    config: BaselineConfig,
    callback: Optional[Callable] = None,
) -> BaselineResult:
    """Accelerated primal-dual hybrid gradient (modified) iteration.

    Dual ascent with ball projection, primal prox of G, then extrapolation;
    the gamma-acceleration schedule is theta_i = 1/sqrt(1 + 2 gamma tau_i),
    tau_{i+1} = theta_i tau_i, sigma_{i+1} = sigma_i / theta_i, which keeps
    the product sigma_i tau_i invariant.

    The callback, if given, is invoked as callback(i, x, p, info) after each
    iteration, with p the (n1, n2, 2) dual field; x and p are borrowed
    read-only views of the solver's buffers, valid until the callback
    returns: copy them to keep them.
    """
    n1, n2 = problem.shape
    zf = problem.z.flat()
    x = np.zeros_like(zf)
    x_bar = np.zeros_like(zf)
    w = np.empty_like(zf)
    p = np.zeros((2, n1, n2))
    g = np.empty_like(p)
    p_field, g_field = _field(p), _field(g)
    p_view = _readonly(p_field)
    tau, sigma = config.tau0, config.sigma0

    for i in range(config.max_iters):
        # p = P(p + sigma D x_bar)
        _grad(x_bar.reshape(n1, n2), out=g, scale=sigma, addend=p)
        problem.project_dual(g_field, out=p_field)
        _grad_adjoint(p, out=w.reshape(n1, n2))
        theta = 1.0 / math.sqrt(1.0 + 2.0 * config.gamma * tau)
        _pdhgm_primal(x, w, x_bar, zf, tau, theta)
        x, w = w, x
        tau, sigma = theta * tau, sigma / theta
        if callback is not None:
            callback(i, _readonly(x), p_view, {"tau": tau, "sigma": sigma, "theta": theta})

    return BaselineResult(x=x, p=p_field)


def dual_fb_run(
    problem: DenoiseProblem,
    max_iters: int,
    callback: Optional[Callable] = None,
) -> BaselineResult:
    """Forward-backward splitting on the dual problem.

    The dual objective (1/2)||z - D* p||^2 - (1/2)||z||^2 is 1/tau-smooth
    for tau = 1/L^2 with the analytic L = sqrt(8); each step is a gradient
    step followed by ball projection.  The primal is recovered through the
    optimality relation x = z - D* p, once per iteration and in D*'s own
    pass: it is both the iterate reported for p and the point of the next
    gradient step.

    The callback, if given, is invoked as callback(i, x, p, info) after each
    iteration, with p the (n1, n2, 2) dual field; x and p are borrowed
    read-only views of the solver's buffers, valid until the callback
    returns: copy them to keep them.  max_iters must be at least 1, or
    ConfigError is raised, as BaselineConfig raises it for pdhgm_run.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    n1, n2 = problem.shape
    zf = problem.z.flat()
    p = np.zeros((2, n1, n2))
    g = np.empty_like(p)
    p_field, g_field = _field(p), _field(g)
    # x = z - D* 0
    x = zf.copy()
    x_view, p_view = _readonly(x), _readonly(p_field)
    tau = 1.0 / DUAL_FB_L**2

    for i in range(max_iters):
        _grad(x.reshape(n1, n2), out=g, scale=tau, addend=p)
        problem.project_dual(g_field, out=p_field)
        # x = z - D* p
        _grad_adjoint(p, out=x.reshape(n1, n2), minuend=zf.reshape(n1, n2))
        if callback is not None:
            callback(i, x_view, p_view, {"tau": tau})

    return BaselineResult(x=x, p=p_field)
