"""Comparison solvers on the unlifted denoising problem.

Both methods iterate directly on the gradient-field dual variable p with the
ball constraint ||p|| <= alpha (per pixel for TV, global for H1) -- no cone
lifting.  They converge to the same primal solution as the interior method
and serve as references in the benchmark harness.  Like the interior method
they keep the dual field in a planar (2, n1, n2) buffer, the layout their
callbacks and results hand out, and the primal iterates in vectors
allocated once, all updated in place through the same gradient code
(_grad_adjoint and DenoiseProblem.project_dual).  Those run
compiled (barrierpd.kernels) whenever pedi's stages do, so timings compare
the algorithms, not their implementations.  An iteration is two stages.
The dual step p = P(p + s D v) is one project_dual call with ascent=,
which on TV projects each pixel's ascent as it forms it, in place, and on
H1 sums the ascent's squares on the fly before writing its projection
over p: no ascent field is stored.  D*'s pass then makes pdhgm's whole
primal step, the prox of G and the extrapolation (_grad_adjoint's
minuend=, z=, x_bar= and theta=).  dual_fb's primal step, x = z - D* p,
is asked of the same project_dual call (recover=): on TV it rides in the
projection's sweep, tile by tile, so the whole iteration is one kernel
call, and on H1 it is D*'s pass after the projection.  Each run makes the
views its loop passes once, so an iteration costs its kernel calls and
little more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .imaging import DenoiseProblem, _grad_adjoint
# unused here; kept as a module attribute for perfbench's layer trace
from .imaging import _grad  # noqa: F401
from .pedi import ConfigError, _readonly, _stop_reason

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
    gamma may not exceed 1, the strong-convexity modulus of
    G = (1/2)||x - z||^2, which the accelerated schedule's O(1/N^2) rate
    assumes.  Every parameter must be finite, and a NaN fails every check.
    """

    tau0: float
    sigma0: float
    gamma: float
    max_iters: int
    opnorm: float

    def __post_init__(self):
        if not (0 < self.tau0 < math.inf and 0 < self.sigma0 < math.inf):
            raise ConfigError("tau0 and sigma0 must be positive and finite")
        if not 0 <= self.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1], G's strong-convexity modulus")
        if not (self.opnorm >= 0 and self.opnorm * self.opnorm < math.inf):
            raise ConfigError("opnorm must be nonnegative, with a finite square")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not self.tau0 * self.sigma0 * self.opnorm**2 <= 1.0 + 1e-12:
            raise ConfigError(
                f"step condition violated: tau0*sigma0*||K||^2 = "
                f"{self.tau0 * self.sigma0 * self.opnorm**2:g} > 1"
            )

    @classmethod
    def default_for(cls, problem: DenoiseProblem, max_iters: int, gamma: float = 0.9) -> "BaselineConfig":
        """tau0 ~ 0.52/L, sigma0 = 1.9/L with the analytic L = sqrt(8)."""
        L = DUAL_FB_L
        return cls(tau0=0.52 / L, sigma0=1.9 / L, gamma=gamma, max_iters=max_iters, opnorm=problem.opnorm_D)


@dataclass
class BaselineResult:
    """The final primal vector x and planar (2, n1, n2) dual field p, the iterations run and why the run stopped.

    stop_reason is "max_iters", or the reason the callback returned to end
    the run after iteration n_iters - 1.
    """

    x: np.ndarray
    p: np.ndarray
    n_iters: int
    stop_reason: str


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
    iteration, with p the planar (2, n1, n2) dual field; x and p are
    borrowed read-only views of the solver's buffers, valid until the
    callback returns: copy them to keep them.  It returns None to go on,
    or a str, the reason to end the run after this iteration, as for
    pedi_run.
    """
    n1, n2 = problem.shape
    zf = problem.z.flat()
    z = zf.reshape(n1, n2)
    x_bar = np.zeros((n1, n2))
    p = np.zeros((2, n1, n2))
    p_view = _readonly(p)
    # x and the buffer of the next x swap roles every iteration, each with
    # its (n1, n2) view and the read-only view the callback gets
    cur, nxt = [(a.reshape(n1, n2), a, _readonly(a)) for a in (np.zeros_like(zf), np.empty_like(zf))]
    tau, sigma, gamma = config.tau0, config.sigma0, config.gamma
    stop_reason = "max_iters"

    for i in range(config.max_iters):
        problem.project_dual(p, out=p, ascent=(x_bar, sigma))
        theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * tau)
        # the prox at x - tau D* p and the extrapolation x_bar, in D*'s pass
        _grad_adjoint(p, out=nxt[0], minuend=cur[0], step=tau, z=z, x_bar=x_bar, theta=theta)
        cur, nxt = nxt, cur
        tau, sigma = theta * tau, sigma / theta
        if callback is not None:
            reason = callback(i, cur[2], p_view, {"tau": tau, "sigma": sigma, "theta": theta})
            if reason is not None:
                stop_reason = _stop_reason(reason)
                break

    return BaselineResult(x=cur[1], p=p, n_iters=i + 1, stop_reason=stop_reason)


def dual_fb_run(
    problem: DenoiseProblem,
    max_iters: int,
    callback: Optional[Callable] = None,
) -> BaselineResult:
    """Forward-backward splitting on the dual problem.

    The dual objective (1/2)||z - D* p||^2 - (1/2)||z||^2 is 1/tau-smooth
    for tau = 1/L^2 with the analytic L = sqrt(8); each step is a gradient
    step followed by ball projection.  The primal is recovered through the
    optimality relation x = z - D* p, once per iteration, by the
    projection's own call (project_dual's recover=): it is both the
    iterate reported for p and the point of the next gradient step.  On TV
    the call is one sweep that writes x tile by tile right behind the
    projection; on H1, and on the numpy path, D*'s pass follows it.

    The callback, if given, is invoked as callback(i, x, p, info) after each
    iteration, with p the planar (2, n1, n2) dual field; x and p are
    borrowed read-only views of the solver's buffers, valid until the
    callback returns: copy them to keep them.  It returns None to go on,
    or a str, the reason to end the run after this iteration, as for
    pedi_run.  max_iters must be at least 1, or ConfigError is raised, as
    BaselineConfig raises it for pdhgm_run.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    n1, n2 = problem.shape
    z = problem.z.values
    p = np.zeros((2, n1, n2))
    # x = z - D* 0, with its (n1, n2) view
    x = problem.z.flat().copy()
    x2 = x.reshape(n1, n2)
    x_view, p_view = _readonly(x), _readonly(p)
    tau = 1.0 / DUAL_FB_L**2
    stop_reason = "max_iters"

    for i in range(max_iters):
        # p = P(p + tau D x), then x = z - D* p: on TV one sweep
        problem.project_dual(p, out=p, ascent=(x2, tau), recover=z)
        if callback is not None:
            reason = callback(i, x_view, p_view, {"tau": tau})
            if reason is not None:
                stop_reason = _stop_reason(reason)
                break

    return BaselineResult(x=x, p=p, n_iters=i + 1, stop_reason=stop_reason)
