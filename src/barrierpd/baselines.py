"""Comparison solvers on the unlifted denoising problem.

Both methods iterate directly on the gradient-field dual variable p with the
ball constraint ||p|| <= alpha (per pixel for TV, global for H1) -- no cone
lifting.  They converge to the same primal solution as the interior method
and serve as references in the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .imaging import DenoiseProblem, ImageGrid, _grad, _grad_adjoint
from .pedi import ConfigError

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
    construction against the supplied operator norm (use the problem's
    power-iteration estimate).
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


@dataclass
class BaselineResult:
    x: np.ndarray
    p: np.ndarray
    n_iters: int


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
    """
    n1, n2 = problem.shape
    zf = problem.z.flat()
    x = np.zeros_like(zf)
    x_bar = x.copy()
    p = np.zeros((n1, n2, 2))
    tau, sigma = config.tau0, config.sigma0

    for i in range(config.max_iters):
        p = problem.project_dual(p + sigma * _grad(x_bar.reshape(n1, n2)))
        x_old = x
        v = x - tau * _grad_adjoint(p).reshape(-1)
        x = (v + tau * zf) / (1.0 + tau)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * config.gamma * tau)
        x_bar = x + theta * (x - x_old)
        tau, sigma = theta * tau, sigma / theta
        if callback is not None:
            callback(i, x, p, {"tau": tau, "sigma": sigma, "theta": theta})

    return BaselineResult(x=x, p=p, n_iters=config.max_iters)


def dual_fb_run(
    problem: DenoiseProblem,
    max_iters: int,
    callback: Optional[Callable] = None,
) -> BaselineResult:
    """Forward-backward splitting on the dual problem.

    The dual objective (1/2)||z - D* p||^2 - (1/2)||z||^2 is 1/tau-smooth
    for tau = 1/L^2 with the analytic L = sqrt(8); each step is a gradient
    step followed by ball projection.  The primal is recovered through the
    optimality relation x = z - D* p.
    """
    n1, n2 = problem.shape
    zf = problem.z.flat()
    p = np.zeros((n1, n2, 2))
    tau = 1.0 / DUAL_FB_L**2

    for i in range(max_iters):
        x = zf - _grad_adjoint(p).reshape(-1)
        p = problem.project_dual(p + tau * _grad(x.reshape(n1, n2)))
        if callback is not None:
            callback(i, zf - _grad_adjoint(p).reshape(-1), p, {"tau": tau})

    x = zf - _grad_adjoint(p).reshape(-1)
    return BaselineResult(x=x, p=p, n_iters=max_iters)
