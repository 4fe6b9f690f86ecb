"""Barrier-preconditioned primal-dual method.

Each iteration performs an exact interior dual solve followed by a Euclidean
proximal step on the primal variable.  The dual lives on a product of n
second-order cones E_{1+m} under the per-block constraint <e, y_b> = b0 (a = e,
the constraint both denoising models lift with), so the dual solve is the
closed form of :func:`barrierpd.barrier.central_path_solve` specialised to
a = e and vectorised over blocks.  K maps into cone elements with zero heads;
the solver therefore passes plain (n, m) tail arrays between K and K*,
allocated once before its loop and updated in place, and builds
:class:`~barrierpd.jordan.BlockConeVector` values only at its edge: one
read-only view for the callback and copies for the result.

Two step-size regimes are provided: a general rule giving O(1/N)
squared-distance decay, and a second-order-cone rule whose monotonicity lower
bound grows with ||K x^i||, giving linear convergence when the optimal K x is
nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import kernels
# unused here; kept as a module attribute for perfbench's layer trace
from .barrier import central_path_solve  # noqa: F401
from .jordan import BlockConeVector

__all__ = [
    "StepState",
    "StepConfig",
    "SaddleProblem",
    "PEDIResult",
    "initial_state",
    "step_rule_general",
    "step_rule_soc",
    "pedi_run",
    "check_config",
    "descent_certificate",
]


class ConfigError(ValueError):
    """Inadmissible solver configuration."""


@dataclass(frozen=True)
class StepState:
    """Per-iteration scalars of the solver.

    After i+1 applications of a step rule: phi is the testing parameter
    phi_{i+1} = phi_i (1 + 2 gamma tau_i), tau the primal step
    tau_i = 2 omega_lb / ||K||^2, mu the barrier weight of the dual solve, and
    omega_lb the monotonicity lower bound.  The initial state carries
    phi_0 = 1 and None for the not-yet-defined scalars; a different phi_0
    would only rescale theta, since mu_{i+1} = theta phi_i^{-1/2}.
    """

    phi: float
    tau: Optional[float]
    mu: Optional[float]
    omega_lb: Optional[float]
    iter: int


def initial_state() -> StepState:
    return StepState(phi=1.0, tau=None, mu=None, omega_lb=None, iter=0)


@dataclass(frozen=True)
class StepConfig:
    """Scalar parameters of the step rules.

    theta and zeta control the barrier weight mu_{i+1} = theta phi_i^{-1/2}
    and the monotonicity bound; gamma is the strong-convexity factor used for
    the testing-parameter update and may not exceed the problem's; b0 is the
    right-hand side of the per-block constraint <e, y_b> = b0 and must equal
    the problem's; opnorm_K is an upper bound on the operator norm of K in
    the trace inner product, at least the problem's.
    """

    opnorm_K: float
    b0: float
    gamma: float = 0.9
    zeta: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.opnorm_K <= 0 or self.b0 <= 0:
            raise ConfigError("opnorm_K and b0 must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.zeta is None:
            object.__setattr__(self, "zeta", 0.9 / self.b0**2)
        if self.theta is None:
            object.__setattr__(self, "theta", 1.0 / self.zeta)
        if self.zeta <= 0 or self.theta <= 0:
            raise ConfigError("zeta and theta must be positive")

    def with_tau0(self, tau0: float) -> "StepConfig":
        """Rescale theta so the first step (with K x^0 = 0) equals tau0."""
        if tau0 <= 0:
            raise ConfigError("tau0 must be positive")
        theta = tau0 * self.opnorm_K**2 / (2.0 * self.zeta)
        return replace(self, theta=theta)


def _advance(state: StepState, config: StepConfig, omega_lb: float, mu: float) -> StepState:
    tau = 2.0 * omega_lb / config.opnorm_K**2
    phi_next = state.phi * (1.0 + 2.0 * config.gamma * tau)
    return StepState(phi=phi_next, tau=tau, mu=mu, omega_lb=omega_lb, iter=state.iter + 1)


def _check_zeta(config: StepConfig, step_rule: str):
    if step_rule == "general" and not config.zeta < 1.0 / config.b0**2:
        raise ConfigError("general rule needs zeta in (0, b0^-2)")
    if step_rule == "soc" and not config.zeta <= 2.0 / config.b0**2:
        raise ConfigError("soc rule needs zeta in (0, 2 b0^-2]")


def step_rule_general(state: StepState, config: StepConfig) -> StepState:
    """General symmetric-cone rule: omega_lb = zeta mu_{i+1} (lambda_min(e) = 1)."""
    _check_zeta(config, "general")
    mu = config.theta * state.phi ** -0.5
    omega_lb = config.zeta * mu
    return _advance(state, config, omega_lb, mu)


def step_rule_soc(state: StepState, current_Kx_norm: float, config: StepConfig) -> StepState:
    """Second-order-cone rule with the ||K x^i||-enlarged monotonicity bound."""
    _check_zeta(config, "soc")
    if current_Kx_norm < 0:
        raise ValueError("current_Kx_norm must be nonnegative")
    mu = config.theta * state.phi ** -0.5
    omega_lb = mu * config.zeta + current_Kx_norm / (math.sqrt(2.0) * config.b0)
    return _advance(state, config, omega_lb, mu)


@dataclass
class SaddleProblem:
    """Saddle-point problem min_x max_y G(x) + <Kx, y> - F*(y) with conic F*.

    The dual variable y lives on n second-order cones E_{1+m}, constrained
    blockwise by <e, y_b> = b0, which pins head(y_b) = b0/2.  K maps into
    elements with zero heads, so apply_K returns only their tails, an (n, m)
    array, and apply_K_adjoint takes the tails of y as an (n, m) array; with
    the trace inner product <Kx, y> = 2 sum_b tail(Kx)_b . tail(y)_b.  gamma
    is the strong-convexity factor of G and opnorm_K an upper bound on ||K||:
    the step tau_i = 2 omega_lb / ||K||^2 is admissible only for a bound, so
    an estimate from below (such as power iteration) is not enough.

    Each operator takes an optional out= and writes its result there:
    apply_K(x, out) into an array returned by an earlier apply_K call or
    np.empty_like of one, apply_K_adjoint(y_tails, out) and
    prox_G(v, tau, out) into a primal vector, which for prox_G must not
    overlap v.
    """

    primal_dim: int
    apply_K: Callable[[np.ndarray], np.ndarray]
    apply_K_adjoint: Callable[[np.ndarray], np.ndarray]
    prox_G: Callable[[np.ndarray, float], np.ndarray]
    gamma: float
    b0: float
    opnorm_K: float
    primal_bound_hint: float


@dataclass
class PEDIResult:
    x: np.ndarray
    y: BlockConeVector
    d: BlockConeVector
    states: list
    xs: Optional[list] = None
    watchdog_triggered: bool = False

    @property
    def phis(self) -> np.ndarray:
        """Testing parameters aligned with iterates: phi_0 = 1, phi_1, ..., phi_N."""
        return np.concatenate(([1.0], [s.phi for s in self.states]))


def _tail_norms(kx_tails: np.ndarray, tn2: np.ndarray, need_min: bool) -> Optional[float]:
    """Squared tail norms of Kx per block into tn2, and their minimum if need_min.

    The compiled kernel takes two-entry tails (TV) stored planar, as apply_K
    returns them, and always returns the minimum.  Other tails, such as H1's
    single block, stay with einsum, whose summation order fixes their
    roundoff.
    """
    if kernels.PATH == "c" and kx_tails.shape[1] == 2:
        try:
            return kernels.ext.tail_norms(kx_tails.T, tn2)
        except ValueError:
            pass
    np.einsum("ij,ij->i", kx_tails, kx_tails, out=tn2)
    return float(np.min(tn2)) if need_min else None


def _dual_update(
    kx_tails: np.ndarray, tn2: np.ndarray, b0: float, mu: float, d0: np.ndarray, y_tails: np.ndarray
):
    """Closed-form dual solve per block for a = e and c_b = -(Kx)_b, in place.

    tn2 holds the squared tail norms of Kx per block; the numpy path
    overwrites it.  Writes the heads of d into d0 and the tails of y into
    y_tails; head(y_b) = b0/2 and tail(d_b) = -tail(Kx)_b.  Two-entry tails
    stored planar go through the compiled kernel, which makes the same
    operations per block in one pass; a single block (H1) computes its head
    with numpy and scales its tail with a kernel.
    """
    if kernels.PATH == "c" and kx_tails.shape[1] == 2:
        try:
            kernels.ext.dual_solve(tn2, kx_tails.T, d0, y_tails.T, b0, mu)
            return
        except ValueError:
            pass
    np.multiply(tn2, b0 * b0, out=d0)
    d0 += mu * mu
    np.sqrt(d0, out=d0)
    d0 += mu
    d0 /= b0
    # (b0/2)/d0 and b0/(2 d0) are one rounding of the same quotient, since
    # halving b0 and doubling d0 are exact; the first saves a pass
    scale = tn2
    if d0.min() > 0.0:
        np.divide(b0 / 2.0, d0, out=scale)
    else:
        # d0 = 0 only when mu underflowed and so did b0^2 ||tail||^2; such
        # a block gets a zero dual tail
        scale.fill(0.0)
        np.divide(b0 / 2.0, d0, out=scale, where=d0 > 0.0)
    if kernels.PATH == "c" and kx_tails.shape[0] == 1:
        try:
            kernels.ext.scale(kx_tails, y_tails, float(scale[0]))
            return
        except ValueError:
            pass
    np.multiply(kx_tails, scale[:, None], out=y_tails)


def _prox_argument(x: np.ndarray, v: np.ndarray, tau: float):
    """v = x - tau v in place, the point the primal prox is taken at."""
    if kernels.PATH == "c":
        try:
            kernels.ext.x_minus_tau_v(x, v, tau)
            return
        except ValueError:
            pass
    v *= tau
    np.subtract(x, v, out=v)


def check_config(problem: SaddleProblem, config: StepConfig, step_rule: str = "general"):
    """Raise ConfigError unless pedi_run accepts (problem, config, step_rule).

    The step rule must be "general" or "soc" with zeta in its range, and the
    config must fit the problem (see pedi_run).
    """
    if step_rule not in ("general", "soc"):
        raise ConfigError(f"unknown step rule {step_rule!r}")
    _check_zeta(config, step_rule)
    if config.b0 != problem.b0:
        raise ConfigError(f"config b0 = {config.b0!r} differs from the problem's {problem.b0!r}")
    if config.gamma > problem.gamma:
        raise ConfigError(f"config gamma = {config.gamma!r} exceeds the problem's {problem.gamma!r}")
    if config.opnorm_K < problem.opnorm_K:
        raise ConfigError(f"config opnorm_K = {config.opnorm_K!r} is below the problem's {problem.opnorm_K!r}")


def _readonly(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def pedi_run(
    problem: SaddleProblem,
    config: StepConfig,
    max_iters: int,
    step_rule: str = "general",
    x0: Optional[np.ndarray] = None,
    callback: Optional[Callable] = None,
    keep_iterates: bool = False,
) -> PEDIResult:
    """Run the barrier-preconditioned primal-dual iteration.

    Per iteration: advance the step scalars with the configured rule, solve
    the interior dual system exactly with barrier weight mu_{i+1} and
    c = -K x^i, then take the primal proximal step
    x^{i+1} = prox_{tau_i G}(x^i - tau_i K* y^{i+1}).  The dual iterates are
    strictly interior and exactly feasible at every iteration.  The config
    must fit the problem: the same b0, a gamma no larger and an opnorm_K no
    smaller than the problem's, and a zeta in the step rule's range;
    otherwise ConfigError is raised before the first iteration (see
    check_config).  The iterates live in buffers allocated once and updated
    in place.  Two-entry tails (TV) stored planar, as DenoiseProblem's
    apply_K returns them, take the compiled kernels (barrierpd.kernels) for
    the tail norms and their min and for the dual solve, and the step
    x - tau K* y goes through one too; H1's one block keeps its norm and
    head in numpy and scales its tail with a kernel.  Kernels split large
    images across threads.  Both paths give bit-identical iterates.

    The callback, if given, is invoked as callback(i, x, y, state, metrics)
    after each iteration, with y the dual iterate as a BlockConeVector and
    metrics = {"kx_norm": ...}; it may be used for logging or error
    tracking.  x and y are borrowed read-only views of the solver's buffers,
    valid until the callback returns: copy them to keep them.  The result
    carries the final y and d as BlockConeVector copies.  No randomness:
    identical inputs give identical trajectories.
    """
    check_config(problem, config, step_rule)
    x = np.zeros(problem.primal_dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.primal_dim,):
        raise ValueError("x0 has wrong dimension")

    state = initial_state()
    states = []
    xs = [x.copy()] if keep_iterates else None
    if max_iters < 1:
        return PEDIResult(x=x, y=None, d=None, states=states, xs=xs)
    watchdog = False
    b0 = problem.b0

    # K x^0 also sizes the buffers; empty_like keeps apply_K's memory layout
    kx_tails = problem.apply_K(x)
    y_tails = np.empty_like(kx_tails)
    n_blocks = kx_tails.shape[0]
    tn2, d0 = np.empty(n_blocks), np.empty(n_blocks)
    heads = np.full(n_blocks, b0 / 2.0)
    v = np.empty_like(x)
    if callback is not None:
        x_view = _readonly(x)
        y_view = BlockConeVector.view_of(heads, y_tails)

    for i in range(max_iters):
        if i:
            problem.apply_K(x, out=kx_tails)
        tn2_min = _tail_norms(kx_tails, tn2, step_rule == "soc")
        if step_rule == "soc":
            # the enlarged monotonicity bound holds blockwise with the block's
            # own ||(Kx)_b||; the scalar rule can only use the worst block, so
            # a flat image region degrades it gracefully to the general rule
            kx_norm = math.sqrt(2.0 * tn2_min)
            state = step_rule_soc(state, kx_norm, config)
        else:
            kx_norm = None
            state = step_rule_general(state, config)

        _dual_update(kx_tails, tn2, b0, state.mu, d0, y_tails)

        problem.apply_K_adjoint(y_tails, out=v)
        _prox_argument(x, v, state.tau)
        problem.prox_G(v, state.tau, out=x)
        # one pass: ||x|| is finite when x is, unless a finite x overflows it (no warning)
        with np.errstate(over="ignore"):
            x_norm = float(np.linalg.norm(x))
        if not math.isfinite(x_norm) and not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite primal iterate at iteration {i}")
        if x_norm > 1e3 * problem.primal_bound_hint:
            watchdog = True

        states.append(state)
        if keep_iterates:
            xs.append(x.copy())
        if callback is not None:
            callback(i, x_view, y_view, state, {"kx_norm": kx_norm})

    y = BlockConeVector.from_arrays(heads, y_tails)
    d = BlockConeVector.from_arrays(d0, -kx_tails)
    return PEDIResult(x=x, y=y, d=d, states=states, xs=xs, watchdog_triggered=watchdog)


def descent_certificate(result: PEDIResult, target_x: np.ndarray) -> np.ndarray:
    """Series (1/2) phi_N ||x^N - target||^2 over the stored trajectory.

    Requires the run to have been made with keep_iterates=True.  Boundedness
    of this series is the raw content of the convergence estimate; its growth
    order against phi_N = Theta(N^2) or exponential phi growth translates into
    the O(1/N) and linear rates.
    """
    if result.xs is None:
        raise ValueError("descent_certificate needs a run with keep_iterates=True")
    target = np.asarray(target_x, dtype=float)
    errs = np.array([float(np.sum((x - target) ** 2)) for x in result.xs])
    return 0.5 * result.phis * errs
