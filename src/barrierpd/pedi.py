"""Barrier-preconditioned primal-dual method.

Each iteration performs an exact interior dual solve followed by a Euclidean
proximal step on the primal variable.  The dual lives on a product of n
second-order cones E_{1+m} under the per-block constraint <e, y_b> = b0 (a = e,
the constraint both denoising models lift with), so the dual solve is the
closed form of :func:`barrierpd.barrier.central_path_solve` specialised to
a = e and vectorised over blocks.  The solve needs only each block's
(Kx)_b, so K does it: the solver keeps one LiftedStep per run, and
apply_K(x, step=...) forms K x, solves and writes y into the record.  This
module is the algorithm alone.  DenoiseProblem makes each of the two
stages one call of a kernel form of barrierpd.kernels, which holds the
forms' numpy references, the closed-form solve's (_dual_update) among them.
The compiled dual stage is one pass per pixel on TV, and on H1, the
one-block case, a sum of K x's squares formed on the fly followed by the
write of y.  The loop reads y alone, so the solve's auxiliary d, whose
Jordan product with y is mu e, is never formed.  K
maps into cone elements with zero heads, so the record holds y as a plain
(n, m) tail array, which the first call allocates and every later one
updates in place; apply_K_adjoint(y, out=x, step=...) takes the primal
step from the record's y.  The solver builds
:class:`~barrierpd.jordan.BlockConeVector` values only at its edge: one
read-only view for the callback and a copy for the result.

Two step-size regimes are provided: a general rule giving O(1/N^2)
squared-distance decay (phi_N grows like N^2 and bounds ||x^N - x_hat||^2
by O(1/phi_N)), and a second-order-cone rule whose monotonicity lower
bound grows with ||K x^i||, giving linear convergence when the optimal K x is
nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

# unused here; kept as a module attribute for perfbench's layer trace
from .barrier import central_path_solve  # noqa: F401
from .jordan import BlockConeVector

__all__ = [
    "StepState",
    "StepConfig",
    "SaddleProblem",
    "LiftedStep",
    "PEDIResult",
    "initial_state",
    "step_rule_general",
    "step_rule_soc",
    "pedi_run",
    "check_config",
]


class ConfigError(ValueError):
    """Inadmissible solver configuration."""


class StepState(NamedTuple):
    """Per-iteration scalars of the solver, an immutable record.

    After i+1 applications of a step rule: phi is the testing parameter
    phi_{i+1} = phi_i (1 + 2 gamma tau_i), tau the primal step
    tau_i = 2 omega_lb / ||K||^2, mu the barrier weight of the dual solve, and
    omega_lb the monotonicity lower bound.  The initial state carries
    phi_0 = 1 and None for the not-yet-defined scalars; a different phi_0
    would only rescale theta, since mu_{i+1} = theta phi_i^{-1/2}.  A named
    tuple, not a frozen dataclass: the solver makes one per iteration, and
    under CPython 3.11 on a 2-CPU x86-64 host a frozen dataclass took
    1.7 us to build, a named tuple 0.7 us.
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
    the trace inner product, at least the problem's.  Each must be finite,
    as must the squares of opnorm_K and b0, which the rules divide by, and
    a NaN fails every check, so a configuration the rules could not use
    raises ConfigError here rather than a FloatingPointError mid-run.
    """

    opnorm_K: float
    b0: float
    gamma: float = 0.9
    zeta: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if not (_positive_square(self.opnorm_K) and _positive_square(self.b0)):
            raise ConfigError("opnorm_K and b0 must be positive, with finite nonzero squares")
        if not 0 <= self.gamma < math.inf:
            raise ConfigError("gamma must be nonnegative and finite")
        if self.zeta is None:
            object.__setattr__(self, "zeta", 0.9 / self.b0**2)
        if self.theta is None:
            object.__setattr__(self, "theta", 1.0 / self.zeta)
        if not (0 < self.zeta < math.inf and 0 < self.theta < math.inf):
            raise ConfigError("zeta and theta must be positive and finite")


def _positive_square(x: float) -> bool:
    """x > 0 with x^2 finite and nonzero; False for NaN."""
    return x > 0 and 0 < x * x < math.inf


def _barrier_weight(state: StepState, config: StepConfig) -> float:
    """mu_{i+1} = theta phi_i^{-1/2}, the barrier weight of the next dual solve and step."""
    return config.theta * state.phi ** -0.5


def _advance(state: StepState, config: StepConfig, omega_lb: float, mu: float) -> StepState:
    tau = 2.0 * omega_lb / config.opnorm_K**2
    phi_next = state.phi * (1.0 + 2.0 * config.gamma * tau)
    return StepState(phi_next, tau, mu, omega_lb, state.iter + 1)


def _check_zeta(config: StepConfig, step_rule: str):
    if step_rule == "general" and not config.zeta < 1.0 / config.b0**2:
        raise ConfigError("general rule needs zeta in (0, b0^-2)")
    if step_rule == "soc" and not config.zeta <= 2.0 / config.b0**2:
        raise ConfigError("soc rule needs zeta in (0, 2 b0^-2]")


def step_rule_general(state: StepState, config: StepConfig, mu: Optional[float] = None) -> StepState:
    """General symmetric-cone rule: omega_lb = zeta mu_{i+1} (lambda_min(e) = 1).

    mu is mu_{i+1} = _barrier_weight(state, config), computed when not
    given; pedi_run passes the one its dual solve used.
    """
    _check_zeta(config, "general")
    if mu is None:
        mu = _barrier_weight(state, config)
    return _advance(state, config, config.zeta * mu, mu)


def step_rule_soc(state: StepState, current_Kx_norm: float, config: StepConfig,
                  mu: Optional[float] = None) -> StepState:
    """Second-order-cone rule with the ||K x^i||-enlarged monotonicity bound; mu as for step_rule_general.

    current_Kx_norm must be finite and nonnegative, else ValueError: a NaN
    or inf would make phi and tau NaN or inf.
    """
    _check_zeta(config, "soc")
    if not 0 <= current_Kx_norm < math.inf:
        raise ValueError("current_Kx_norm must be nonnegative and finite")
    if mu is None:
        mu = _barrier_weight(state, config)
    omega_lb = mu * config.zeta + current_Kx_norm / (math.sqrt(2.0) * config.b0)
    return _advance(state, config, omega_lb, mu)


@dataclass
class SaddleProblem:
    """Saddle-point problem min_x max_y G(x) + <Kx, y> - F*(y) with conic F*.

    The dual variable y lives on n second-order cones E_{1+m}, constrained
    blockwise by <e, y_b> = b0, which pins head(y_b) = b0/2.  K maps into
    elements with zero heads, so apply_K forms only their tails, an (n, m)
    array, and apply_K_adjoint takes the tails of y as an (n, m) array; with
    the trace inner product <Kx, y> = 2 sum_b tail(Kx)_b . tail(y)_b.  gamma
    is the strong-convexity factor of G and opnorm_K an upper bound on ||K||:
    the step tau_i = 2 omega_lb / ||K||^2 is admissible only for a bound, so
    an estimate from below (such as power iteration) is not enough.

    apply_K(x) returns K x's tails in a new array, and
    apply_K_adjoint(y_tails, out) and prox_G(v, tau, out) write into out,
    a primal vector, when given; prox_G's must not overlap v.  pedi_run
    calls the first two with step=, its LiftedStep, once per iteration
    each: apply_K(x, step=s) runs the dual stage into s and returns
    nothing, and apply_K_adjoint(s.y, out=x, step=s) the primal stage in
    place on x.
    Each stage is whole in its operator (see LiftedStep), so pedi_run
    calls neither prox_G nor a norm of its own; DenoiseProblem makes each
    one call of a kernel form of barrierpd.kernels.
    """

    primal_dim: int
    apply_K: Callable[[np.ndarray], np.ndarray]
    apply_K_adjoint: Callable[[np.ndarray], np.ndarray]
    prox_G: Callable[[np.ndarray, float], np.ndarray]
    gamma: float
    b0: float
    opnorm_K: float


@dataclass
class PEDIResult:
    """The final x and y, the StepState of each iteration run, their number and why the run stopped.

    stop_reason is "max_iters", or the reason the callback returned to end
    the run after iteration n_iters - 1.
    """

    x: np.ndarray
    y: BlockConeVector
    states: list
    n_iters: int
    stop_reason: str


@dataclass(eq=False)
class LiftedStep:
    """One pedi_run's record of its two stages, whose buffers SaddleProblem's operators own.

    pedi_run sets mu and tau; b0 is the problem's.  The dual stage,
    apply_K(x, step=s), gives each block the closed form of
    kernels._dual_update with barrier weight mu and c_b = -(Kx)_b: the
    tails of y go into y, and the least squared tail norm
    min_b ||(Kx)_b||^2, the soc rule's input, into minimum (NaN if any norm
    is NaN, like np.min), which the fused passes find anyway.  Its first
    call allocates y, in the layout of K x, as a view of y_planes, the
    planar (2, n1, n2) array the kernels take.  The primal stage,
    apply_K_adjoint(s.y, out=x, step=s), writes x = prox_G(x - tau K* y,
    tau) over x and puts ||x||^2 of the new x, summed as kernels._sumsq
    sums it, into norm2, which pedi_run checks is finite.  DenoiseProblem's
    operators make each stage one call of a kernel form, which writes y or
    x alone: tv_dual on TV and h1_dual on H1, whose one block's minimum is
    its norm, then primal_step.
    """

    b0: float
    mu: float = 0.0
    tau: float = 0.0
    minimum: Optional[float] = field(default=None, init=False)
    norm2: Optional[float] = field(default=None, init=False)
    y: Optional[np.ndarray] = field(default=None, init=False)
    y_planes: Optional[np.ndarray] = field(default=None, init=False, repr=False)


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


def _stop_reason(reason) -> str:
    """A callback's reason to end its run: reason itself, a str; TypeError for any other value."""
    if not isinstance(reason, str):
        raise TypeError(f"a solver callback returns None to go on or a str reason to stop, got {reason!r}")
    return reason


def pedi_run(
    problem: SaddleProblem,
    config: StepConfig,
    max_iters: int,
    step_rule: str = "general",
    x0: Optional[np.ndarray] = None,
    callback: Optional[Callable] = None,
) -> PEDIResult:
    """Run the barrier-preconditioned primal-dual iteration.

    Per iteration: solve the interior dual system exactly with barrier
    weight mu_{i+1} and c = -K x^i, advance the step scalars with the
    configured rule, then take the primal proximal step
    x^{i+1} = prox_{tau_i G}(x^i - tau_i K* y^{i+1}).  The dual iterates are
    exactly feasible at every iteration, and strictly interior while
    mu_{i+1} > 0: once mu underflows to 0 the solve may land on the cone's
    boundary (at 256 x 256 H1 the soc rule reaches lambda_min(y) = 0.0),
    and nothing checks or prevents it.  The config
    must fit the problem: the same b0, a gamma no larger and an opnorm_K no
    smaller than the problem's, and a zeta in the step rule's range, and
    max_iters must be at least 1; otherwise ConfigError is raised before the
    first iteration (see check_config).  An x0 that is not finite raises
    ValueError, also before the first iteration.  Each prox step also gives
    the sum of squares of the new x; if it is not finite (a non-finite x,
    or a finite x whose norm overflows) FloatingPointError is raised, on
    either kernel path; under the soc rule a finite x0 whose ||K x||
    overflows fails one stage earlier, with step_rule_soc's ValueError.  The dual iterate
    lives in one LiftedStep, whose buffers the first apply_K call allocates
    and every later call updates in place.

    An iteration runs: mu_{i+1} (_barrier_weight, computed once and passed
    to the dual solve and the rule); apply_K(x, step=s), which forms
    K x^i, the dual solve and min_b ||(Kx)_b||^2, the soc rule's input; the
    step rule, which returns the next StepState; and
    apply_K_adjoint(s.y, out=x, step=s), which forms x - tau K* y, takes
    the prox over x in place and sums ||x||^2.  With the compiled kernels
    (barrierpd.kernels), DenoiseProblem makes each of the two operator
    calls one kernel call.  apply_K's stores y alone: on TV it is one pass
    that keeps K x in registers, and on H1 the one block's squared norm is
    summed over K x formed on the fly, in numpy's pairwise order as
    ||x||^2 is summed, the block's factor follows in closed form, and a
    second pass writes y.  apply_K_adjoint's is one pass over numpy's
    pairwise tree of x, whose leaves form K* y, the prox and the squares,
    and which stores nothing but x.  Kernels split large images, and these
    sums, across threads.  Both paths and every thread count give
    bit-identical iterates.  The loop binds the problem's operators once
    per run and calls each once per iteration; besides the kernels an
    iteration runs a few scalar operations and builds one StepState.

    On TV the soc rule is the general rule: the Neumann boundary makes the
    corner pixel's block of K zero, so min_b ||(Kx)_b|| = 0 at every
    iterate and the soc rule's enlarged bound adds nothing.  The two rules
    give the same iterates bit for bit, and with the compiled kernels at the
    same cost, since the fused pass reduces the minimum in the same visit.  The soc term pays on H1,
    whose one block's ||Kx|| stays away from zero.

    The callback, if given, is invoked as callback(i, x, y, state, metrics)
    after each iteration, with y the dual iterate as a BlockConeVector and
    metrics = {"kx_norm": ...}; it may be used for logging or error
    tracking.  With state.phi = phi_{i+1} and x = x^{i+1} it can form the
    descent series (1/2) phi_{i+1} ||x^{i+1} - x_hat||^2, whose boundedness
    is the raw content of the convergence estimate.  x and y are borrowed
    read-only views of the solver's buffers, valid until the callback
    returns: copy them to keep them.  The callback returns None to go on,
    or a str, the reason to end the run after this iteration; any other
    value raises TypeError.  The result carries x, the final y as a
    BlockConeVector copy, the states, the number of iterations run and the
    stop reason, "max_iters" when the run went to max_iters.  No
    randomness: identical inputs give identical trajectories.
    """
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    check_config(problem, config, step_rule)
    x = np.zeros(problem.primal_dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (problem.primal_dim,):
        raise ValueError("x0 has wrong dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")

    state = initial_state()
    states = []
    b0 = problem.b0
    step = LiftedStep(b0)
    y_view = kx_norm = None
    x_view = _readonly(x)
    # the operators are bound once per run; the step rules are looked up on
    # every call, so that a patched one is seen
    apply_K, apply_K_adjoint = problem.apply_K, problem.apply_K_adjoint
    soc = step_rule == "soc"
    stop_reason = "max_iters"

    for i in range(max_iters):
        # mu_{i+1}, which the dual solve and the rule share
        step.mu = mu = _barrier_weight(state, config)
        apply_K(x, step=step)
        if soc:
            # the enlarged monotonicity bound holds blockwise with the block's
            # own ||(Kx)_b||; the scalar rule can only use the worst block, so
            # a flat image region degrades it gracefully to the general rule
            kx_norm = math.sqrt(2.0 * step.minimum)
            state = step_rule_soc(state, kx_norm, config, mu)
        else:
            state = step_rule_general(state, config, mu)

        # x = prox_G(x - tau K* y, tau) in place, with ||x||^2 of the new x
        step.tau = state.tau
        apply_K_adjoint(step.y, out=x, step=step)
        # one sum covers a non-finite x and a finite x whose ||x||^2 overflows
        if not math.isfinite(step.norm2):
            raise FloatingPointError(f"non-finite primal iterate or norm at iteration {i}")

        states.append(state)
        if callback is not None:
            if y_view is None:
                y_view = BlockConeVector.view_of(np.full(step.y.shape[0], b0 / 2.0), step.y)
            reason = callback(i, x_view, y_view, state, {"kx_norm": kx_norm})
            if reason is not None:
                stop_reason = _stop_reason(reason)
                break

    y = BlockConeVector.from_arrays(np.full(step.y.shape[0], b0 / 2.0), step.y)
    return PEDIResult(x=x, y=y, states=states, n_iters=i + 1, stop_reason=stop_reason)
