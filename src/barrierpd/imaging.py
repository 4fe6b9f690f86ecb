"""Denoising problem construction: discrete gradient, cone lifting, metrics.

Conventions fixed here and relied on by every solver:

* pixels are row-major; an image is a (n1, n2) array, a primal vector its
  row-major flattening;
* the discrete gradient uses forward differences with Neumann boundary
  (last difference along each axis is zero).  Gradient fields are stored
  planar, as (2, n1, n2) arrays with plane 0 the axis-0 difference and
  plane 1 the axis-1 difference; the solvers allocate these buffers once and
  update them in place (``out=``).  Every public function takes and returns
  an unlifted dual field in this layout alone, and raises ValueError for an
  array of any other shape;
* D and D* are _grad and _grad_adjoint, numpy code that lives with the
  kernels' other numpy building blocks in barrierpd.kernels and is
  re-exported here under those names.  Each axis-1 difference is one
  shifted pass over the flattened (n1, n2) plane, which is several times
  faster than 2-d column slices and rounds every element the same way.
  _grad returns a new field; _grad_adjoint's out= array must therefore
  flatten to a view: one that would need a copy raises ValueError rather
  than leaving out unwritten;
* every stage a solver loop or a logged row runs is one call of a kernel
  form of barrierpd.kernels, which picks the path itself: the compiled
  kernel, one call over C-contiguous float64 buffers, split across threads
  on large images, or its numpy reference, bit for bit the same.  No
  function here tests the path.  The lifted K's form (apply_K's step=)
  makes pedi's dual solve and the soc rule's minimum of the tail norms,
  tv_dual on TV and h1_dual on H1; the lifted K*'s (apply_K_adjoint's
  step=) pedi's whole primal step, x - tau K* y, its prox and ||x||^2,
  primal_step.  A baseline's whole iteration (project_dual's ascent= in
  place with recover=) is one call of project_tv or project_h1: the
  projection of the ascent p + s D v and, right behind it, the primal
  step, dual_fb's x = z - D* p or pdhgm's prox and extrapolation (prox=).
  H1's regularizer is grad_sumsq, and a logged row's sums (metrics,
  duality_gap) are metric_sums.  So no loop stores D v or K x.  The
  operators pedi_run calls hand the forms the solver's own buffers, flat
  primal vectors included, and make no view a kernel does not need, so
  each costs its kernel call and little more.  A one-off evaluation that
  shares no loop's form (D alone, D* alone, dual_value's z - D* p, a
  projection into another out) is numpy code on either path;
* H1's global norm is sqrt(sum g^2) over the planar field, summed in
  component-major order whatever the field's strides (kernels._sumsq), so
  its roundoff depends on neither the strides nor BLAS;
* the cone lifting puts gradient tails into spin-algebra blocks with zero
  heads -- n1*n2 blocks of E_{1+2} for TV, a single block of E_{1+2*n1*n2}
  for H1.  Since the heads are zero, the lifted operator K carries only the
  tails: K x is the view G.reshape(m, n_blocks).T of the planar gradient
  buffer, an (n_blocks, m) array with m = 2 for TV and 2*n1*n2 for H1, and K*
  takes such an array.  H1's single tail is therefore component-major (all
  axis-0 differences, then all axis-1 differences); the cone is invariant
  under that reordering;
* in the trace inner product the lifted coupling is <Kx, y> = 2 (Dx).tail(y),
  so the per-block constraint <e, y> = b0 with b0 = alpha makes
  sup_y <Kx, y> = alpha * R(x) exactly the regularizer, and the portable
  (unlifted) dual variable is p = 2 tail(y) with ||p|| <= alpha, the same
  object the unlifted baseline solvers iterate on.  The solver returns y as
  a BlockConeVector; unlift and DenoiseProblem.unlifted_dual read its tails,
  and metrics takes it in place of p and reads them as they lie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .jordan import BlockConeVector
# D and D*, numpy code only; re-exported under these names
from .kernels import _grad, _grad_adjoint
from .pedi import SaddleProblem

__all__ = [
    "ImageGrid",
    "DenoiseProblem",
    "IterationRecord",
    "VARIANTS",
    "unlift",
    "add_gaussian_noise",
    "synthetic_image",
    "metrics",
    "Target",
    "DB_CLAMP",
]

VARIANTS = ("tv", "h1")
DB_CLAMP = -320.0


@dataclass(frozen=True)
class ImageGrid:
    """Immutable scalar field on an n1 x n2 pixel grid."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_flat", arr.reshape(-1))

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self):
        return self.values.shape

    def flat(self) -> np.ndarray:
        """Row-major flattening to a primal vector: a read-only view, no copy, the same on every call."""
        return self._flat


def _check_field(p: np.ndarray, shape) -> None:
    """ValueError unless the array p is a planar (2, n1, n2) dual field on the (n1, n2) grid shape."""
    if p.shape != (2,) + shape:
        raise ValueError(f"a dual field on this grid is a planar {(2,) + shape} array, got shape {p.shape}")


def unlift(y: BlockConeVector, shape) -> np.ndarray:
    """The planar (2, n1, n2) gradient field carried by the tails of y, discarding heads.

    Inverts the layout of apply_K: a view of y.tails where the layout allows.
    """
    n1, n2 = shape
    expected = n1 * n2 * 2
    if y.tails.size != expected:
        raise ValueError(f"block vector carries {y.tails.size} tail entries, expected {expected}")
    return y.tails.T.reshape(2, n1, n2)


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass
class DenoiseProblem:
    """The variational denoising problem min_x (1/2)||x-z||^2 + alpha R(x).

    R is the discrete TV seminorm (per-pixel Euclidean norms of the gradient,
    summed) or the H1 seminorm (global Euclidean norm of the gradient).
    """

    z: ImageGrid
    alpha: float
    variant: str
    _half_z2: Optional[float] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_variant(self.variant)
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def shape(self):
        return self.z.shape

    @property
    def n_pixels(self) -> int:
        return self.z.values.size

    @property
    def opnorm_D(self) -> float:
        """||D|| (Euclidean, unlifted) in closed form, rounded up to a proven upper bound.

        D*D is the Kronecker sum of the two path-graph Laplacians, whose
        eigenvalues are 4 sin^2(pi k / (2 n)), k = 0..n-1, so
        ||D||^2 = 4 sin^2(pi (n1-1) / (2 n1)) + 4 sin^2(pi (n2-1) / (2 n2)).
        Each rounded operation adds at most 2^-53 relative error, and
        a cot(a) <= 1 on [0, pi/2] keeps sin from amplifying the error of its
        argument, so the float result is within 2e-15 of the exact norm; the
        factor 1 + 4e-15 lifts it above.  A 1-pixel axis contributes an exact 0.
        """
        s = sum(4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2 for n in self.shape)
        return math.sqrt(s) * (1.0 + 4e-15)

    @property
    def half_z2(self) -> float:
        """(1/2)||z||^2, computed on first use and cached."""
        if self._half_z2 is None:
            self._half_z2 = 0.5 * float(np.square(self.z.flat()).sum())
        return self._half_z2

    # ----- functionals ---------------------------------------------------

    def regularizer(self, x: np.ndarray) -> float:
        """R(x): TV or H1 seminorm of the image x (flat vector).

        H1's is the kernel form grad_sumsq, which sums the squares of the
        gradient as it forms them and allocates nothing.
        """
        v = np.asarray(x, dtype=float).reshape(self.shape)
        if self.variant == "tv":
            return kernels._tv(v)
        return math.sqrt(kernels.grad_sumsq(v))

    def objective(self, x: np.ndarray) -> float:
        r = np.subtract(x, self.z.flat())
        return 0.5 * float(np.square(r, out=r).sum()) + self.alpha * self.regularizer(x)

    def dual_value(self, p: np.ndarray) -> float:
        """Dual objective (1/2)||z||^2 - (1/2)||z - D* p||^2, p a planar (2, n1, n2) field.

        (1/2)||z||^2 is the cached half_z2, and z - D* p is _grad_adjoint's
        minuend form, as dual_fb's iteration forms it.
        """
        p = np.asarray(p, dtype=float)
        _check_field(p, self.shape)
        r = _grad_adjoint(p, minuend=self.z.values).reshape(-1)
        return self.half_z2 - 0.5 * float(np.square(r, out=r).sum())

    def duality_gap(self, x: np.ndarray, p: np.ndarray) -> float:
        """objective(x) - dual_value(p), p a planar (2, n1, n2) field.

        G is 1-strongly convex, so for a feasible p the gap bounds
        (1/2)||x - x*||^2.  The sums behind both terms are one metric_sums
        call, as a logged row's, with x as its own target, whose distance
        sum is 0 and unread; the value is objective(x) - dual_value(p) bit
        for bit.
        """
        p = np.asarray(p)
        _check_field(p, self.shape)
        val, dual, _ = _values(x, p, self, x, 1.0)
        return val - dual

    def project_dual(
        self,
        p: np.ndarray,
        out: Optional[np.ndarray] = None,
        ascent: Optional[tuple] = None,
        recover: Optional[np.ndarray] = None,
        prox: Optional[tuple] = None,
    ) -> np.ndarray:
        """Project a planar (2, n1, n2) field p onto the dual constraint ||p|| <= alpha.

        Per-pixel for TV, globally for H1.  Writes into out, a field of the
        same shape that may be p itself, if given; this projection is numpy
        code.  With ascent = (v, s), v an (n1, n2) image and s a step, and
        recover = z, an (n1, n2) image, it runs a baseline's whole iteration
        in place, out=p: it projects the ascent p + s D v into p and then
        writes the primal v = z - D* p over v, dual_fb's iteration.  With
        prox = (x, x_next, tau, theta) as well, x and x_next images, it
        writes pdhgm's primal step instead: the prox at x - tau D* p into
        x_next and its extrapolation over v.  That is one call of the kernel
        form project_tv or project_h1 (barrierpd.kernels), which stores no
        ascent and writes the primal step right behind the projection.  Any
        other use of ascent= raises ValueError.
        """
        in_place = out is p
        p = np.asarray(p, dtype=float)
        _check_field(p, self.shape)
        # flooring the norm at alpha caps alpha/norm at 1 without a second
        # pass, and rounds exactly like min(1, alpha/max(norm, 1e-300))
        floor = max(self.alpha, 1e-300)
        tv = self.variant == "tv"
        if ascent is None:
            if recover is not None or prox is not None:
                raise ValueError("recover= and prox= need an ascent= to write the primal step behind")
            if out is None:
                out = np.empty(p.shape)
            elif not in_place:
                _check_field(out, self.shape)
            kernels._project(p, out, self.alpha, floor if tv else None)
            return out
        if not in_place or recover is None:
            raise ValueError("ascent= is a baseline's iteration: it needs out=p and recover=, its primal step's z")
        v, s = ascent
        # pdhgm's form takes x and x_next after z, and tau and theta last
        prox = prox or ()
        if tv:
            kernels.project_tv(v, out, recover, *prox[:2], self.alpha, floor, s, *prox[2:])
        else:
            kernels.project_h1(v, out, recover, *prox[:2], self.alpha, s, *prox[2:])
        return out

    # ----- conic form ----------------------------------------------------

    def saddle_problem(self) -> SaddleProblem:
        """Lifted conic saddle-point form consumed by the interior solver.

        The per-block constraint is <e, y> = b0 with b0 = alpha: in the trace
        inner product this fixes head(y) = alpha/2, and the coupling
        <Kx, y> = 2 (Dx).tail(y) then represents alpha R(x) exactly.  apply_K
        returns the tails of K x, the planar gradient buffer viewed as an
        (n_blocks, m) array; the adjoint is K* y = 2 D* tail(y) on such an
        array.  apply_K(x) writes K x into a new array, and apply_K_adjoint
        and prox_G write into out= when given, a contiguous primal vector,
        which for prox_G must not overlap v.  With step=, a pedi.LiftedStep,
        the two operators run pedi's stages on the record.
        apply_K(x, step=s) returns nothing: its first call allocates the
        record's y and its planar view y_planes, and every call does the
        dual solve into y_planes, one call of the kernel form tv_dual on TV
        and h1_dual on H1, which store no K x.
        apply_K_adjoint(y, out=x, step=s) takes pedi's whole primal step on
        x: x = prox_G(x - tau K* y, tau) and ||x||^2 of the new x, one call
        of the kernel form primal_step, which reads the record's planar
        view when y is s.y.
        prox_G is numpy code, (z tau + v) r with r = 1 / (1 + tau) taken
        once, as primal_step forms it; pedi_run never calls it.  opnorm_K = sqrt(2) opnorm_D, an upper bound on
        ||K|| since opnorm_D is one with a margin far above the roundoff of
        that product.
        """
        n1, n2 = self.shape
        n = self.n_pixels
        m, n_blocks = (2, n) if self.variant == "tv" else (2 * n, 1)
        dual_step = kernels.tv_dual if self.variant == "tv" else kernels.h1_dual
        zf = self.z.flat()

        # neither operator calls itself: a closure that referred to itself
        # would keep z alive, with every saddle problem, until a cyclic
        # collection
        def apply_K(x, step=None):
            if step is None:
                return _grad(x.reshape(n1, n2)).reshape(m, n_blocks).T
            if step.y is None:
                step.y_planes = np.empty((2, n1, n2))
                step.y = step.y_planes.reshape(m, n_blocks).T
            # the least squared tail norm: TV's minimum, H1's one norm
            step.minimum = dual_step(x, step.y_planes, step.b0, step.mu)

        def apply_K_adjoint(y_tails, out=None, step=None):
            if out is None and step is None:
                out = np.empty(n)
            elif out is None or out.shape != (n,) or not out.flags.c_contiguous:
                raise ValueError("out must be a contiguous primal vector")
            if step is None:
                return _grad_adjoint(y_tails.T.reshape(2, n1, n2), out, 2.0)
            # the record's planar view of its own y; any other y gets one per call
            planes = step.y_planes if y_tails is step.y else y_tails.T.reshape(2, n1, n2)
            step.norm2 = kernels.primal_step(planes, zf, out, step.tau)
            return out

        def prox_G(v, tau, out=None):
            if out is not None and np.may_share_memory(out, v):
                raise ValueError("prox_G cannot write over v")
            out = np.multiply(zf, tau, out=out)
            out += v
            out *= 1.0 / (1.0 + tau)
            return out

        return SaddleProblem(
            primal_dim=self.n_pixels,
            apply_K=apply_K,
            apply_K_adjoint=apply_K_adjoint,
            prox_G=prox_G,
            gamma=1.0,
            b0=self.alpha,
            opnorm_K=math.sqrt(2.0) * self.opnorm_D,
        )

    def unlifted_dual(self, y: BlockConeVector) -> np.ndarray:
        """Portable dual field p = 2 tail(y), a new planar (2, n1, n2) array; satisfies ||p|| <= alpha.

        The product with 2 is exact, so it is one numpy multiplication on
        any path.
        """
        return np.multiply(unlift(y, self.z.values.shape), 2.0)


def add_gaussian_noise(img: ImageGrid, sigma: float, seed: int) -> ImageGrid:
    """Additive i.i.d. Gaussian noise from numpy's PCG64 generator.

    The seed is mandatory: identical (image, sigma, seed) gives identical
    output on any platform with the same numpy generator algorithm.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite")
    if seed is None:
        raise ValueError("seed is mandatory")
    if sigma == 0:
        return img
    rng = np.random.default_rng(seed)
    return ImageGrid(img.values + sigma * rng.standard_normal(img.shape))


def synthetic_image(n1: int, n2: int) -> ImageGrid:
    """Deterministic smooth test pattern in [0, 255]: ramp plus a Gaussian bump.

    Used by the test-suite and as a stand-in when no photograph is at hand;
    any grayscale PGM works equally well with the CLI.  A 1 x 1 pattern is
    constant and has no range to stretch, so it is the image of zeros.
    """
    i = np.arange(n1)[:, None] / max(n1 - 1, 1)
    j = np.arange(n2)[None, :] / max(n2 - 1, 1)
    ramp = 0.55 * i + 0.25 * j
    bump = 0.6 * np.exp(-(((i - 0.4) ** 2 + (j - 0.6) ** 2) / 0.05))
    vals = ramp + bump
    span = vals.max() - vals.min()
    if span == 0.0:
        return ImageGrid(np.zeros_like(vals))
    return ImageGrid(255.0 * (vals - vals.min()) / span)


class IterationRecord(NamedTuple):
    """One logged solver iteration, dB values clamped at DB_CLAMP and NaN where the metric is NaN.

    A named tuple, like pedi.StepState, since metrics makes one per logged
    row: under CPython 3.11 on a 2-CPU x86-64 host a frozen dataclass took
    0.93 us to build, a named tuple 0.37 us.
    """

    iter: int
    wall_seconds: float
    gap_db: float
    target_db: float
    value_db: float


def _db(ratio_num: float, ratio_den: float) -> float:
    """10 log10(num / den), clamped below at DB_CLAMP; DB_CLAMP for a ratio not positive, NaN for a NaN one."""
    if ratio_num <= 0.0 or ratio_den <= 0.0:
        return DB_CLAMP
    ratio = ratio_num / ratio_den
    if ratio == 0.0:
        # underflowed, far below the clamp; log10 would raise
        return DB_CLAMP
    db = 10.0 * math.log10(ratio)
    # max(DB_CLAMP, db) would clamp a NaN too, logging it as convergence
    return DB_CLAMP if db < DB_CLAMP else db


@dataclass(frozen=True)
class Target:
    """The per-run constants of metrics: a target solution x, ||x||^2 and its objective value.

    Target.of rejects an x that is not finite or whose norm is 0.
    """

    x: np.ndarray
    norm2: float
    value: float

    @classmethod
    def of(cls, problem: DenoiseProblem, x: np.ndarray) -> "Target":
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("target x must be finite")
        norm2 = float(np.sum(x**2))
        if norm2 == 0.0:
            raise ValueError("degenerate target: ||target_x|| = 0")
        return cls(x=x, norm2=norm2, value=problem.objective(x))


def _values(x, p, problem: DenoiseProblem, xhat: np.ndarray, scale: float):
    """(objective(x), the dual value at (D* p) scale, sum (x - xhat)^2) from one metric_sums call.

    p is a planar (2, n1, n2) field, and scale is 1 for a baseline's p and
    2 for the tails of pedi's y, read as they lie.  H1's R(x) is
    regularizer(x), whose planar sum of squares fixes its roundoff; the
    values are objective's and dual_value's bit for bit.
    """
    tv = problem.variant == "tv"
    xz2, reg, zp2, dist2 = kernels.metric_sums(x, problem.z.flat(), xhat, p, tv, scale)
    if not tv:
        reg = problem.regularizer(x)
    # the scalar expressions of objective and dual_value
    return 0.5 * xz2 + problem.alpha * reg, problem.half_z2 - 0.5 * zp2, dist2


def metrics(
    x: np.ndarray,
    p: np.ndarray | BlockConeVector,
    problem: DenoiseProblem,
    target: Target,
    gap0: float,
    iter: int = 0,
    wall_seconds: float = 0.0,
) -> IterationRecord:
    """Per-iteration error report against a precomputed target solution.

    p is the dual iterate: a baseline's planar (2, n1, n2) field, or pedi's
    lifted y as a BlockConeVector, whose unlifted field 2 tail(y) is read
    from the tails as they lie, unlift's view, with the product with 2 taken
    last, as (D* tail(y)) 2.  That gives the record of
    metrics(x, DenoiseProblem.unlifted_dual(y)) bit for bit whenever
    2 tail(y) is finite, as it is for every feasible y, without forming
    the field.  A field of any other shape, or a y whose tails do not fit
    the grid, raises ValueError.
    gap_db is the duality gap relative to gap0, target_db the squared
    distance to target.x relative to ||target.x||^2, value_db the squared
    relative objective error.  The objective at x is evaluated once and
    serves both the gap and value_db; the dual value uses the problem's
    cached (1/2)||z||^2 (DenoiseProblem.half_z2).

    The four sums behind these numbers are one call of the kernel form
    metric_sums: with the compiled kernels and a C-contiguous float64 field
    (as every solver's callback passes) one visit per pixel that allocates
    no image-sized array, and otherwise its numpy reference, with the same
    record bit for bit.
    """
    if not 0.0 < gap0 < math.inf:
        raise ValueError("gap0 must be positive and finite")
    shape = problem.z.values.shape
    if isinstance(p, BlockConeVector):
        p, scale = unlift(p, shape), 2.0
    else:
        p, scale = np.asarray(p), 1.0
        _check_field(p, shape)
    val, dual, dist2 = _values(x, p, problem, target.x, scale)
    gap = val - dual
    val_hat = target.value
    gap_db = _db(gap, gap0)
    target_db = _db(dist2, target.norm2)
    value_db = _db((val - val_hat) ** 2, val_hat**2) if val_hat != 0.0 else DB_CLAMP
    return IterationRecord(iter, wall_seconds, gap_db, target_db, value_db)
