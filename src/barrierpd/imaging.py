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
* D and D* (_grad, _grad_adjoint) run each axis-1 difference as one
  shifted pass over the flattened (n1, n2) plane, which is several times
  faster than 2-d column slices and rounds every element the same way.  An
  out= array (or its plane) must therefore flatten to a view: one that
  would need a copy raises ValueError rather than leaving out
  unwritten.  The compiled kernels (barrierpd.kernels) take only the stages
  the solver loops and the logged metrics run, each one call over
  C-contiguous float64 buffers, split across threads on large images and
  bit-identical to the numpy code, which runs on the numpy path, for any
  array a kernel rejects and for every one-off evaluation that shares no
  loop's kernel (D alone, D* alone, a projection into another out).  D*'s
  kernel makes dual_fb's z - D* p, which dual_value shares, and pdhgm's
  prox and extrapolation.  The lifted K*'s kernel call makes pedi's whole
  primal step, x - tau K* y, its prox and ||x||^2 (apply_K_adjoint's
  primal=), storing nothing but the new x.  The baselines' whole dual step,
  the projection of the ascent p + s D v (project_dual's ascent= in
  place), is one kernel call that stores no ascent: on TV one pass, on H1
  a sum of the ascent's squares formed on the fly before the pass that
  writes p.  The lifted K's kernel call makes pedi's dual solve and the soc
  rule's minimum of the tail norms (apply_K's dual=): on TV in the same
  pass, on H1 by summing the squares of K x formed on the fly before a
  pass that writes y.  So no loop stores D v, and K x is stored only on
  pedi's final iteration.  The operators pedi_run calls hand the kernels
  the solver's own buffers, flat primal vectors included, and make no view
  a kernel does not need, so each costs its kernel call and little
  more.  The compiled sums -- metrics' four, pedi's ||x||^2, H1's ascent
  norm and dual-solve norm, and H1's regularizer, which sums the squares
  of a gradient it never stores -- add their terms in numpy's pairwise
  summation order; all but metrics' split across threads by the subtrees
  of that order, which changes no bit;
* H1's global norm is sqrt(sum g^2) over the planar field, summed in
  component-major order whatever the field's strides, so its roundoff
  depends on neither the strides nor BLAS;
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
  a BlockConeVector; unlift and DenoiseProblem.unlifted_dual read its tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import kernels
from .jordan import BlockConeVector
from .pedi import SaddleProblem, _sumsq

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


def _flat(a: np.ndarray) -> np.ndarray:
    """1-d view of an output array; ValueError if flattening it would copy."""
    # the flags test spares contiguous arrays np.reshape's argument parsing
    return a.reshape(-1) if a.flags.c_contiguous else np.reshape(a, -1, copy=False)


def _grad(
    values: np.ndarray,
    out: Optional[np.ndarray] = None,
    scale: float = 1.0,
    addend: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient of an (n1, n2) array as a planar (2, n1, n2) field, into out if given.

    The axis-1 difference is one shifted pass over the flattened plane; the
    entries it computes across row ends fall in the last column, which the
    Neumann boundary then zeroes.  out is then (D values) scale, plus a
    planar addend p if given: the baselines' dual ascent, which this numpy
    code makes for DenoiseProblem.project_dual's reference and fallback.
    It is numpy code only: no loop stores D v, and the kernels that need
    it (pedi's dual step, the baselines' projections, the metric and H1
    sums) form it on the fly with these operations.
    """
    if out is None:
        out = np.empty((2,) + values.shape)
    g1f = _flat(out[1])
    vf = values.reshape(-1)
    np.subtract(values[1:, :], values[:-1, :], out=out[0, :-1, :])
    out[0, -1, :] = 0.0
    np.subtract(vf[1:], vf[:-1], out=g1f[:-1])
    out[1, :, -1] = 0.0
    if scale != 1.0:
        out *= scale
    if addend is not None:
        out += addend
    return out


def _grad_adjoint(
    planes: np.ndarray,
    out: Optional[np.ndarray] = None,
    scale: float = 1.0,
    minuend: Optional[np.ndarray] = None,
    step: float = 1.0,
    z: Optional[np.ndarray] = None,
    x_bar: Optional[np.ndarray] = None,
    theta: float = 0.0,
) -> np.ndarray:
    """scale times the adjoint of _grad on a planar (2, n1, n2) field, an (n1, n2) array, into out if given.

    The axis-1 terms are two shifted passes over the flattened plane, each
    of which also reaches one column it must leave alone (column 0 across
    row ends, then the last column); that column is saved before the pass
    and restored after it.  Every element sees the same operations in the
    same order as the 2-d column slices, so the result is exact for any
    field, whatever its boundary columns hold.  The product with scale comes
    last; with an (n1, n2) minuend m, which must not overlap out, out is
    then m minus that product times step: pedi's x - tau K* y (the
    reference of its fused primal step), and dual_fb's x = z - D* p and
    dual_value's z - D* p.  With z and x_bar as well, out is then pdhgm's
    primal step, the prox ((m - step D* p) + z step) / (1 + step) of that
    point, and x_bar its extrapolation (out - m) theta + out; x_bar may
    overlap no other argument.  out, the minuend, z and x_bar may also be
    flat, the row-major flattening of an (n1, n2) array.  The compiled
    kernel runs the two forms the baselines' loops take, in D*'s pass:
    m - D* p (scale and step 1) and pdhgm's step (scale 1).  Every other
    form is numpy code only.
    """
    if out is None:
        out = np.empty(planes.shape[1:])
    if kernels.PATH == "c" and minuend is not None and scale == 1.0:
        try:
            if z is not None:
                kernels.ext.grad_adjoint(planes, out, minuend, z, x_bar, step, theta)
                return out
            if step == 1.0:
                kernels.ext.grad_adjoint(planes, out, minuend)
                return out
        except ValueError:
            pass
    g0, g1 = planes[0], planes[1]
    flat = out
    out = out.reshape(g0.shape) if out.ndim == 1 else out
    of = _flat(out)
    g1f = g1.reshape(-1)
    out[0, :] = 0.0
    out[1:, :] = g0[:-1, :]
    out[:-1, :] -= g0[:-1, :]
    edge = out[:, 0].copy()
    of[1:] += g1f[:-1]
    out[:, 0] = edge
    edge[:] = out[:, -1]
    of -= g1f
    out[:, -1] = edge
    if scale != 1.0:
        out *= scale
    if minuend is not None:
        if step != 1.0:
            out *= step
        np.subtract(minuend.reshape(out.shape), out, out=out)
        if z is not None:
            xb = x_bar.reshape(out.shape)
            np.multiply(z.reshape(out.shape), step, out=xb)
            out += xb
            out /= 1.0 + step
            np.subtract(out, minuend.reshape(out.shape), out=xb)
            xb *= theta
            xb += out
    return flat


def _check_field(p: np.ndarray, shape) -> None:
    """ValueError unless the array p is a planar (2, n1, n2) dual field on the (n1, n2) grid shape."""
    if p.shape != (2,) + shape:
        raise ValueError(f"a dual field on this grid is a planar {(2,) + shape} array, got shape {p.shape}")


def _field_norm(planes: np.ndarray) -> float:
    """Euclidean norm of a planar field, sqrt(sum g^2) summed in (2, n1, n2) element order.

    The order fixes the roundoff of the H1 regularizer and of the H1 dual
    projection, and it is the same whatever the strides of planes: _sumsq
    adds the squares of a contiguous field as they lie, in numpy's pairwise
    order, and those of any other field from a contiguous copy.
    """
    return math.sqrt(_sumsq(planes))


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

        With the compiled kernels H1's is one pass that sums the squares of
        the gradient as it forms them, and allocates nothing.
        """
        v = np.asarray(x, dtype=float).reshape(self.shape)
        if self.variant == "h1" and kernels.PATH == "c":
            try:
                # _field_norm(_grad(v)) bit for bit, with no field stored
                return math.sqrt(kernels.ext.grad_sumsq(v))
            except ValueError:
                pass
        g = _grad(v)
        if self.variant == "tv":
            norms = np.einsum("kij,kij->ij", g, g)
            return float(np.sqrt(norms, out=norms).sum())
        return _field_norm(g)

    def objective(self, x: np.ndarray) -> float:
        r = np.subtract(x, self.z.flat())
        return 0.5 * float(np.square(r, out=r).sum()) + self.alpha * self.regularizer(x)

    def dual_value(self, p: np.ndarray) -> float:
        """Dual objective (1/2)||z||^2 - (1/2)||z - D* p||^2 at a planar (2, n1, n2) field p.

        (1/2)||z||^2 is the cached half_z2, and z - D* p is _grad_adjoint's
        minuend form, the one dual_fb's loop takes.
        """
        p = np.asarray(p, dtype=float)
        _check_field(p, self.shape)
        r = _grad_adjoint(p, minuend=self.z.values).reshape(-1)
        return self.half_z2 - 0.5 * float(np.square(r, out=r).sum())

    def duality_gap(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.objective(x) - self.dual_value(p)

    def project_dual(
        self,
        p: np.ndarray,
        out: Optional[np.ndarray] = None,
        ascent: Optional[tuple] = None,
    ) -> np.ndarray:
        """Project a planar (2, n1, n2) field p onto the dual constraint ||p|| <= alpha.

        Per-pixel for TV, globally for H1.  Writes into out, a field of the
        same shape that may be p itself, if given.  With ascent = (v, s), v
        an (n1, n2) image and s a step, it projects the ascent p + s D v
        instead, formed as _grad(v, scale=s, addend=p) forms it: the
        baselines' whole dual step.  Only that step in place, out=p, calls a
        kernel, which stores no ascent: one pass on TV, and on H1 a sum of
        the ascent's squares formed on the fly followed by the write.  Every
        other call, and the numpy path, take the numpy reference: the
        ascent in a field of its own, then its projection.
        """
        in_place = out is p
        p = np.asarray(p, dtype=float)
        _check_field(p, self.z.values.shape)
        if out is None:
            out = np.empty(p.shape)
        elif not in_place:
            _check_field(out, self.z.values.shape)
        # flooring the norm at alpha caps alpha/norm at 1 without a second
        # pass, and rounds exactly like min(1, alpha/max(norm, 1e-300))
        floor = max(self.alpha, 1e-300)
        if ascent is not None:
            v, s = ascent
            if in_place and kernels.PATH == "c":
                try:
                    if self.variant == "tv":
                        kernels.ext.project_tv(v, out, self.alpha, floor, s)
                    else:
                        kernels.ext.project_h1(v, out, self.alpha, s)
                    return out
                except ValueError:
                    pass
            p = _grad(v, scale=s, addend=p)
        if self.variant == "tv":
            scale = np.einsum("kij,kij->ij", p, p)
            np.sqrt(scale, out=scale)
            np.maximum(scale, floor, out=scale)
            np.divide(self.alpha, scale, out=scale)
            np.multiply(p, scale, out=out)
        else:
            nrm = _field_norm(p)
            if nrm <= self.alpha:
                np.copyto(out, p)
            else:
                np.multiply(p, self.alpha / nrm, out=out)
        return out

    # ----- conic form ----------------------------------------------------

    def saddle_problem(self) -> SaddleProblem:
        """Lifted conic saddle-point form consumed by the interior solver.

        The per-block constraint is <e, y> = b0 with b0 = alpha: in the trace
        inner product this fixes head(y) = alpha/2, and the coupling
        <Kx, y> = 2 (Dx).tail(y) then represents alpha R(x) exactly.  apply_K
        returns the tails of K x, the planar gradient buffer viewed as an
        (n_blocks, m) array; the adjoint is K* y = 2 D* tail(y) on such an
        array.  Each operator writes into out= when given: for apply_K an
        array returned by an earlier apply_K call (or np.empty_like of one),
        for apply_K_adjoint and prox_G a contiguous primal vector, which for
        prox_G must not overlap v.  apply_K with a pedi.DualSolve also does
        that dual solve.  With the compiled kernels it is K's own call,
        which never stores K x unless dual.keep: tv_dual on TV forms each
        block's tail and solves it in one pass; h1_dual on H1 sums the one
        block's squared norm over K x formed on the fly, solves for the
        block and then writes y.  Otherwise apply_K runs dual.solve, the
        reference, on the K x it wrote.  The views that call takes are made
        on the first iteration and kept in dual.operands with the out they
        came from, so a run makes them once.  apply_K_adjoint with a
        pedi.PrimalStep takes pedi's whole primal step on the x given as
        out: x = prox_G(x - tau K* y, tau) and ||x||^2 of the new x.  With
        the compiled kernels it is one call, primal_step, which writes
        nothing but x; otherwise, and for arrays the kernel rejects, it runs
        the reference, K* with x as the minuend into the record's buffer,
        prox_G back into x and pedi._sumsq, whose results are the kernel's
        bit for bit.  y's planar view is kept in primal.operands, the
        per-run record, and never on the problem.  prox_G is numpy code;
        pedi_run reaches it only through that reference.
        opnorm_K = sqrt(2) opnorm_D, an upper bound on ||K|| since opnorm_D
        is one with a margin far above the roundoff of that product.
        """
        n1, n2 = self.shape
        n = self.n_pixels
        m, n_blocks = (2, n) if self.variant == "tv" else (2 * n, 1)
        zf = self.z.flat()

        def planes_of(out):
            """(tails, planes): out, or a new tails array if None, and its planar (2, n1, n2) view."""
            if out is None:
                planes = np.empty((2, n1, n2))
                return planes.reshape(m, n_blocks).T, planes
            if out.shape != (n_blocks, m) or not out.T.flags.c_contiguous:
                raise ValueError("out must be a tails array returned by apply_K")
            return out, out.T.reshape(2, n1, n2)

        def apply_K(x, out=None, dual=None):
            if dual is not None and kernels.PATH == "c":
                ops = dual.operands
                if ops is None or ops[0] is not out:
                    out, planes = planes_of(out)
                    d0, y_tails = dual.buffers(out)
                    # y's planar view on TV, the one (1, 2 n) tail on H1
                    ops = dual.operands = (out, planes, d0, y_tails.T if m == 2 else y_tails)
                try:
                    # the least squared tail norm: TV's minimum, H1's one norm
                    fused = kernels.ext.tv_dual if m == 2 else kernels.ext.h1_dual
                    dual.minimum = fused(x, *ops[1:], dual.b0, dual.mu, dual.keep)
                    return ops[0]
                except ValueError:
                    pass
            out, planes = planes_of(out)
            _grad(x.reshape(n1, n2), out=planes)
            if dual is not None:
                dual.solve(out)
            return out

        def apply_K_adjoint(y_tails, out=None, primal=None):
            if out is None and primal is None:
                out = np.empty(n)
            elif out is None or out.shape != (n,) or not out.flags.c_contiguous:
                raise ValueError("out must be a contiguous primal vector")
            if primal is None:
                return _grad_adjoint(y_tails.T.reshape(2, n1, n2), out, 2.0)
            ops = primal.operands
            if ops is None or ops[0] is not y_tails:
                ops = primal.operands = (y_tails, y_tails.T.reshape(2, n1, n2))
            tau = primal.tau
            if kernels.PATH == "c":
                try:
                    primal.norm2 = kernels.ext.primal_step(ops[1], zf, out, tau)
                    return out
                except ValueError:
                    pass
            v = primal.buffer(out)
            _grad_adjoint(ops[1], v, 2.0, out, tau)
            prox_G(v, tau, out=out)
            primal.norm2 = _sumsq(out)
            return out

        def prox_G(v, tau, out=None):
            if out is not None and np.may_share_memory(out, v):
                raise ValueError("prox_G cannot write over v")
            out = np.multiply(zf, tau, out=out)
            out += v
            out /= 1.0 + tau
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

    def unlifted_dual(self, y: BlockConeVector, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Portable dual field p = 2 tail(y), planar (2, n1, n2); satisfies ||p|| <= alpha.

        Writes into out, a planar field, if given.  The product with 2 is
        exact, so it is one numpy multiplication on any path.
        """
        shape = self.z.values.shape
        if out is not None:
            _check_field(out, shape)
        return np.multiply(unlift(y, shape), 2.0, out=out)


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


@dataclass(frozen=True)
class IterationRecord:
    """One logged solver iteration, dB values clamped at DB_CLAMP and NaN where the metric is NaN."""

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


def _metric_sums(x, p, problem: DenoiseProblem, target: Target):
    """metrics' four sums in one compiled pass; None when the kernels are off or reject an array.

    Returns (sum (x - z)^2, R(x), sum (z - D* p)^2, sum (x - target.x)^2),
    each equal to the numpy code's: the kernel forms every term with that
    code's operations and adds the terms in numpy's pairwise order.  p is
    a planar (2, n1, n2) field.  H1's R(x) is regularizer(x), whose planar
    sum of squares fixes its roundoff.
    """
    if kernels.PATH != "c":
        return None
    tv = problem.variant == "tv"
    try:
        xz2, reg, zp2, dist2 = kernels.ext.metric_sums(x, problem.z.flat(), target.x, p, tv)
    except ValueError:
        return None
    if not tv:
        reg = problem.regularizer(x)
    return xz2, reg, zp2, dist2


def metrics(
    x: np.ndarray,
    p: np.ndarray,
    problem: DenoiseProblem,
    target: Target,
    gap0: float,
    iter: int = 0,
    wall_seconds: float = 0.0,
) -> IterationRecord:
    """Per-iteration error report against a precomputed target solution.

    p is the unlifted dual field, planar (2, n1, n2) (use
    DenoiseProblem.unlifted_dual for interior-solver iterates, whose exact
    feasibility keeps the gap finite); any other shape raises ValueError.
    gap_db is the duality gap relative to gap0, target_db the squared
    distance to target.x relative to ||target.x||^2, value_db the squared
    relative objective error.  The objective at x is evaluated once and
    serves both the gap and value_db; the dual value uses the problem's
    cached (1/2)||z||^2 (DenoiseProblem.half_z2).

    With the compiled kernels and a C-contiguous float64 p (as every
    solver's callback passes) the four sums behind these numbers come from
    one pass that allocates no image-sized array; otherwise objective,
    dual_value and a residual compute them.  Both give the same record bit
    for bit.
    """
    if not 0.0 < gap0 < math.inf:
        raise ValueError("gap0 must be positive and finite")
    p = np.asarray(p)
    _check_field(p, problem.z.values.shape)
    sums = _metric_sums(x, p, problem, target)
    if sums is None:
        val = problem.objective(x)
        dual = problem.dual_value(p)
        r = np.subtract(x, target.x)
        dist2 = float(np.square(r, out=r).sum())
    else:
        # the scalar expressions of objective and dual_value
        xz2, reg, zp2, dist2 = sums
        val = 0.5 * xz2 + problem.alpha * reg
        dual = problem.half_z2 - 0.5 * zp2
    gap = val - dual
    val_hat = target.value
    gap_db = _db(gap, gap0)
    target_db = _db(dist2, target.norm2)
    value_db = _db((val - val_hat) ** 2, val_hat**2) if val_hat != 0.0 else DB_CLAMP
    return IterationRecord(iter, wall_seconds, gap_db, target_db, value_db)
