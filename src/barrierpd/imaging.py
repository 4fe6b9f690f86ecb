"""Denoising problem construction: discrete gradient, cone lifting, metrics.

Conventions fixed here and relied on by every solver:

* pixels are row-major; an image is a (n1, n2) array, a primal vector its
  row-major flattening;
* the discrete gradient uses forward differences with Neumann boundary
  (last difference along each axis is zero).  Gradient fields are stored
  planar, as (2, n1, n2) arrays with plane 0 the axis-0 difference and
  plane 1 the axis-1 difference; the solvers allocate these buffers once and
  update them in place (``out=``).  The public (n1, n2, 2) field is the view
  G.transpose(1, 2, 0) of a planar buffer G;
* D and D* (_grad, _grad_adjoint) run each axis-1 difference as one shifted
  pass over the flattened (n1, n2) plane, which is several times faster than
  2-d column slices and rounds every element the same way.  An out= array
  (or its plane) must therefore flatten to a view: one that would need a
  copy raises ValueError rather than leaving out unwritten.  With the
  compiled kernels (barrierpd.kernels) each of them, K*'s factor 2, the
  prox, the TV projection and the elementwise passes of the H1 projection
  and norm is one pass over C-contiguous float64 buffers, split across
  threads on large images and bit-identical to the numpy passes, which run
  for any other array;
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
        """Row-major flattening to a primal vector: a read-only view, no copy."""
        return self.values.reshape(-1)


def _flat(a: np.ndarray) -> np.ndarray:
    """1-d view of an output array; ValueError if flattening it would copy."""
    # the flags test spares contiguous arrays np.reshape's argument parsing
    return a.reshape(-1) if a.flags.c_contiguous else np.reshape(a, -1, copy=False)


def _grad(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gradient of an (n1, n2) array as a planar (2, n1, n2) field, into out if given.

    The axis-1 difference is one shifted pass over the flattened plane; the
    entries it computes across row ends fall in the last column, which the
    Neumann boundary then zeroes.  The compiled kernel makes the same passes.
    """
    if out is None:
        out = np.empty((2,) + values.shape)
    if kernels.PATH == "c":
        try:
            kernels.ext.grad(values, out)
            return out
        except ValueError:
            pass
    g1f = _flat(out[1])
    vf = values.reshape(-1)
    np.subtract(values[1:, :], values[:-1, :], out=out[0, :-1, :])
    out[0, -1, :] = 0.0
    np.subtract(vf[1:], vf[:-1], out=g1f[:-1])
    out[1, :, -1] = 0.0
    return out


def _grad_adjoint(planes: np.ndarray, out: Optional[np.ndarray] = None, scale: float = 1.0) -> np.ndarray:
    """scale times the adjoint of _grad on a planar (2, n1, n2) field, an (n1, n2) array, into out if given.

    The axis-1 terms are two shifted passes over the flattened plane, each
    of which also reaches one column it must leave alone (column 0 across
    row ends, then the last column); that column is saved before the pass
    and restored after it.  Every element sees the same operations in the
    same order as the 2-d column slices, so the result is exact for any
    field, whatever its boundary columns hold.  The product with scale comes
    last; the compiled kernel makes it in the same pass.
    """
    g0, g1 = planes[0], planes[1]
    if out is None:
        out = np.empty(g0.shape)
    if kernels.PATH == "c":
        try:
            kernels.ext.grad_adjoint(planes, out, scale)
            return out
        except ValueError:
            pass
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
    return out


def _planes(gfield: np.ndarray) -> np.ndarray:
    """Planar (2, n1, n2) view of an (n1, n2, 2) field."""
    return gfield.transpose(2, 0, 1)


def _field(planes: np.ndarray) -> np.ndarray:
    """(n1, n2, 2) field view of a planar (2, n1, n2) array."""
    return planes.transpose(1, 2, 0)


def _field_norm(planes: np.ndarray) -> float:
    """Euclidean norm of a planar field, summed in (n1, n2, 2) element order.

    The order fixes the roundoff of the H1 regularizer and of the H1 dual
    projection.  The planes are interleaved into a copy whose norm BLAS
    takes (np.linalg.norm), so that roundoff also depends on the BLAS and
    its thread count.  The compiled kernel makes the copy, split across
    threads like every kernel; otherwise np.stack interleaves it plane by plane,
    several times faster than reshaping the field view, whose copy gathers
    across planes.
    """
    if kernels.PATH == "c":
        flat = np.empty(planes.size)
        try:
            kernels.ext.interleave(planes, flat)
            return float(np.linalg.norm(flat))
        except ValueError:
            pass
    return float(np.linalg.norm(np.stack((planes[0], planes[1]), axis=-1).reshape(-1)))


def unlift(y: BlockConeVector, shape) -> np.ndarray:
    """The (n1, n2, 2) gradient field carried by the tails of y, discarding heads.

    Inverts the layout of apply_K: a view of y.tails where the layout allows.
    """
    n1, n2 = shape
    expected = n1 * n2 * 2
    if y.tails.size != expected:
        raise ValueError(f"block vector carries {y.tails.size} tail entries, expected {expected}")
    return _field(y.tails.T.reshape(2, n1, n2))


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
    _half_z2: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        _check_variant(self.variant)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

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
        """R(x): TV or H1 seminorm of the image x (flat vector)."""
        g = _grad(np.asarray(x, dtype=float).reshape(self.shape))
        if self.variant == "tv":
            norms = np.einsum("kij,kij->ij", g, g)
            return float(np.sqrt(norms, out=norms).sum())
        return _field_norm(g)

    def objective(self, x: np.ndarray) -> float:
        r = np.subtract(x, self.z.flat())
        return 0.5 * float(np.square(r, out=r).sum()) + self.alpha * self.regularizer(x)

    def dual_value(self, p: np.ndarray) -> float:
        """Dual objective (1/2)||z||^2 - (1/2)||z - D* p||^2 at a field p.

        (1/2)||z||^2 is the cached half_z2.
        """
        planes = _planes(np.asarray(p, dtype=float).reshape(self.shape + (2,)))
        r = _grad_adjoint(planes).reshape(-1)
        np.subtract(self.z.flat(), r, out=r)
        return self.half_z2 - 0.5 * float(np.square(r, out=r).sum())

    def duality_gap(self, x: np.ndarray, p: np.ndarray) -> float:
        return self.objective(x) - self.dual_value(p)

    def project_dual(self, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Project a field (n1, n2, 2) onto the dual constraint ||p|| <= alpha.

        Per-pixel for TV, globally for H1.  Writes into out, a field of the
        same shape that may be p itself, if given; planar-backed fields
        (views of (2, n1, n2) buffers) are the fast layout.
        """
        p = np.asarray(p, dtype=float).reshape(self.shape + (2,))
        planes = _planes(p)
        out_planes = np.empty(planes.shape) if out is None else _planes(out)
        result = _field(out_planes) if out is None else out
        if self.variant == "tv":
            # flooring the norm at alpha caps alpha/norm at 1 without a
            # second pass, and rounds exactly like min(1, alpha/max(norm, 1e-300))
            floor = max(self.alpha, 1e-300)
            if kernels.PATH == "c":
                try:
                    kernels.ext.project_tv(planes, out_planes, self.alpha, floor)
                    return result
                except ValueError:
                    pass
            scale = np.einsum("kij,kij->ij", planes, planes)
            np.sqrt(scale, out=scale)
            np.maximum(scale, floor, out=scale)
            np.divide(self.alpha, scale, out=scale)
            np.multiply(planes, scale, out=out_planes)
        else:
            nrm = _field_norm(planes)
            inside = nrm <= self.alpha
            if kernels.PATH == "c":
                try:
                    # scale copies when its factor is 1, as copyto does
                    kernels.ext.scale(planes, out_planes, 1.0 if inside else self.alpha / nrm)
                    return result
                except ValueError:
                    pass
            if inside:
                np.copyto(out_planes, planes)
            else:
                np.multiply(planes, self.alpha / nrm, out=out_planes)
        return result

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
        prox_G must not overlap v.  opnorm_K = sqrt(2) opnorm_D, an upper
        bound on ||K|| since opnorm_D is one with a margin far above the
        roundoff of that product.
        """
        n1, n2 = self.shape
        m, n_blocks = (2, self.n_pixels) if self.variant == "tv" else (2 * self.n_pixels, 1)
        zf = self.z.flat()

        def apply_K(x, out=None):
            planes = None
            if out is not None:
                if out.shape != (n_blocks, m) or not out.T.flags.c_contiguous:
                    raise ValueError("out must be a tails array returned by apply_K")
                planes = out.T.reshape(2, n1, n2)
            return _grad(x.reshape(n1, n2), out=planes).reshape(m, n_blocks).T

        def apply_K_adjoint(y_tails, out=None):
            if out is None:
                out = np.empty(self.n_pixels)
            elif out.shape != (self.n_pixels,) or not out.flags.c_contiguous:
                raise ValueError("out must be a contiguous primal vector")
            _grad_adjoint(y_tails.T.reshape(2, n1, n2), out=out.reshape(n1, n2), scale=2.0)
            return out

        def prox_G(v, tau, out=None):
            if out is not None and np.may_share_memory(out, v):
                raise ValueError("prox_G cannot write over v")
            if kernels.PATH == "c":
                if out is None:
                    out = np.empty(self.n_pixels)
                try:
                    kernels.ext.prox(zf, v, out, tau)
                    return out
                except ValueError:
                    pass
            out = np.multiply(zf, tau, out=out)
            out += v
            out /= 1.0 + tau
            return out

        opnorm_K = math.sqrt(2.0) * self.opnorm_D
        return SaddleProblem(
            primal_dim=self.n_pixels,
            apply_K=apply_K,
            apply_K_adjoint=apply_K_adjoint,
            prox_G=prox_G,
            gamma=1.0,
            b0=self.alpha,
            opnorm_K=opnorm_K,
            primal_bound_hint=float(np.linalg.norm(zf)) + 1.0,
        )

    def unlifted_dual(self, y: BlockConeVector, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Portable dual field p = 2 tail(y); satisfies ||p|| <= alpha.

        Writes into out, an (n1, n2, 2) field, if given; planar-backed fields
        (views of (2, n1, n2) buffers) are the fast layout.
        """
        return np.multiply(unlift(y, self.shape), 2.0, out=out)


def add_gaussian_noise(img: ImageGrid, sigma: float, seed: int) -> ImageGrid:
    """Additive i.i.d. Gaussian noise from numpy's PCG64 generator.

    The seed is mandatory: identical (image, sigma, seed) gives identical
    output on any platform with the same numpy generator algorithm.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if seed is None:
        raise ValueError("seed is mandatory")
    if sigma == 0:
        return img
    rng = np.random.default_rng(seed)
    return ImageGrid(img.values + sigma * rng.standard_normal(img.shape))


def synthetic_image(n1: int, n2: int) -> ImageGrid:
    """Deterministic smooth test pattern in [0, 255]: ramp plus a Gaussian bump.

    Used by the test-suite and as a stand-in when no photograph is at hand;
    any grayscale PGM works equally well with the CLI.
    """
    i = np.arange(n1)[:, None] / max(n1 - 1, 1)
    j = np.arange(n2)[None, :] / max(n2 - 1, 1)
    ramp = 0.55 * i + 0.25 * j
    bump = 0.6 * np.exp(-(((i - 0.4) ** 2 + (j - 0.6) ** 2) / 0.05))
    vals = ramp + bump
    return ImageGrid(255.0 * (vals - vals.min()) / (vals.max() - vals.min()))


@dataclass(frozen=True)
class IterationRecord:
    """One logged solver iteration, dB values clamped at DB_CLAMP."""

    iter: int
    wall_seconds: float
    gap_db: float
    target_db: float
    value_db: float


def _db(ratio_num: float, ratio_den: float) -> float:
    if ratio_num <= 0.0 or ratio_den <= 0.0:
        return DB_CLAMP
    return max(DB_CLAMP, 10.0 * math.log10(ratio_num / ratio_den))


@dataclass(frozen=True)
class Target:
    """The per-run constants of metrics: a target solution x, ||x||^2 and its objective value."""

    x: np.ndarray
    norm2: float
    value: float

    @classmethod
    def of(cls, problem: DenoiseProblem, x: np.ndarray) -> "Target":
        x = np.asarray(x, dtype=float)
        norm2 = float(np.sum(x**2))
        if norm2 == 0.0:
            raise ValueError("degenerate target: ||target_x|| = 0")
        return cls(x=x, norm2=norm2, value=problem.objective(x))


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

    p is the unlifted dual field (use DenoiseProblem.unlifted_dual for
    interior-solver iterates, whose exact feasibility keeps the gap finite).
    gap_db is the duality gap relative to gap0, target_db the squared
    distance to target.x relative to ||target.x||^2, value_db the squared
    relative objective error.  The objective at x is evaluated once and
    serves both the gap and value_db; the dual value uses the problem's
    cached (1/2)||z||^2 (DenoiseProblem.half_z2).
    """
    if gap0 <= 0.0:
        raise ValueError("gap0 must be positive")
    val = problem.objective(x)
    gap = val - problem.dual_value(p)
    val_hat = target.value
    gap_db = _db(gap, gap0)
    r = np.subtract(x, target.x)
    target_db = _db(float(np.square(r, out=r).sum()), target.norm2)
    value_db = _db((val - val_hat) ** 2, val_hat**2) if val_hat != 0.0 else DB_CLAMP
    return IterationRecord(iter=iter, wall_seconds=wall_seconds, gap_db=gap_db, target_db=target_db, value_db=value_db)
