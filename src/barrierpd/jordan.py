"""Euclidean Jordan algebra of quadratic forms (spin algebra) and products thereof.

An element of the spin algebra is a pair (head, tail) with scalar head and an
m-vector tail.  The Jordan product is

    x o y = (x.y, x0*tail(y) + y0*tail(x)),

the identity is e = (1, 0), and the rank is always 2.  The cone of squares is
the second-order cone {x : head >= ||tail||}.  Throughout this package the
inner product is <x, y> = 2*(x0*y0 + tail(x).tail(y)); all norms, adjoints and
operator norms downstream use this convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpinElement",
    "BlockConeVector",
    "DimensionMismatchError",
    "SingularElementError",
    "SpectralDomainError",
    "identity",
    "jordan_product",
    "inner",
    "norm",
    "spectral",
    "det",
    "trace",
    "inverse",
    "power",
    "quadratic_rep_apply",
    "is_in_cone",
    "is_interior",
    "lambda_min",
    "lambda_max",
]


class DimensionMismatchError(ValueError):
    """Operands live in spin algebras of different dimension."""


class SingularElementError(ArithmeticError):
    """Inverse of an element with (numerically) vanishing determinant."""


class SpectralDomainError(ValueError):
    """Fractional power of an element with a non-positive eigenvalue."""


def _as_tail(tail):
    arr = np.asarray(tail, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("tail must be a vector of dimension >= 1")
    return arr


@dataclass(frozen=True)
class SpinElement:
    """Element of the spin algebra E_{1+m}: scalar head, m-vector tail."""

    head: float
    tail: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "head", float(self.head))
        arr = _as_tail(self.tail).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "tail", arr)

    @property
    def dim(self) -> int:
        return self.tail.size

    def __add__(self, other: "SpinElement") -> "SpinElement":
        _check_dims(self, other)
        return SpinElement(self.head + other.head, self.tail + other.tail)

    def __sub__(self, other: "SpinElement") -> "SpinElement":
        _check_dims(self, other)
        return SpinElement(self.head - other.head, self.tail - other.tail)

    def __mul__(self, scalar) -> "SpinElement":
        return SpinElement(self.head * scalar, self.tail * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpinElement":
        return SpinElement(self.head / scalar, self.tail / scalar)

    def __neg__(self) -> "SpinElement":
        return SpinElement(-self.head, -self.tail)

    def as_array(self) -> np.ndarray:
        return np.concatenate(([self.head], self.tail))

    @classmethod
    def from_array(cls, arr) -> "SpinElement":
        arr = np.asarray(arr, dtype=float)
        return cls(arr[0], arr[1:])

    def __repr__(self):
        return f"SpinElement({self.head!r}, {self.tail!r})"


def identity(m: int) -> SpinElement:
    """The multiplicative unit e = (1, 0) of E_{1+m}."""
    return SpinElement(1.0, np.zeros(m))


def _check_dims(x: SpinElement, y: SpinElement):
    if x.dim != y.dim:
        raise DimensionMismatchError(f"tail dimensions differ: {x.dim} != {y.dim}")


def jordan_product(x, y):
    """Jordan product x o y; commutative, not associative."""
    _check_dims(x, y)
    head = x.head * y.head + float(x.tail @ y.tail)
    return SpinElement(head, x.head * y.tail + y.head * x.tail)


def inner(x, y) -> float:
    """Trace inner product <x, y> = tr(x o y) = 2 x.y."""
    _check_dims(x, y)
    return 2.0 * (x.head * y.head + float(x.tail @ y.tail))


def norm(x) -> float:
    """Frobenius norm induced by the trace inner product."""
    return float(np.sqrt(inner(x, x)))


def _frame_direction(tail: np.ndarray) -> np.ndarray:
    """Unit direction for the Jordan frame; first axis when tail = 0."""
    t = float(np.linalg.norm(tail))
    if t == 0.0:
        u = np.zeros(tail.size)
        u[0] = 1.0
        return u
    return tail / t


def spectral(x: SpinElement):
    """Eigenvalues and Jordan frame: x = lam_p*c_p + lam_m*c_m.

    Returns (lam_p, lam_m, (c_p, c_m)) with lam_pm = head +- ||tail|| and
    c_pm = (1, +-u)/2 for the unit tail direction u.
    """
    t = float(np.linalg.norm(x.tail))
    u = _frame_direction(x.tail)
    c_plus = SpinElement(0.5, 0.5 * u)
    c_minus = SpinElement(0.5, -0.5 * u)
    return x.head + t, x.head - t, (c_plus, c_minus)


def lambda_min(x) -> float:
    if isinstance(x, BlockConeVector):
        return float(np.min(x.heads - np.linalg.norm(x.tails, axis=1)))
    return x.head - float(np.linalg.norm(x.tail))


def lambda_max(x) -> float:
    return x.head + float(np.linalg.norm(x.tail))


def det(x) -> float:
    """Determinant; product of eigenvalues."""
    return x.head**2 - float(x.tail @ x.tail)


def trace(x) -> float:
    return 2.0 * x.head


def inverse(x):
    """Jordan inverse x^-1 = Rx/det(x), R the diagonal mirroring."""
    d = det(x)
    if abs(d) <= 1e-14 * (1.0 + inner(x, x)):
        raise SingularElementError(f"element is singular: det = {d:g}")
    return SpinElement(x.head / d, -x.tail / d)


def power(x, alpha: float):
    """Spectral power x^alpha = lam_p^a c_p + lam_m^a c_m.

    Integer alpha only needs invertibility (for negative exponents);
    fractional alpha needs strictly positive eigenvalues.
    """
    lam_p, lam_m, (c_p, c_m) = spectral(x)
    if alpha != int(alpha):
        if lam_p <= 0.0 or lam_m <= 0.0:
            raise SpectralDomainError(
                f"fractional power of non-positive eigenvalues ({lam_p:g}, {lam_m:g})"
            )
    elif alpha < 0 and (lam_p == 0.0 or lam_m == 0.0):
        raise SingularElementError("negative power of singular element")
    return lam_p**alpha * c_p + lam_m**alpha * c_m


def quadratic_rep_apply(p, y):
    """Apply the quadratic presentation: Q_p y = 2 p o (p o y) - (p o p) o y."""
    _check_dims(p, y)
    return 2.0 * jordan_product(p, jordan_product(p, y)) - jordan_product(
        jordan_product(p, p), y
    )


def is_in_cone(x, tol: float = 0.0) -> bool:
    """Second-order cone membership, lam_min >= -tol (all blocks)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return lambda_min(x) >= -tol


def is_interior(x, tol: float = 0.0) -> bool:
    """Strict cone interior, lam_min > tol (all blocks)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return lambda_min(x) > tol


class BlockConeVector:
    """Element of a finite product of spin algebras with uniform block dimension.

    Stored as arrays heads (n,) and tails (n, m) for n blocks of E_{1+m}; this
    covers both the per-pixel product cone of TV (n blocks of E_{1+2}) and the
    single big cone of H1 (one block).  Mixed block dimensions are not
    supported.  from_arrays copies, so its values are immutable after
    construction; view_of shares the caller's arrays through read-only views.
    It carries the interior solver's dual iterates and has no algebra of its
    own: lambda_min, and through it is_in_cone and is_interior, are the only
    operations that take it, vectorised over blocks.
    """

    __slots__ = ("heads", "tails")

    @classmethod
    def from_arrays(cls, heads, tails) -> "BlockConeVector":
        """Vector holding copies of heads (n,) and tails (n, m), each laid out in memory as its source is.

        A copy of pedi's planar tails stays planar, so that unlift's field
        of it is a C-contiguous view, which the kernels take.
        """
        return cls.view_of(np.array(heads, dtype=float), np.array(tails, dtype=float, order="K"))

    @classmethod
    def view_of(cls, heads, tails) -> "BlockConeVector":
        """Vector over read-only views of heads (n,) and tails (n, m), no copy.

        It reads whatever the arrays hold, so it changes when their owner
        writes to them.
        """
        heads = np.asarray(heads, dtype=float)
        tails = np.asarray(tails, dtype=float)
        if heads.ndim != 1 or tails.ndim != 2 or tails.shape[0] != heads.size:
            raise ValueError("heads must be (n,), tails (n, m)")
        if heads.size < 1 or tails.shape[1] < 1:
            raise ValueError("need at least one block with tail dimension >= 1")
        obj = cls.__new__(cls)
        obj.heads = heads.view()
        obj.tails = tails.view()
        obj.heads.flags.writeable = False
        obj.tails.flags.writeable = False
        return obj

    @property
    def n_blocks(self) -> int:
        return self.heads.size

    def __repr__(self):
        return f"BlockConeVector(n_blocks={self.n_blocks}, m={self.tails.shape[1]})"

