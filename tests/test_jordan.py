import numpy as np
import pytest

from barrierpd.jordan import (
    BlockConeVector,
    DimensionMismatchError,
    SingularElementError,
    SpectralDomainError,
    SpinElement,
    det,
    identity,
    inner,
    inverse,
    is_in_cone,
    is_interior,
    jordan_product,
    lambda_max,
    lambda_min,
    norm,
    power,
    quadratic_rep_apply,
    spectral,
    trace,
)
from conftest import rand_spin


def test_product_commutes_and_identity(rng):
    for m in (1, 3, 7):
        x = rand_spin(rng, m)
        y = rand_spin(rng, m)
        xy = jordan_product(x, y)
        yx = jordan_product(y, x)
        assert np.allclose(xy.as_array(), yx.as_array())
        assert np.allclose(jordan_product(x, identity(m)).as_array(), x.as_array())


def test_product_not_associative():
    # (x o x) o y != x o (x o y) in general -- guard against accidentally
    # implementing a matrix product
    x = SpinElement(1.0, np.array([2.0, 0.0]))
    y = SpinElement(0.0, np.array([0.0, 3.0]))
    lhs = jordan_product(jordan_product(x, x), y)
    rhs = jordan_product(x, jordan_product(x, y))
    assert not np.allclose(lhs.as_array(), rhs.as_array())


def test_fundamental_formula(rng):
    # x^2 o (x o y) = x o (x^2 o y) holds for every pair
    for _ in range(200):
        m = int(rng.integers(1, 9))
        x = rand_spin(rng, m)
        y = rand_spin(rng, m)
        x2 = jordan_product(x, x)
        lhs = jordan_product(x2, jordan_product(x, y))
        rhs = jordan_product(x, jordan_product(x2, y))
        assert np.allclose(lhs.as_array(), rhs.as_array(), atol=1e-12 * (1 + norm(x) ** 3 * norm(y)))


def test_dim_mismatch_rejected():
    x = SpinElement(1.0, np.zeros(2))
    y = SpinElement(1.0, np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        jordan_product(x, y)
    with pytest.raises(DimensionMismatchError):
        inner(x, y)


def test_inner_product_factor():
    e = identity(4)
    assert inner(e, e) == 2.0  # = trace(e)
    assert trace(e) == 2.0
    x = SpinElement(3.0, np.array([1.0, 2.0]))
    assert inner(x, x) == 2.0 * (9.0 + 5.0)


def test_spectral_reconstruction(rng):
    for _ in range(50):
        x = rand_spin(rng, 5)
        lam_p, lam_m, (c_p, c_m) = spectral(x)
        recon = lam_p * c_p + lam_m * c_m
        assert np.allclose(recon.as_array(), x.as_array())
        # frame: idempotent, orthogonal, sums to e
        assert np.allclose(jordan_product(c_p, c_p).as_array(), c_p.as_array())
        assert norm(jordan_product(c_p, c_m)) < 1e-14
        assert np.allclose((c_p + c_m).as_array(), identity(5).as_array())
        assert lam_p >= lam_m
        assert lam_p == lambda_max(x) and lam_m == lambda_min(x)


def test_spectral_tie_break_on_zero_tail():
    # multiple of the identity: frame direction fixed to the first tail axis
    x = SpinElement(3.0, np.zeros(4))
    _, _, (c_p, _) = spectral(x)
    assert c_p.tail[0] == 0.5
    assert np.all(c_p.tail[1:] == 0.0)


def test_det_trace_eigenvalues(rng):
    for _ in range(50):
        x = rand_spin(rng, 3)
        lam_p, lam_m, _ = spectral(x)
        assert det(x) == pytest.approx(lam_p * lam_m, rel=1e-12, abs=1e-12)
        assert trace(x) == pytest.approx(lam_p + lam_m)


def test_inverse(rng):
    for _ in range(50):
        x = rand_spin(rng, 4, interior=True)
        assert np.allclose(jordan_product(x, inverse(x)).as_array(), identity(4).as_array())
    # boundary element has no inverse
    with pytest.raises(SingularElementError):
        inverse(SpinElement(1.0, np.array([1.0, 0.0])))


def test_singularity_guard_is_relative():
    big = SpinElement(1e8, np.array([1e8 - 1e-9]))
    with pytest.raises(SingularElementError):
        inverse(big)


def test_power(rng):
    x = rand_spin(rng, 3, interior=True)
    assert np.allclose(power(x, 1.0).as_array(), x.as_array())
    assert np.allclose(power(x, 0.0).as_array(), identity(3).as_array())
    s = power(x, 0.5)
    assert np.allclose(jordan_product(s, s).as_array(), x.as_array())
    assert np.allclose(power(x, -1.0).as_array(), inverse(x).as_array())
    with pytest.raises(SpectralDomainError):
        power(SpinElement(0.0, np.array([1.0])), 0.5)


def test_quadratic_rep_identities(rng):
    for _ in range(100):
        m = int(rng.integers(1, 6))
        x = rand_spin(rng, m, interior=True)
        y = rand_spin(rng, m)
        # Q_x e = x^2
        assert np.allclose(
            quadratic_rep_apply(x, identity(m)).as_array(),
            jordan_product(x, x).as_array(),
        )
        # Q_x x^-1 = x
        assert np.allclose(quadratic_rep_apply(x, inverse(x)).as_array(), x.as_array())
        # det(Q_x y) = det(x)^2 det(y)
        assert det(quadratic_rep_apply(x, y)) == pytest.approx(
            det(x) ** 2 * det(y), rel=1e-10, abs=1e-12
        )


def test_quadratic_rep_composition(rng):
    # Q_{x^a} = Q_x^a on commuting arguments: Q_{sqrt(x)} Q_{sqrt(x)} y = Q_x y
    x = rand_spin(rng, 4, interior=True)
    y = rand_spin(rng, 4)
    s = power(x, 0.5)
    twice = quadratic_rep_apply(s, quadratic_rep_apply(s, y))
    assert np.allclose(twice.as_array(), quadratic_rep_apply(x, y).as_array())


def test_trace_form_associativity(rng):
    # <x o y, w> = <y, x o w>
    for _ in range(100):
        x, y, w = (rand_spin(rng, 4) for _ in range(3))
        assert inner(jordan_product(x, y), w) == pytest.approx(
            inner(y, jordan_product(x, w)), rel=1e-10, abs=1e-10
        )


def test_cone_membership():
    assert is_in_cone(SpinElement(1.0, np.array([1.0])))
    assert not is_interior(SpinElement(1.0, np.array([1.0])))
    assert is_interior(SpinElement(2.0, np.array([1.0])))
    assert not is_in_cone(SpinElement(0.5, np.array([1.0])))
    with pytest.raises(ValueError):
        is_in_cone(identity(2), tol=-1.0)


def test_immutability():
    x = SpinElement(1.0, np.array([2.0]))
    with pytest.raises(ValueError):
        x.tail[0] = 5.0


# ---------------------------------------------------------------------------
# block vectors


def block_vector(blocks):
    return BlockConeVector.from_arrays([b.head for b in blocks], np.stack([b.tail for b in blocks]))


def test_block_roundtrip(rng):
    blocks = [rand_spin(rng, 3) for _ in range(5)]
    v = block_vector(blocks)
    assert v.n_blocks == 5
    assert v.tails.shape == (5, 3)
    for i, b in enumerate(blocks):
        assert v.heads[i] == b.head and np.array_equal(v.tails[i], b.tail)
    w = BlockConeVector.from_arrays(v.heads, v.tails)
    assert np.array_equal(w.heads, v.heads) and np.array_equal(w.tails, v.tails)
    with pytest.raises(ValueError):
        BlockConeVector.from_arrays(np.zeros(4), np.zeros((5, 3)))


def test_blockwise_ops_match_per_block(rng):
    xb = [rand_spin(rng, 2, interior=True) for _ in range(4)]
    x = block_vector(xb)
    assert lambda_min(x) == pytest.approx(min(lambda_min(b) for b in xb))
