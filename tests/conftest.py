"""Shared generators and oracles for the test-suite.

All randomness is via explicitly seeded numpy Generators so failures are
reproducible from the printed seed.
"""

import numpy as np
import pytest

from barrierpd import kernels
from barrierpd.barrier import RankOneConstraint
from barrierpd.jordan import SpinElement, power, quadratic_rep_apply


def pytest_report_header(config):
    return f"barrierpd kernels: {kernels.PATH}"


def rand_spin(rng, m, interior=False, scale=1.0):
    """Random spin element; with interior=True, strictly inside the cone."""
    tail = scale * rng.standard_normal(m)
    if interior:
        head = float(np.linalg.norm(tail)) + scale * (0.1 + rng.random())
    else:
        head = scale * float(rng.standard_normal())
    return SpinElement(head, tail)


def rand_constraint(rng, m, b0=None):
    a = rand_spin(rng, m, interior=True)
    if b0 is None:
        b0 = 0.5 + 2.0 * rng.random()
    return RankOneConstraint(a, float(b0))


def rand_admissible_c(rng, a, scale=1.0):
    """Random offset satisfying the range condition <a^-1, c> = 0.

    In coordinates scaled by Q_{a^{-1/2}} the condition is head = 0, so draw
    a pure-tail element there and scale back with Q_{a^{1/2}}.
    """
    tail = scale * rng.standard_normal(a.dim)
    return quadratic_rep_apply(power(a, 0.5), SpinElement(0.0, tail))


def sclp_optimal_pair(constraint, c):
    """Optimal (y, d, z) of the linear conic problem, i.e. the vanishing-
    regularisation limit of the interior solve; requires the scaled offset
    to have a nonzero tail (otherwise the dual optimum is not unique)."""
    a, b0 = constraint.a, constraint.b0
    inv_sqrt_a = power(a, -0.5)
    cs = quadratic_rep_apply(inv_sqrt_a, c)
    t = float(np.linalg.norm(cs.tail))
    if t == 0.0:
        raise ValueError("degenerate instance: scaled offset has zero tail")
    y = quadratic_rep_apply(inv_sqrt_a, SpinElement(b0 / 2.0, -(b0 / (2.0 * t)) * cs.tail))
    z = t - cs.head
    d = z * a + c
    return y, d, z


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
