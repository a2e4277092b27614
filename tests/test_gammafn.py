"""Checks of params.gamma and params.reciprocal_gamma, the package's gamma
rule, against 50-digit reference values."""

import math

import numpy as np
import pytest

from hadamard_bvp import DomainInvalid, gamma, reciprocal_gamma
from hadamard_bvp.errors import NonFiniteResult

# Gamma at 50-digit precision.
GAMMA_REFS = (
    (0.001, 999.42377248459547),
    (0.5, 1.7724538509055160),
    (1.0, 1.0),
    (1.25, 0.90640247705547708),
    (1.5, 0.88622692545275801),
    (2.0, 1.0),
    (3.0, 2.0),
    (3.7, 4.1706517837966032),
    (10.0, 362880.0),
    (25.5, 3.0867705405286968e24),
    (29.999, 8.8118883281841422e30),
    (30.0, 8.8417619937397020e30),
)


def test_reference_values():
    for x, ref in GAMMA_REFS:
        assert abs(gamma(x) - ref) <= 1e-12 * ref


def test_recurrence_on_grid():
    xs = np.linspace(0.1, 10.0, 1000)
    for x in xs:
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) <= 1e-10 * lhs


def test_monotone_increasing_past_minimum():
    xs = np.linspace(1.4617, 10.0, 500)
    vals = [gamma(x) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    for bad in (0.0, -1.0, -0.5, math.nan, math.inf):
        with pytest.raises(DomainInvalid):
            gamma(bad)


def test_reciprocal_gamma_poles_and_positives():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-1.0) == 0.0
    assert reciprocal_gamma(-7.0) == 0.0
    assert abs(reciprocal_gamma(1.5) - 1.0 / 0.88622692545275801) < 1e-12
    # Negative non-integers go through the reflection in libm.
    assert abs(reciprocal_gamma(-0.5) - 1.0 / math.gamma(-0.5)) < 1e-12


def test_overflow_is_a_non_finite_result():
    assert math.isfinite(gamma(171.6))
    assert reciprocal_gamma(171.6) > 0.0
    for call in (lambda: gamma(172.0), lambda: reciprocal_gamma(172.0),
                 lambda: reciprocal_gamma(-199.5)):
        with pytest.raises(NonFiniteResult):
            call()


def test_reciprocal_gamma_rejects_non_finite_x():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainInvalid) as info:
            reciprocal_gamma(bad)
        assert info.value.exit_code == 2
