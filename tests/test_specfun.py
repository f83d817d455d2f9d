import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from quantoda.specfun import (PoleError, gamma, gamma_shift_ratio, log_gamma,
                              log_gamma_array)

# frozen against an arbitrary-precision evaluation
LOGGAMMA_2_3I = complex(-2.09285175309273334956418862503,
                        2.30239654346686762615370761779)
GAMMA_MINUS_I_SQ = complex(-0.224010156400611939773361380456,
                           -0.154334884533101604918020806028)


def test_log_gamma_golden():
    assert abs(log_gamma(2 + 3j) - LOGGAMMA_2_3I) < 1e-13


def test_gamma_minus_i_squared_golden():
    assert abs(gamma(-1j) ** 2 - GAMMA_MINUS_I_SQ) < 1e-13


def test_gamma_at_small_integers():
    assert abs(gamma(1) - 1) < 1e-14
    assert abs(gamma(5) - 24) < 1e-12
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14


moderate = st.complex_numbers(min_magnitude=0.1, max_magnitude=8.0,
                              allow_nan=False, allow_infinity=False)


def _safe(z):
    # stay away from the pole line and from overflow
    return abs(z.imag) > 1e-3 or z.real > 0.05


@given(moderate.filter(_safe))
@settings(max_examples=200)
def test_gamma_recurrence(z):
    assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-10 * abs(gamma(z + 1))


@given(moderate.filter(_safe))
@settings(max_examples=200)
def test_gamma_reflection(z):
    try:
        lhs = gamma(z) * gamma(1 - z)
    except (PoleError, OverflowError):
        return
    # sin(pi z) = (-1)^k sin(pi (z - k)): reducing the argument keeps the
    # reference accurate near the integers, where sin(pi z) cancels
    k = round(z.real)
    rhs = (-1) ** k * math.pi / cmath.sin(math.pi * (z - k))
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


@given(moderate.filter(_safe))
@settings(max_examples=100)
def test_gamma_conjugation(z):
    assert abs(gamma(z.conjugate()) - gamma(z).conjugate()) <= 1e-10 * abs(gamma(z))


@given(moderate.filter(_safe), st.integers(min_value=-4, max_value=4))
@settings(max_examples=200)
def test_shift_ratio_matches_gamma_quotient(z, k):
    try:
        expect = gamma(z + k) / gamma(z)
    except (PoleError, OverflowError, ZeroDivisionError):
        return
    try:
        got = gamma_shift_ratio(z, k)
    except PoleError:
        return
    assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_shift_ratio_exact_values():
    assert gamma_shift_ratio(0.5, 1) == 0.5
    assert gamma_shift_ratio(2.0, -1) == 1.0
    assert gamma_shift_ratio(3 + 0j, 2) == 12.0


def test_pole_detection():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)
    with pytest.raises(PoleError):
        gamma(-2 + 1e-14j)
    with pytest.raises(PoleError):
        gamma_shift_ratio(1.0, -1)
    # close to a pole but outside the guard band is fine
    gamma(-2.0 + 1e-6)


def test_modulus_decays_along_imaginary_direction():
    vals = [abs(gamma(0.5 + 1j * y)) for y in (0.0, 1.0, 2.0, 4.0)]
    assert vals == sorted(vals, reverse=True)


def test_vectorized_matches_scalar():
    zs = [0.3 + 0.4j, 2 - 1j, -0.5 + 2j]
    arr = log_gamma_array(zs)
    for z, a in zip(zs, arr):
        assert abs(a - log_gamma(z)) < 1e-14


def test_gamma_overflow_guard():
    with pytest.raises(OverflowError):
        gamma(400.0)
