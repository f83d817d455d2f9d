import random

import pytest
from hypothesis import given, settings, strategies as st

from quantoda.rationals import P, FpI, gauss_mul, gauss_str, random_fp


def fp_values():
    part = st.one_of(st.integers(min_value=-20, max_value=20),
                     st.integers(min_value=0, max_value=P - 1))
    return st.builds(FpI, part, part)


@given(fp_values(), fp_values(), fp_values())
@settings(max_examples=150)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a + (-a) == FpI(0)


@given(fp_values().filter(lambda z: not z.is_zero()))
@settings(max_examples=100)
def test_division_inverts_multiplication(a):
    assert (FpI(1) / a) * a == FpI(1)
    assert a.inverse() * a == FpI(1)
    assert a / a == FpI(1)
    assert FpI(1) / a == a.inverse()


@given(fp_values(), st.integers(min_value=0, max_value=6))
def test_power_is_repeated_product(a, k):
    expect = FpI(1)
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect


def test_negative_power():
    a = FpI(3) / FpI(2) + FpI(0, -1) / FpI(3)   # 3/2 - i/3
    assert a ** -2 == FpI(1) / (a * a)
    assert a ** -1 * a == FpI(1)
    with pytest.raises(ZeroDivisionError):
        FpI(0, 0) ** -1
    with pytest.raises(ZeroDivisionError):
        FpI(1) / FpI(P, -P)        # the zero of F_p[i]
    with pytest.raises(ZeroDivisionError):
        FpI(0).inverse()


def test_i_squares_to_minus_one():
    assert FpI(0, 1) * FpI(0, 1) == FpI(-1, 0)
    assert FpI(0, 1) ** 4 == FpI(1)
    assert gauss_mul((0, 1), (0, 1)) == (-1, 0)


def test_conjugate_and_modulus():
    a = FpI(2) / FpI(3) + FpI(0, -5) / FpI(7)   # 2/3 - 5i/7
    m = a * a.conjugate()
    assert m == FpI(2 ** 2 * 7 ** 2 + 5 ** 2 * 3 ** 2) / FpI(3 ** 2 * 7 ** 2)
    assert m.im == 0
    assert gauss_mul((2, -5), (2, 5)) == (29, 0)
    # p = 3 mod 4: a^2 + b^2 = 0 mod p forces a = b = 0, so the norm of
    # a nonzero element is nonzero
    assert P % 4 == 3
    assert (FpI(1, 1) * FpI(1, 1).conjugate()) == FpI(2)


def test_coercion_with_floats_and_complex():
    a = FpI(1, 2)
    assert a + 3 == FpI(4, 2) and 3 + a == FpI(4, 2)
    assert 2 * a == FpI(2, 4) and a - 1 == FpI(0, 2) and a / 2 * 2 == a
    # a residue mod p has no float value: mixing is refused
    for bad in (0.5, 1j):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            bad * a
    with pytest.raises(TypeError):
        FpI(1.5, 0)
    assert gauss_str((3, 0)) == "3" and gauss_str((0, -2)) == "-2i"
    assert gauss_str((1, -2)) == "(1-2i)"


def test_hash_consistent_with_eq():
    assert FpI(P + 1, -1) == FpI(1, P - 1)
    assert hash(FpI(P + 1, -1)) == hash(FpI(1, P - 1))
    assert FpI(3, 0) == FpI(3) and FpI(3).re == 3 and FpI(3).im == 0
    assert len({FpI(1), FpI(1 + P), FpI(0, 1)}) == 2


def test_immutability():
    a = FpI(1, 1)
    with pytest.raises(AttributeError):
        a.re = 2
    with pytest.raises(AttributeError):
        a.extra = 2


def test_random_fp_draws_distinct_elements_from_low_up():
    rng = random.Random(0)
    vals = random_fp(rng, 6, 1)
    assert len(set(vals)) == 6
    assert all(type(v) is FpI and v.im == 0 and 1 <= v.re < P for v in vals)
    # a small range forces redraws, and the result stays distinct
    small = random_fp(random.Random(1), 4, P - 4)
    assert sorted(v.re for v in small) == [P - 4, P - 3, P - 2, P - 1]
    assert random_fp(random.Random(2), 3) == random_fp(random.Random(2), 3)
