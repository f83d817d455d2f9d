import cmath
import io
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantoda import gz, specfun
from quantoda.cli import dispatch
from quantoda.mellin_barnes import default_contour
from quantoda.specfun import (PoleError, _log_gamma, _log_gamma_right, gamma,
                              gamma_products, gamma_shift_ratio, log_abs_gamma_array,
                              log_gamma, log_gamma_array)

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


def _mp_log_gamma(z):
    return mpmath.loggamma(mpmath.mpc(z.real, z.imag))


def _worst_exp_error(values, zs):
    """max |e^Delta - 1|, Delta = value - log Gamma(z) in 40 digits."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.expm1(mpmath.mpc(v.real, v.imag) - _mp_log_gamma(z))))
                   for v, z in zip(values, zs))


def _gz_arguments():
    # the arguments the spherical-vector checks pass, both ends of each
    # half-integer shift
    seen = []
    real = gz.log_gamma_array

    def recording(z):
        seen.extend(np.ravel(z).tolist())
        return real(z)

    gz.log_gamma_array = recording
    try:
        for n in (2, 3):
            gz.gz_suite(n, trials=4, seed=7)
    finally:
        gz.log_gamma_array = real
    return seen


IMAG_100 = np.linspace(-100.0, 100.0, 401)
ARRAY_FAMILIES = {
    "whittaker kernel, Re 1/2": 0.5 + 1j * IMAG_100,
    "whittaker kernel, Re 1": 1.0 + 1j * IMAG_100,
    "spherical kernel, Re 1/4": 0.25 + 1j * IMAG_100,
    "small real": np.array([0.5, 1.0, 1.5, 2.0]),
}
LAMBDA_ALPHA = 0.1 + 0.5 * np.arange(82)    # 1/2 - l from 0.4 down to -40.1
SCALAR_FAMILIES = {
    "gz shifts": _gz_arguments,
    "b_denominator, 1/2 - i d": lambda: list(0.5 - 1j * np.linspace(-30.0, 30.0, 121)),
    "m_elementary, 1/2 - l real": lambda: list(0.5 - LAMBDA_ALPHA),
    "m_elementary, 1/2 - l complex": lambda: list(0.5 - LAMBDA_ALPHA - 3j * np.sin(3.0 * LAMBDA_ALPHA)),
    "small real": lambda: [0.5, 1.0, 1.5, 2.0],
}


@pytest.mark.parametrize("family", ARRAY_FAMILIES)
def test_log_gamma_array_against_mpmath(family):
    zs = ARRAY_FAMILIES[family]
    assert _worst_exp_error(log_gamma_array(zs), zs.astype(complex)) <= 1e-13


@pytest.mark.parametrize("family", SCALAR_FAMILIES)
def test_log_gamma_against_mpmath(family):
    zs = [complex(z) for z in SCALAR_FAMILIES[family]()]
    assert _worst_exp_error([log_gamma(z) for z in zs], zs) <= 1e-13


def _product_families():
    # the kernels' argument families: Re z = 1/2 and 1, |Im z| <= 100, rows
    # of 1 to 3 factors (the kernels' top factors share one node, so their
    # imaginary parts are close), on the exact grid and on drawn doubles
    rng = np.random.default_rng(47)
    out = {}
    for h in (0.5, 1.0):
        for k in (1, 2, 3):
            shifts = np.array([0.0, 0.5, -1.0][:k])
            grid = h + 1j * np.add.outer(IMAG_100, shifts)
            drawn = h + 1j * np.add.outer(rng.uniform(-99.0, 99.0, 200),
                                          rng.uniform(-1.0, 1.0, k))
            out[f"Re {h}, {k} factor(s)"] = np.concatenate(
                [grid[np.abs(grid.imag).max(axis=1) <= 100.0], drawn])
    return out


PRODUCT_FAMILIES = _product_families()


@pytest.mark.parametrize("family", PRODUCT_FAMILIES)
def test_gamma_products_against_mpmath(family):
    # 1e-13 relative while the factors' imaginary parts sum to at most 100,
    # then in proportion: the floor is the rounding of the product's phase,
    # sum_k Im S_k, about 3.6 per unit of Im z at |Im z| = 100 (2.5e-13
    # measured at three factors near |Im z| = 100, where the parent's
    # exp(sum log_gamma_array) read 1.9e-13)
    zs = PRODUCT_FAMILIES[family]
    got, = gamma_products(zs.ravel(), [zs.shape])
    assert got.shape == (len(zs),)
    with mpmath.workdps(40):
        for v, row in zip(got, zs):
            want = mpmath.fprod(mpmath.gamma(mpmath.mpc(z.real, z.imag)) for z in row)
            bound = 1e-13 * max(1.0, np.abs(row.imag).sum() / 100.0)
            assert abs(mpmath.mpc(v.real, v.imag) / want - 1) <= bound, row


def test_values_do_not_depend_on_the_array_size():
    # above 256 KiB numpy elides the temporary of z * (z + 7) and computes
    # (z + 7) * z in place, whose fused products round otherwise: the
    # batched spherical ratios of `gz` pass arrays that large from N = 8 at
    # 20 trials
    rng = np.random.default_rng(8)
    z = rng.choice([0.25, 0.75], 64) + 1j * rng.uniform(-2.0, 2.0, 64)
    big = np.resize(z, 20000)
    assert log_gamma_array(big)[:64].tobytes() == log_gamma_array(z).tobytes()
    assert gamma_products(big, [(20000, 1)])[0][:64].tobytes() == \
        gamma_products(z, [(64, 1)])[0].tobytes()


def test_gamma_products_do_not_depend_on_the_array():
    # one value per row, whatever block, position or array length it
    # arrives in: each block's rows are its own, and one call takes them all
    rng = np.random.default_rng(3)
    z3 = 0.5 + 1j * rng.uniform(-100.0, 100.0, (300, 3))
    z1 = 1.0 + 1j * rng.uniform(-100.0, 100.0, 300)
    whole3, whole1 = gamma_products(np.concatenate([z3.ravel(), z1]), [(300, 3), (300, 1)])
    for n in (1, 2, 3, 5, 8, 17, 64, 299):
        for start in (0, 1, 3):
            rows = slice(start, start + n)
            m = len(z1[rows])
            alone, = gamma_products(z3[rows].ravel(), [(m, 3)])
            swapped = gamma_products(np.concatenate([z1[rows], z3[rows].ravel()]),
                                     [(m, 1), (m, 3)])
            assert np.array_equal(alone, whole3[rows])
            assert np.array_equal(swapped[0], whole1[rows])
            assert np.array_equal(swapped[1], whole3[rows])


# Re z < 0 past the asymptotic |Im z| >= 20 of log sin(pi z), both signs
LEFT_FAR = [-0.5 + 40j, -3.3 + 25j, -0.2 - 30j] + [
    complex(x, s * y) for x in (-0.2, -1.5, -5.7, -10.2, -20.4, -39.6)
    for y in (20.0, 60.0, 100.0, 200.0) for s in (1, -1)]


def test_log_gamma_at_negative_real_part_and_large_imaginary_part():
    # the floor is the rounding of a value of size |z| log |z|: 1e-13 up to
    # |z| = 60, then in proportion to |z| (1.8e-13 measured at -10.2 + 200i)
    zs = np.array(LEFT_FAR)
    for values in ([log_gamma(z) for z in LEFT_FAR], log_gamma_array(zs)):
        for v, z in zip(values, LEFT_FAR):
            assert _worst_exp_error([v], [z]) <= 1e-13 * max(1.0, abs(z) / 60.0), z


def test_log_gamma_array_on_the_gz_shift_arguments():
    zs = np.array(_gz_arguments())
    assert _worst_exp_error(log_gamma_array(zs), zs) <= 1e-13
    # none takes the element-by-element reflection path for Re z < 0
    assert zs.real.min() > 0


def test_principal_branch_and_conjugation():
    # the imaginary part itself matches mpmath's principal branch (no 2 pi i
    # offset) on both sides of Re z = 0, and conj commutes with log Gamma
    zs = [complex(x, y) for x in (-7.3, -0.6, 0.0, 0.4, 1.0, 2.0)
          for y in (-60.0, -7.5, -0.3, 0.2, 3.0, 59.0)]
    arr = log_gamma_array(zs)
    for z, a in zip(zs, arr):
        with mpmath.workdps(30):
            want = complex(_mp_log_gamma(z))
        for got in (log_gamma(z), a):
            assert abs(got.imag - want.imag) <= 1e-13 * max(1.0, abs(want))
        assert abs(log_gamma(z.conjugate()) - log_gamma(z).conjugate()) <= 1e-15 * abs(want)
    conj = log_gamma_array(np.conj(zs))
    assert np.all(np.abs(conj - arr.conj()) <= 1e-15 * np.abs(arr))


def test_principal_branch_far_left_of_the_imaginary_axis():
    # the reflection adds 2 pi i floor(x/2 + 1/4) (sign of y): at x = -30.2
    # that is 15 turns, and one floor too many or too few is off by 2 pi
    zs = [complex(-30.2, y) for y in (2.0, -2.0, 0.5)] + [-51.7 + 3j, -18.9 - 1j]
    arr = log_gamma_array(zs)
    for z, a in zip(zs, arr):
        with mpmath.workdps(30):
            want = complex(_mp_log_gamma(z))
        for got in (log_gamma(z), a):
            assert abs(got.imag - want.imag) <= 1e-13 * abs(want), z


def test_log_gamma_array_takes_the_array_path_right_of_zero():
    # kernel-shaped arguments with 0 < Re z <= 1 (offsets 1/2 and 1, the
    # spherical 1/4, and the N = 2 default contour) go through the array
    # formula, bit for bit; only Re z <= 0 goes element by element
    c = default_contour(2, [0.8, -0.3], 1e-8)
    t = np.linspace(-c.half_width, c.half_width, c.nodes_per_dim)
    zs = np.concatenate([re + 1j * IMAG_100 for re in (0.25, 0.5, 1.0)]
                        + [(-1j * np.subtract.outer(t + 1j * c.offsets[0], [0.8, -0.3])).ravel()])
    assert 0.0 < zs.real.min() and zs.real.max() <= 1.0
    assert np.array_equal(log_gamma_array(zs), _log_gamma_right(zs))
    left = np.array([-0.5 + 2j, -30.2 + 2j, 1j])
    mixed = log_gamma_array(np.concatenate([zs, left]))
    assert np.array_equal(mixed[:zs.size], _log_gamma_right(zs))
    assert mixed[zs.size:].tolist() == [_log_gamma(z) for z in left.tolist()]


def test_log_abs_gamma_array_is_the_real_part_bit_for_bit(monkeypatch):
    # the spherical kernel's one call: float64, the real part of
    # `log_gamma_array`'s value on every array family and the spherical
    # kernel's own arguments 1/4 - i d/2; an array with any Re z <= 0 goes
    # through `log_gamma_array` whole, 1j and the pole at 0 included
    c = default_contour(3, [0.9, 0.1, -0.6], 1e-10)
    t = np.linspace(-c.half_width, c.half_width, c.nodes_per_dim)
    right = np.concatenate([*ARRAY_FAMILIES.values(),
                            0.25 - 0.5j * np.subtract.outer(t, t).ravel()])
    assert right.real.min() > 0.0
    for zs in (right, np.array(LEFT_FAR), np.array([0j, 1j, 0.5, -3 + 0j]),
               np.append(right, 1j)):
        got = log_abs_gamma_array(zs)
        assert got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(log_gamma_array(zs).real).tobytes()
    assert log_abs_gamma_array([0j]).tolist() == [math.inf]
    # right of 0 it computes the real part alone, not the complex value
    want = log_abs_gamma_array(right)
    monkeypatch.setattr(specfun, "log_gamma_array", None)
    assert log_abs_gamma_array(right).tobytes() == want.tobytes()


def test_no_runtime_warning_at_large_imaginary_parts():
    # RuntimeWarning is an error under pytest (pyproject.toml)
    ys = np.linspace(-1e4, 1e4, 2001)
    for re in (0.25, 0.5, 1.0):
        assert np.isfinite(log_gamma_array(re + 1j * ys)).all()
    assert all(math.isfinite(log_gamma(0.5 + 1j * y).real) for y in ys[::50])
    assert dispatch(["whittaker", "eval", "--n=2", "--alpha=1000,-1000",
                     "--x=0,0"], out=io.StringIO()) == 0


def test_log_gamma_array_is_quiet_on_the_pole_at_zero():
    # 0 and -0.0 took the Stirling path and warned "divide by zero in log"
    zs = np.array([0j, -0.0 + 0j, complex(0.0, -0.0), -3 + 0j, 0.5, 1j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_gamma_array(zs)
    assert np.all(got[:4] == complex(math.inf, 0.0))
    assert abs(got[4] - log_gamma(0.5)) < 1e-15 and got[5] == log_gamma(1j)


def test_log_gamma_array_is_elementwise_bitwise_on_the_recursive_n2_family():
    # `mellin_barnes._kernel` takes all log Gammas of the N = 2 kernel (the
    # separated kernel of the recursive route) in one call,
    # `separation.sep_wavefunction` two per node: each element must not
    # depend on the array it arrives in
    alpha, tol = [0.8, -0.3], 1e-8
    c = default_contour(2, alpha, tol)
    t = np.linspace(-c.half_width, c.half_width, c.nodes_per_dim)
    zs = -1j * np.subtract.outer(t + 1j * c.offsets[0], alpha)     # (M, 2)
    assert zs.size == 540
    whole = log_gamma_array(zs.ravel()).reshape(zs.shape)
    per_node = np.array([log_gamma_array(row) for row in zs])
    one_by_one = np.array([[log_gamma_array([z])[0] for z in row] for row in zs])
    assert np.array_equal(whole, per_node) and np.array_equal(whole, one_by_one)
