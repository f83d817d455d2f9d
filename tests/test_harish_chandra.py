import io
import itertools
import json
import math
import random

import mpmath
import numpy as np
import pytest

from quantoda.cli import dispatch
from quantoda.harish_chandra import (WeylPermutation,
                                     b_denominator, c_alpha_factor, c_function,
                                     c_s, delta_set, lambda_alpha,
                                     m_b_compatibility, m_elementary,
                                     m_function, plancherel_density,
                                     scattering_matrices, word_to_permutation)
from quantoda.specfun import PoleError


def _all_perms(n):
    return [WeylPermutation(p) for p in itertools.permutations(range(1, n + 1))]


def test_group_laws():
    for n in (2, 3, 4):
        e = WeylPermutation.identity(n)
        for s in _all_perms(n):
            assert s * s.inverse() == e
            assert (e * s) == s
        for s in _all_perms(n):
            for t in _all_perms(n):
                for i in range(1, n + 1):
                    assert (s * t)(i) == s(t(i))


def test_permutations_are_unhashable():
    # permutations compare by value (__eq__), so Python gives them no hash
    with pytest.raises(TypeError):
        hash(WeylPermutation.identity(3))


@pytest.mark.parametrize("build, error", [
    (lambda: WeylPermutation([1, 1, 3]), ValueError),
    (lambda: WeylPermutation([0, 1]), ValueError),
    (lambda: WeylPermutation.simple(0, 3), IndexError),
], ids=["repeated-entry", "not-1-based", "simple-index-0"])
def test_permutation_input_checks(build, error):
    with pytest.raises(error):
        build()


def test_apply_is_group_action():
    rng = random.Random(2)
    lam = [rng.uniform(-2, 2) for _ in range(4)]
    for s in _all_perms(4)[:8]:
        for t in _all_perms(4)[::5]:
            got = (s * t).apply(lam)
            assert np.allclose(got, s.apply(t.apply(lam)))


def test_reduced_words():
    for n in (2, 3, 4):
        for s in _all_perms(n):
            w = s.reduced_word()
            assert len(w) == s.length()
            assert word_to_permutation(w, n) == s
    w0 = WeylPermutation.longest(3)
    words = {tuple(w) for w in w0.all_reduced_words()}
    assert words == {(1, 2, 1), (2, 1, 2)}


def test_delta_set_counts_length():
    for s in _all_perms(4):
        assert len(delta_set(s)) == s.length()
    assert delta_set(WeylPermutation.simple(1, 3)) == {(1, 2)}


def test_c_alpha_goldens():
    # lambda_alpha = 1/2 -> Gamma(1/2)^2/Gamma(1) = pi
    assert abs(c_alpha_factor([0.5, -0.5], (1, 2)) - math.pi) < 1e-14
    # lambda_alpha = 1 -> Gamma(1) sqrt(pi) / Gamma(3/2) = 2
    assert abs(c_alpha_factor([1.0, -1.0], (1, 2)) - 2.0) < 1e-14


def test_c_function_product_formula():
    lam = [0.9, 0.2, -0.6]
    expect = 1.0
    for root in ((1, 2), (1, 3), (2, 3)):
        expect *= c_alpha_factor(lam, root)
    assert abs(c_function(lam) - expect) < 1e-13 * abs(expect)


def test_c_s_multiplicative_when_lengths_add():
    # Delta(s1 s2) = Delta(s1) + s1 Delta(s2) when lengths add, hence
    # c_{s1 s2}(lam) = c_{s1}(lam) c_{s2}(s1^{-1} lam)
    lam = [1.1, 0.35, -0.4, -0.9]
    for s1 in _all_perms(4):
        for s2 in _all_perms(4)[::7]:
            if (s1 * s2).length() != s1.length() + s2.length():
                continue
            lhs = c_s(lam, s1 * s2)
            rhs = c_s(lam, s1) * c_s(s1.inverse().apply(lam), s2)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_m_cocycle():
    lam = [0.8, 0.1, -0.5]
    for s1 in _all_perms(3):
        for s2 in _all_perms(3):
            if (s1 * s2).length() != s1.length() + s2.length():
                continue
            lhs = m_function(s1 * s2, lam)
            rhs = m_function(s2, lam) * m_function(s1, s2.apply(lam))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_m_word_independence():
    lam = [0.7, -0.1, -0.45]
    w0 = WeylPermutation.longest(3)
    vals = [m_function(w0, lam, word=w) for w in w0.all_reduced_words()]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-10 * max(1.0, abs(vals[0]))


def test_m_elementary_unimodular_on_unitary_spectrum():
    # on the imaginary axis (unitary spectrum) the elementary scattering
    # factor is a pure phase
    for la in (0.3, 1.2, -0.8):
        v = m_elementary([1j * la, -1j * la], 1)
        assert abs(abs(v) - 1.0) < 1e-12


@pytest.mark.parametrize("lam", [[0.3, -0.5], [1.7, 0.2], [0.4 + 0.9j, -0.2 + 0.1j],
                                 [2.5j, -1.2j], [0.9, 0.3, -1.4]])
def test_m_elementary_is_the_e_ratio(lam):
    # M = e(l)/e(-l) (1/4)^{2l}, e(l) = 2^{1-l} sqrt(pi) Gamma(l + 1/2), at
    # l = lambda_alpha, in mpmath: pins the exponent 2 l ln(1/8), which a
    # pure phase on the unitary axis does not
    def e(l):
        return mpmath.power(2, 1 - l) * mpmath.sqrt(mpmath.pi) * mpmath.gamma(l + 0.5)

    for k in range(1, len(lam)):
        la = lambda_alpha(lam, (k, k + 1))
        with mpmath.workdps(30):
            l = mpmath.mpc(la.real, la.imag)
            want = e(l) / e(-l) * mpmath.power(0.25, 2 * l)
            assert abs(m_elementary(lam, k) / want - 1) <= 1e-13


def test_plancherel_weyl_invariance_and_zeros():
    lam = [1.3, 0.4, -0.2, -1.1]
    base = plancherel_density(lam)
    assert base > 0
    for s in _all_perms(4):
        assert abs(plancherel_density(list(s.apply(lam))) - base) \
            <= 1e-11 * base
    assert plancherel_density([0.5, 0.5, -0.3]) == 0.0


def test_b_denominator_is_gamma_product():
    from quantoda.specfun import gamma
    lam = [0.6, -0.3]
    expect = gamma(-1j * (0.6 + 0.3) + 0.5)
    assert abs(b_denominator(lam) - expect) < 1e-13 * abs(expect)


def test_m_b_ratio_constant_along_orthogonal_lines():
    rng = random.Random(5)
    for N, k in ((2, 1), (3, 1), (3, 2), (4, 2)):
        lam0 = [rng.uniform(-1, 1) for _ in range(N)]
        direction = [rng.uniform(-1, 1) for _ in range(N)]
        vals = m_b_compatibility(k, lam0, direction,
                                 ts=[-1.0, -0.3, 0.0, 0.4, 1.2])
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-8 * max(1.0, abs(vals[0]))


def test_scattering_matrices_structure():
    lam = [0.9, 0.1, -0.7]
    s_full, s_sph = scattering_matrices(lam)
    w0 = WeylPermutation.longest(3)
    assert abs(s_full - s_sph * m_function(w0, lam)) \
        < 1e-12 * max(1.0, abs(s_full))


def _mpmath_c(lam):
    """c(lam) = prod_{i<j} sqrt(pi) Gamma(l) / Gamma(l + 1/2), l = (lam_i - lam_j)/2."""
    out = mpmath.mpc(1)
    for i, j in itertools.combinations(range(len(lam)), 2):
        la = (lam[i] - lam[j]) / 2
        out *= mpmath.sqrt(mpmath.pi) * mpmath.gamma(la) / mpmath.gamma(la + 0.5)
    return out


@pytest.mark.parametrize("l", [50.0, 50.5, 1e3, 1e10, 1e17, 1e100, 1e300])
@pytest.mark.parametrize("unit", [1, 1j])
def test_c_alpha_factor_from_l0_on(l, unit):
    # the asymptotic series, on the real and the imaginary axis
    lam = [l * unit, -l * unit]                  # lambda_alpha = l unit
    assert lambda_alpha(lam, (1, 2)) == l * unit
    with mpmath.workdps(30 + int(math.log10(l))):   # l + 1/2 exact
        c = _mpmath_c([mpmath.mpmathify(v) for v in lam])
        assert abs(c_alpha_factor(lam, (1, 2)) - c) <= 1e-13 * abs(c)
        if unit == 1:
            density = 1 / abs(_mpmath_c([mpmath.mpc(0, v) for v in lam])) ** 2
            assert abs(plancherel_density(lam) - density) <= 1e-13 * density


# real l past 2^52 are integers, poles of Gamma(l), so -1e17 and beyond
# appear with an imaginary part only
_NEGATIVE_L = [complex(re, im)
               for re in (-50.0, -50.3, -73.75, -1e3 - 0.3, -1e5 - 0.3,
                          -1e10 - 0.25, -1e15 - 0.375, -1e17, -1e100, -1e300)
               for im in (0.0, 1e-6, 0.3, 7.0, 50.0, 300.0, 1e5, 1e20)
               if im or re != math.floor(re)]


@pytest.mark.parametrize("l", _NEGATIVE_L)
def test_c_alpha_factor_at_negative_real_part(l):
    # the series at 1/2 - l through the reflection
    lam = [l, -l]
    assert lambda_alpha(lam, (1, 2)) == l
    with mpmath.workdps(40 + int(math.log10(-l.real))):
        c = _mpmath_c([mpmath.mpmathify(v) for v in lam])
        assert abs(c_alpha_factor(lam, (1, 2)) - c) <= 1e-13 * abs(c)


@pytest.mark.parametrize("l", [-60.0, -60.5, -60.5 + 1e-13j, -1e10, -1e10 - 0.5,
                               -2.0 ** 52 + 0.5, -1e300])
def test_c_alpha_factor_poles_past_l0(l):
    # Gamma(l) or Gamma(l + 1/2) has a pole within POLE_TOL of l
    with pytest.raises(PoleError, match="log_gamma pole"):
        c_alpha_factor([l, -l], (1, 2))


@pytest.mark.parametrize("lam, z", [("-120,0", "-60"), ("-121,0", "-60"),
                                    ("-20000000001,0", "-10000000000")])
def test_cfunction_cli_pole_past_l0_exits_1(lam, z, capsys):
    assert dispatch(["cfunction", f"--lambda={lam}"], out=io.StringIO()) == 1
    assert capsys.readouterr().err == f"error: log_gamma pole at z=({z}+0j)\n"


def test_plancherel_density_past_the_largest_double():
    # |c| = 1e-450 underflows to 0: the density 1/|c|^2 is no double
    with pytest.raises(OverflowError, match="exceeds the largest double"):
        plancherel_density([1e300, 0.0, -1e300])


@pytest.mark.parametrize("lam", [[400.0, -400.0], [300.0, 0.0, -300.0],
                                 [1e10, -1e10], [1e17, -1e17],
                                 [-20000000000.5, 0.0], [-300.5, 0.0, 300.25]])
def test_cfunction_cli_at_large_lambda(lam):
    # Gamma(400) overflows a double; the ratio Gamma(l)/Gamma(l + 1/2) does
    # not, and from |l| = 50 on it is an asymptotic series in 1/l
    out = io.StringIO()
    code = dispatch(["cfunction", "--lambda=" + ",".join(map(repr, lam)),
                     "--format=json"], out=out)
    assert code == 0
    (row,) = json.loads(out.getvalue())
    with mpmath.workdps(30):
        c = _mpmath_c([mpmath.mpf(v) for v in lam])
        density = 1 / abs(_mpmath_c([mpmath.mpc(0, v) for v in lam])) ** 2
        assert abs(complex(row["c_re"], row["c_im"]) - c) <= 1e-12 * abs(c)
        assert abs(row["plancherel_density"] - density) <= 1e-12 * density
