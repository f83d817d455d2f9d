import cmath
import math
import random

import pytest

from quantoda.gz import (GENERATOR_PREFACTOR, VECTORS, Coefficient,
                         DifferenceOperator, TriangularArray,
                         cartan_multiplier, check_gl_relations,
                         check_gz_measure_difference_eq, check_serre,
                         check_spherical_equation, check_whittaker_equations,
                         gz_generator, gz_measure, gz_suite,
                         sample_real_array, separated_uniforms, spherical_vector,
                         vector_shift_ratio, whittaker_vector)
from quantoda.rationals import FpI
from quantoda.specfun import PoleError, gamma


def _point(levels):
    return TriangularArray(levels)


def test_triangular_array_shape_enforced():
    with pytest.raises(ValueError):
        TriangularArray([[1.0, 2.0]])
    arr = _point([[0.1], [0.5, -0.5]])
    assert arr.N == 2 and arr.get(2, 1) == 0.5


def _fp(num, den=1):
    """The rational num/den in F_p."""
    return FpI(num) / FpI(den)


def test_diagonal_generator_multiplies():
    # E_11 at N=2 is multiplication by lambda_11 / i
    op = gz_generator("diagonal", 1, 2)
    ((shift, factors), c), = op.terms.items()
    assert shift == () and c == (1, 0)
    (coeff, at), = factors
    assert at == () and coeff.shift == ()
    arr = _point([[_fp(3, 2)], [_fp(1), _fp(-2)]])
    assert coeff(arr) == FpI(0, -1) * _fp(3, 2)
    assert op.evaluate_on_test(arr, {(1, 1): _fp(5)}) == FpI(0, -1) * _fp(3, 2)
    assert coeff(_point([[1.5], [1.0, -2.0]])) == -1.5j


def test_raising_generator_n2_term():
    # single term, shift lambda_11 -> lambda_11 - i, coefficient
    # -(1/i) (lam - a1 - i/2)(lam - a2 - i/2); the sign is the one under
    # which the bracket with the lowering generator closes
    op = gz_generator("raise", 1, 2)
    ((shift, factors), c), = op.terms.items()
    assert shift == (((1, 1), -1),) and c == (1, 0)
    (coeff, at), = factors
    assert at == () and coeff.shift == shift
    lam = _fp(1, 3)
    a1, a2 = _fp(2), _fp(-1)
    arr = _point([[lam], [a1, a2]])
    ih = FpI(0, 1) / 2
    want = FpI(0, 1) * (lam - a1 - ih) * (lam - a2 - ih)
    assert coeff(arr) == want
    # on the test function the shift by -i contributes beta^{-1}
    beta = _fp(7, 3)
    assert op.evaluate_on_test(arr, {(1, 1): beta}) == want / beta
    num = 1j * (1 / 3 - 2 - 0.5j) * (1 / 3 + 1 - 0.5j)
    assert abs(coeff(_point([[1 / 3], [2.0, -1.0]])) - num) < 1e-14


def test_lowering_generator_n2_is_constant_shift():
    op = gz_generator("lower", 1, 2)
    ((shift, factors), c), = op.terms.items()
    assert shift == (((1, 1), 1),)
    (coeff, _), = factors
    arr = _point([[_fp(5)], [_fp(1), _fp(2)]])
    assert coeff(arr) == FpI(0, -1)
    assert coeff(_point([[5.0], [1.0, 2.0]])) == complex(0, -1)


def test_generator_index_errors():
    with pytest.raises(IndexError):
        gz_generator("raise", 2, 2)
    with pytest.raises(IndexError):
        gz_generator("diagonal", 4, 3)
    with pytest.raises(ValueError):
        gz_generator("sideways", 1, 3)


def _rational_arr(rng, N):
    levels = []
    for n in range(1, N + 1):
        row = []
        while len(row) < n:
            v = _fp(rng.randint(-20, 20), rng.randint(1, 6))
            if v not in row:
                row.append(v)
        levels.append(row)
    return TriangularArray(levels)


def _betas(rng, N):
    return {(n, j): _fp(rng.randint(1, 30), rng.randint(1, 5))
            for n in range(1, N) for j in range(1, n + 1)}


def test_compose_identity_and_zero():
    a = gz_generator("raise", 1, 3)
    ident = DifferenceOperator.identity()
    zero = DifferenceOperator.zero()
    rng = random.Random(0)
    arr, beta = _rational_arr(rng, 3), _betas(rng, 3)
    assert (ident * a).evaluate_on_test(arr, beta) == \
        a.evaluate_on_test(arr, beta)
    assert (a * ident).terms == a.terms
    assert (zero * a).evaluate_on_test(arr, beta) == FpI(0, 0)
    assert not (a * zero).terms


def test_composition_associative():
    rng = random.Random(3)
    ops = [gz_generator("raise", 1, 3), gz_generator("lower", 2, 3),
           gz_generator("diagonal", 2, 3)]
    lhs = (ops[0] * ops[1]) * ops[2]
    rhs = ops[0] * (ops[1] * ops[2])
    # the flat form is canonical, so the two groupings give one term map
    assert lhs.terms == rhs.terms
    for _ in range(10):
        arr, beta = _rational_arr(rng, 3), _betas(rng, 3)
        assert lhs.evaluate_on_test(arr, beta) == rhs.evaluate_on_test(arr, beta)


def test_bracket_h_e_reproduces_e():
    # [E_11, E_12] = E_12 at N=2
    h = gz_generator("diagonal", 1, 2)
    e = gz_generator("raise", 1, 2)
    diff = h.commutator(e) - e
    rng = random.Random(9)
    for _ in range(10):
        arr, beta = _rational_arr(rng, 2), _betas(rng, 2)
        assert diff.evaluate_on_test(arr, beta) == FpI(0, 0)
        # without the -e the bracket is not zero
        assert not h.commutator(e).evaluate_on_test(arr, beta).is_zero()


def test_equal_products_cancel_symbolically():
    h1, h2 = gz_generator("diagonal", 1, 3), gz_generator("diagonal", 2, 3)
    e = gz_generator("raise", 2, 3)
    assert not h1.commutator(h2).terms
    assert not e.commutator(e).terms
    assert not (e - e).terms and (e + e).terms == e.scaled(2).terms
    assert (-e).terms == e.scaled(-1).terms


def test_each_coefficient_evaluated_once_per_shifted_array(monkeypatch):
    e, f = gz_generator("raise", 2, 3), gz_generator("lower", 1, 3)
    op = e.commutator(e.commutator(f))
    calls = []
    orig = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__",
                        lambda self, arr: calls.append(self) or orig(self, arr))
    rng = random.Random(5)
    op.evaluate_on_test(_rational_arr(rng, 3), _betas(rng, 3))
    factors = {fac for (_, facs) in op.terms for fac in facs}
    assert len(calls) == len(factors)


def test_flipped_raising_sign_fails(monkeypatch):
    # the printed +(1/i) in front of E_{n,n+1} does not close [E, F]
    monkeypatch.setitem(GENERATOR_PREFACTOR, "raise", (0, -1))
    for N in (2, 3):
        rep = check_gl_relations(N, trials=3, seed=1)
        assert rep.status == "FAIL" and "[E1,F1]" in rep.witness


def test_gl_relations_and_serre():
    assert check_gl_relations(2, trials=10, seed=1).passed
    assert check_gl_relations(3, trials=10, seed=1).passed
    assert check_serre(3, trials=10, seed=1).passed
    # vacuous at N=2: no pairs, still PASS
    assert check_serre(2, trials=5, seed=1).passed


def test_whittaker_vector_values():
    assert whittaker_vector("w_prime", _point([[0.2], [1.0, -1.0]])) == 1.0
    assert whittaker_vector("w", _point([[0.4]])) == 1.0  # empty product
    arr = _point([[0.3], [0.9, -0.4]])
    expect = gamma(-1j * (0.3 - 0.9) + 0.5) * gamma(-1j * (0.3 + 0.4) + 0.5)
    got = whittaker_vector("w", arr)
    assert abs(got - expect) < 1e-13 * abs(expect)
    with pytest.raises(ValueError):
        whittaker_vector("nope", arr)


def test_separated_uniforms_match_the_rejection_sampler():
    rng = random.Random(8)
    for count in range(6):
        vals = separated_uniforms(rng, count, -1.0, 1.0, 0.3)
        assert len(vals) == count and all(-1.0 <= v <= 1.0 for v in vals)
        assert all(abs(a - b) >= 0.3 - 1e-12
                   for i, a in enumerate(vals) for b in vals[i + 1:])
    # 61 values 0.1 apart need 6 of the 4 units: an error, not a hang
    with pytest.raises(ValueError, match="do not fit"):
        separated_uniforms(rng, 61, -2.0, 2.0, 0.1)
    # same law as redrawing until every gap holds: compare the mean of each
    # order statistic and of the first (unsorted) value
    draws = 4000

    def rejection():
        while True:
            vals = [rng.uniform(0.0, 1.0) for _ in range(3)]
            if all(abs(a - b) >= 0.2 for i, a in enumerate(vals) for b in vals[i + 1:]):
                return vals

    for sampler in (rejection, lambda: separated_uniforms(rng, 3, 0.0, 1.0, 0.2)):
        samples = [sampler() for _ in range(draws)]
        means = [sum(sorted(v)[k] for v in samples) / draws for k in range(3)]
        # sorted: uniforms on [0, 0.6] shifted by 0, 0.2, 0.4
        assert all(abs(m - want) < 0.01 for m, want in zip(means, (0.15, 0.5, 0.85)))
        assert abs(sum(v[0] for v in samples) / draws - 0.5) < 0.015


def test_whittaker_equations_close():
    rng = random.Random(21)
    for N in (2, 3):
        for _ in range(5):
            arr = sample_real_array(N, rng)
            rep = check_whittaker_equations(N, arr)
            assert rep.residual < 1e-9


def test_spherical_vector_and_equation():
    arr = _point([[0.3], [0.9, -0.4]])
    bare = spherical_vector(arr, include_normalizer=False)
    expect = gamma((0.3 - 0.9) / 2j + 0.25) * gamma((0.3 + 0.4) / 2j + 0.25)
    assert abs(bare - expect) < 1e-13 * abs(expect)
    # the normalizer is the modulus-one factor 2^{-i lam} per variable
    full = spherical_vector(arr)
    assert abs(full / bare - cmath.exp(-1j * math.log(2.0) * 0.3)) < 1e-13
    rng = random.Random(4)
    for N in (2, 3):
        for _ in range(5):
            rep = check_spherical_equation(N, sample_real_array(N, rng))
            assert rep.residual < 1e-8


@pytest.mark.parametrize("N", [2, 3, 4])
def test_vector_shift_ratio_matches_vector_quotient(N):
    # the pair-local ratio against the whole vectors, every single-slot
    # shift by +-i (top level included)
    rng = random.Random(40 + N)
    vectors = {"w": lambda a: whittaker_vector("w", a), "phi": spherical_vector}
    for _ in range(3):
        arr = sample_real_array(N, rng)
        for kind, vector in vectors.items():
            for n in range(1, N + 1):
                for j in range(1, n + 1):
                    for k in (1, -1):
                        shift = (((n, j), k),)
                        want = vector(arr.shifted(shift)) / vector(arr)
                        got = vector_shift_ratio(kind, arr, shift)
                        assert abs(got - want) <= 1e-12 * abs(want), (kind, shift)


def test_spherical_normalizer_base_one_fails(monkeypatch):
    # without the 2^{-i lambda} normalizer the compact-generator equation
    # misses by a constant per shift pair
    monkeypatch.setitem(VECTORS, "phi", (2, 1.0))
    rng = random.Random(4)
    for N in (2, 3):
        assert check_spherical_equation(N, sample_real_array(N, rng)).status == "FAIL"
    reports = {r.relation: r for r in gz_suite(3, trials=2, seed=1)}
    assert reports["spherical-equation"].status == "FAIL"
    assert reports["whittaker-equations"].status == "PASS"


def test_gz_suite_tolerances_come_from_the_checks():
    reports = {r.relation: r for r in gz_suite(2, trials=2, seed=3)}
    assert reports["whittaker-equations"].tolerance == 1e-9
    assert reports["spherical-equation"].tolerance == 1e-8
    assert reports["measure-difference-eq"].tolerance == 1e-10
    reports = gz_suite(2, trials=2, seed=3, tol=1e-3)
    assert all(r.tolerance == 1e-3 for r in reports if r.residual is not None)
    with pytest.raises(ValueError):
        gz_suite(2, trials=0)


def test_gz_measure_basics():
    assert gz_measure(_point([[0.5], [1.0, -1.0]])) == 1.0  # no level pairs
    arr = _point([[0.2], [0.9, -0.3], [1.0, 0.0, -1.0]])
    a, b = 0.9, -0.3
    expect = (a - b) * (math.exp(2 * math.pi * b) - math.exp(2 * math.pi * a))
    assert abs(gz_measure(arr) - expect) < 1e-12 * abs(expect)
    # swapping a within-level pair leaves each factor invariant
    arr2 = _point([[0.2], [-0.3, 0.9], [1.0, 0.0, -1.0]])
    assert abs(gz_measure(arr2) - gz_measure(arr)) < 1e-12 * abs(expect)


def test_gz_measure_sign_on_sorted_levels():
    rng = random.Random(13)
    for _ in range(20):
        arr = sample_real_array(4, rng)
        sorted_arr = TriangularArray([sorted(l, reverse=True)
                                     for l in arr.levels])
        v = gz_measure(sorted_arr)
        assert abs(v.imag) == 0.0 and v.real >= 0.0


def test_gz_measure_difference_eq():
    arr = _point([[0.5], [0.9, -0.2]])
    assert check_gz_measure_difference_eq(2, arr, 0) == 0.0
    arr3 = _point([[0.4], [0.8, -0.6], [1.0, 0.0, -1.0]])
    for j in range(3):
        assert check_gz_measure_difference_eq(3, arr3, j) < 1e-12
    with pytest.raises(PoleError):
        check_gz_measure_difference_eq(
            3, _point([[0.4], [0.5, 0.5], [1.0, 0.0, -1.0]]), 1)


def test_cartan_multiplier():
    arr = _point([[0.3], [0.9, -0.4]])
    assert cartan_multiplier([0.0, 0.0], arr) == 1.0
    one = _point([[0.7]])
    assert abs(cartan_multiplier([2.0], one) - cmath.exp(1j * 1.4)) < 1e-15
    got = cartan_multiplier([1.0, -1.0], arr)
    expect = cmath.exp(1j * (0.3 - (0.9 - 0.4 - 0.3)))
    assert abs(got - expect) < 1e-14
