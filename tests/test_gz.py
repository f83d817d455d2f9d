import cmath
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from quantoda import gz
from quantoda.gz import (GENERATOR_PREFACTOR, MEASURE_TOL, VECTORS, Coefficient,
                         DifferenceOperator, TriangularArray,
                         cartan_multiplier, check_gl_relations,
                         check_gz_measure_difference_eq, check_serre,
                         check_spherical_equation, check_whittaker_equations,
                         gz_generator, gz_measure, gz_suite,
                         separated_block, spherical_vector,
                         vector_shift_ratio, whittaker_vector)
from quantoda.rationals import LANES_PER_TRIAL, TRIALS_PER_BLOCK, FpLanes, random_lanes
from quantoda.report import residual_report
from quantoda.separation import (check_dif_equation, check_measure_difference_eq,
                                 sep_measure, separation_suite)
from quantoda.specfun import PoleError, gamma


def _point(levels):
    return TriangularArray(levels)


def test_triangular_array_shape_enforced():
    with pytest.raises(ValueError):
        TriangularArray([[1.0, 2.0]])
    arr = _point([[0.1], [0.5, -0.5]])
    assert arr.N == 2 and arr.get(2, 1) == 0.5


def _fp(num, den=1):
    """The rational num/den in F_p, lane by lane for arrays."""
    return FpLanes(num) / FpLanes(den)


def test_diagonal_generator_multiplies():
    # E_11 at N=2 is multiplication by lambda_11 / i
    op = gz_generator("diagonal", 1, 2)
    ((shift, factors), c), = op.terms.items()
    assert shift == () and c == (1, 0)
    (coeff, at), = factors
    assert at == () and coeff.shift == ()
    lam = _fp(np.array([3, 5, -7]), np.array([2, 3, 4]))
    arr = _point([[lam], [_fp(1), _fp(np.array([-2, 4, 9]))]])
    assert coeff(arr) == FpLanes(0, -1) * lam
    assert op.evaluate_on_test(arr, {(1, 1): _fp(np.array([5, 6, 7]))}) == \
        FpLanes(0, -1) * lam
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
    lam = _fp(np.array([1, 2, -5]), np.array([3, 5, 3]))
    a1, a2 = _fp(np.array([2, 3, 0])), _fp(-1)
    arr = _point([[lam], [a1, a2]])
    ih = FpLanes(0, 1) / 2
    want = FpLanes(0, 1) * (lam - a1 - ih) * (lam - a2 - ih)
    assert coeff(arr) == want
    # on the test function the shift by -i contributes beta^{-1}
    beta = _fp(np.array([7, 1, 4]), 3)
    assert op.evaluate_on_test(arr, {(1, 1): beta}) == want / beta
    num = 1j * (1 / 3 - 2 - 0.5j) * (1 / 3 + 1 - 0.5j)
    assert abs(coeff(_point([[1 / 3], [2.0, -1.0]])) - num) < 1e-14


def test_lowering_generator_n2_is_constant_shift():
    op = gz_generator("lower", 1, 2)
    ((shift, factors), c), = op.terms.items()
    assert shift == (((1, 1), 1),)
    (coeff, _), = factors
    arr = _point([[_fp(np.array([5, 6]))], [_fp(1), _fp(2)]])
    assert coeff(arr) == FpLanes(0, -1)
    assert coeff(_point([[5.0], [1.0, 2.0]])) == complex(0, -1)


def test_generator_index_errors():
    with pytest.raises(IndexError):
        gz_generator("raise", 2, 2)
    with pytest.raises(IndexError):
        gz_generator("diagonal", 4, 3)
    with pytest.raises(ValueError):
        gz_generator("sideways", 1, 3)


LANES = 4


def _rational_arr(rng, N):
    """Small rationals, distinct within each level of each lane."""
    levels = []
    for n in range(1, N + 1):
        rows = []
        for _ in range(LANES):
            row = []
            while len(row) < n:
                v = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                if v not in row:
                    row.append(v)
            rows.append(row)
        levels.append([_fp(np.array([r[j].numerator for r in rows]),
                           np.array([r[j].denominator for r in rows]))
                       for j in range(n)])
    return TriangularArray(levels)


def _betas(rng, N):
    def draw(hi):
        return np.array([rng.randint(1, hi) for _ in range(LANES)])
    return {(n, j): _fp(draw(30), draw(5))
            for n in range(1, N) for j in range(1, n + 1)}


def test_compose_identity_and_zero():
    a = gz_generator("raise", 1, 3)
    ident = DifferenceOperator.identity()
    zero = DifferenceOperator()
    rng = random.Random(0)
    arr, beta = _rational_arr(rng, 3), _betas(rng, 3)
    assert (ident * a).evaluate_on_test(arr, beta) == \
        a.evaluate_on_test(arr, beta)
    assert (a * ident).terms == a.terms
    assert (zero * a).evaluate_on_test(arr, beta) == FpLanes(0, 0)
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
        assert diff.evaluate_on_test(arr, beta) == FpLanes(0, 0)
        # without the -e the bracket is not zero, in any lane
        assert not h.commutator(e).evaluate_on_test(arr, beta).zeros().any()


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
    for N in (2, 3, 4):
        rep = check_gl_relations(N, trials=3, seed=1)
        assert rep.status == "FAIL" and "[E1,F1]: trial 0: " in rep.witness


def test_a_perturbed_diagonal_generator_fails_its_h_relations(monkeypatch):
    # 2 H_N breaks [H_N, E_{N-1}] = -E_{N-1} and [H_N, F_{N-1}] = F_{N-1}:
    # the check must bracket every H_n, n = N included, with E and F
    plain = gz.gz_generator

    def doubled_top(kind, n, N):
        op = plain(kind, n, N)
        return op.scaled(2) if (kind, n) == ("diagonal", N) else op

    monkeypatch.setattr(gz, "gz_generator", doubled_top)
    for N in (2, 3):
        rep = check_gl_relations(N, trials=3, seed=1)
        assert rep.status == "FAIL"
        for label in (f"[H{N},E{N - 1}]", f"[H{N},F{N - 1}]"):
            assert f"{label}: trial 0: " in rep.witness, (N, label)
        assert f"[H{N - 1}," not in rep.witness


def test_a_perturbed_first_diagonal_generator_fails_its_h_relations(monkeypatch):
    # 2 H_1 breaks [H_1, E_1] = E_1 and [H_1, F_1] = -F_1: the check must
    # bracket H_1 too
    plain = gz.gz_generator

    def doubled_first(kind, n, N):
        op = plain(kind, n, N)
        return op.scaled(2) if (kind, n) == ("diagonal", 1) else op

    monkeypatch.setattr(gz, "gz_generator", doubled_first)
    for N in (2, 3):
        rep = check_gl_relations(N, trials=3, seed=1)
        assert "[H1,E1]: trial 0: " in rep.witness and "[H1,F1]: trial 0: " in rep.witness
        assert "[H2," not in rep.witness


@pytest.mark.parametrize("tilted, h, broken, intact", [
    (2, 1, "serre-raise(2,1)", "serre-raise(1,2)"),
    (1, 2, "serre-raise(1,2)", "serre-raise(2,1)")])
def test_a_perturbed_raising_generator_fails_its_serre_relation(monkeypatch, tilted, h,
                                                                 broken, intact):
    # E_2 + H_1 in place of E_2 leaves [E_1, [E_1, E_2]] = 0 but makes
    # [E_2, [E_2, E_1]] = 2[E_2, E_1] + E_1, and E_1 + H_2 in place of E_1
    # the other way round: the check must reach n = 1 and m = 1
    plain = gz.gz_generator

    def tilt(kind, n, N):
        op = plain(kind, n, N)
        return op + plain("diagonal", h, N) if (kind, n) == ("raise", tilted) else op

    monkeypatch.setattr(gz, "gz_generator", tilt)
    for N in (3, 4):
        rep = check_serre(N, trials=3, seed=1)
        assert rep.status == "FAIL" and f"{broken}: trial 0: " in rep.witness
        assert intact not in rep.witness and "lower" not in rep.witness


class _FailsAtLane:
    """Stands in for a `TermTable` whose "operators" are global lane numbers:
    operator i is nonzero at lane ops[i] alone."""

    def __init__(self, N, ops):
        self.lanes, self.first = list(ops), 0

    def values(self, x, beta):
        count = x.shape[1]
        re = np.zeros((len(self.lanes), count), dtype=np.int64)
        for i, lane in enumerate(self.lanes):
            if self.first <= lane < self.first + count:
                re[i, lane - self.first] = 1
        self.first += count
        return re, np.zeros_like(re)


def test_failure_in_a_later_block_names_its_global_trial(monkeypatch):
    monkeypatch.setattr(gz, "TermTable", _FailsAtLane)
    block = LANES_PER_TRIAL * TRIALS_PER_BLOCK
    trials = 2 * TRIALS_PER_BLOCK + 1
    rep, other = gz._check_zero(2, trials, 0, [
        ("stub", [("late", block + 7),  # second block, trial TRIALS_PER_BLOCK + 2
                  ("early", 4),         # first block, trial 1
                  ("never", -1)]),
        ("other", [("never", -1)])])
    assert (other.relation, other.status, other.witness) == ("other", "PASS", None)
    assert rep.relation == "stub" and rep.status == "FAIL"
    late_w, early_w = rep.witness.split("; ")
    assert late_w.startswith(f"late: trial {TRIALS_PER_BLOCK + 2}: value FpLanes(1, 0) at ")
    assert early_w.startswith("early: trial 1: value FpLanes(1, 0) at ")


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_suite_relation_reports_are_the_standalone_checks(N):
    # gz_suite evaluates both families in one table over one pass of
    # blocks; each family alone makes its own table, as the checks did
    for trials in (1, 7, 20):
        for seed in (0, 11, 48001):
            want = [check_gl_relations(N, trials, seed), check_serre(N, trials, seed)]
            assert gz_suite(N, trials, seed)[:2] == want, (trials, seed)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_failing_suite_relation_reports_are_the_standalone_checks(monkeypatch, N):
    # the flipped E prefactor breaks [E_n, F_n] alone (Serre relations are
    # homogeneous in E); E_1 + H_2 in place of E_1 breaks Serre as well
    plain = gz.gz_generator

    def tilt(kind, n, N):
        op = plain(kind, n, N)
        return op + plain("diagonal", 2, N) if (kind, n) == ("raise", 1) else op

    for patch in ("prefactor", "tilt"):
        with monkeypatch.context() as m:
            if patch == "prefactor":
                m.setitem(GENERATOR_PREFACTOR, "raise", (0, -1))
            else:
                m.setattr(gz, "gz_generator", tilt)
            for trials, seed in ((1, 0), (7, 11), (20, 48001)):
                got = gz_suite(N, trials, seed)[:2]
                assert got == [check_gl_relations(N, trials, seed),
                               check_serre(N, trials, seed)], (patch, trials, seed)
                assert got[0].status == "FAIL" and "[E1,F1]: trial 0: value " in got[0].witness
                assert got[1].passed == (patch == "prefactor" or N == 2)


def test_one_pass_difference_and_commutator_are_product_then_combine(monkeypatch):
    # a - b and [a, b] without a negated copy or a second product give the
    # terms, in order, of a + (-b) and a*b + (-(b*a)), for every operator
    # the suite and the vector checks build and for random products
    plain_sub, plain_commutator = DifferenceOperator.__sub__, DifferenceOperator.commutator
    seen = []

    def same(got, want):
        assert list(got.terms.items()) == list(want.terms.items())
        seen.append(len(got.terms))
        return got

    monkeypatch.setattr(DifferenceOperator, "__sub__",
                        lambda a, b: same(plain_sub(a, b), a + b.scaled(-1)))
    monkeypatch.setattr(DifferenceOperator, "commutator",
                        lambda a, b: same(plain_commutator(a, b), a * b + (b * a).scaled(-1)))
    for N in (2, 3, 4, 5):
        for relations in gz._RELATIONS.values():
            assert all(isinstance(op, DifferenceOperator) for _, op in relations(N))
        for n in range(1, N):
            gz_generator("raise", n, N) - gz_generator("lower", n, N)
        rng = random.Random(90 + N)
        gens = ([gz_generator("diagonal", n, N) for n in range(1, N + 1)]
                + [gz_generator(kind, n, N) for kind in ("raise", "lower") for n in range(1, N)])
        for _ in range(60):
            a, b = rng.choice(gens), rng.choice(gens) * rng.choice(gens)
            a.commutator(b) - b
            b.commutator(a.commutator(rng.choice(gens)))
    assert len(seen) > 500 and max(seen) > 100


def _lanes_and_betas(rng, N, lanes):
    """A drawn array and its betas, as `FpLanes` and as the table's int64 rows."""
    levels = [random_lanes(rng, lanes, n) for n in range(1, N + 1)]
    arr = TriangularArray([[FpLanes(e) for e in level] for level in levels])
    slots = [(n, j) for n in range(1, N) for j in range(1, n + 1)]
    b = random_lanes(rng, lanes, len(slots), 1)
    return arr, dict(zip(slots, map(FpLanes, b))), np.concatenate(levels), b


@pytest.mark.parametrize("N", [2, 3, 4])
def test_term_table_matches_the_per_operator_evaluation(N):
    rng = random.Random(60 + N)
    gens = ([gz_generator("diagonal", n, N) for n in range(1, N + 1)]
            + [gz_generator(kind, n, N) for kind in ("raise", "lower") for n in range(1, N)])

    def random_op(depth):
        op = rng.choice(gens)
        for _ in range(depth - 1):
            other = rng.choice(gens)
            op = op.commutator(other) if rng.random() < 0.5 else op * other
        return op

    ops = [random_op(depth) for depth in (1, 2, 3) for _ in range(5)]
    # the same terms under other constants: nonzero values, mostly
    ops += [DifferenceOperator({key: (rng.randint(-9, 9), rng.randint(-9, 9))
                                for key in op.terms}) for op in ops[5:]]
    arr, beta, x, b = _lanes_and_betas(rng, N, 7)
    re, im = gz.TermTable(N, ops).values(x, b)
    assert re.shape == im.shape == (len(ops), 7)
    for i, op in enumerate(ops):
        assert FpLanes(re[i], im[i]) == op.evaluate_on_test(arr, beta), i
    assert not all(FpLanes(re[i], im[i]) == 0 for i in range(len(ops)))
    # operators without factors or without terms
    re, im = gz.TermTable(N, [DifferenceOperator.identity().scaled((2, 3)),
                              DifferenceOperator()]).values(x, b)
    assert FpLanes(re[0], im[0]) == FpLanes(2, 3) and not (re[1] | im[1]).any()
    if N == 2:
        return
    # lane 3 with lambda_21 = lambda_22: E_2's unshifted denominator is 0
    raise2 = gz_generator("raise", 2, N)
    x[1, 3] = x[2, 3]
    arr = TriangularArray([row if n != 1 else (FpLanes(x[1]), row[1])
                           for n, row in enumerate(arr.levels)])
    assert list(np.flatnonzero((arr.get(2, 1) - arr.get(2, 2)).zeros())) == [3]
    with pytest.raises(ZeroDivisionError):
        raise2.evaluate_on_test(arr, beta)
    table = gz.TermTable(N, [gz_generator("diagonal", 1, N), raise2])
    with pytest.raises(ZeroDivisionError):
        table.values(x, b)


@pytest.mark.parametrize("check", [check_gl_relations, check_serre])
def test_relation_checks_refuse_fewer_than_one_trial(check):
    for trials in (0, -5):
        with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
            check(3, trials=trials, seed=1)
    # at N = 2 Serre has no relation, yet the count is still refused
    with pytest.raises(ValueError, match="got 0"):
        check(2, trials=0)


def test_gl_relations_and_serre():
    assert check_gl_relations(2, trials=10, seed=1).passed
    assert check_gl_relations(3, trials=10, seed=1).passed
    assert check_serre(3, trials=10, seed=1).passed
    # vacuous at N=2: no pairs, still PASS
    assert check_serre(2, trials=5, seed=1).passed


def test_relation_checks_called_bare_are_the_suites_reports(monkeypatch):
    # the checks' default trials and seed are gz_suite's: with a flipped E
    # prefactor, the witness names the drawn array, which both set
    monkeypatch.setitem(GENERATOR_PREFACTOR, "raise", (0, -1))
    suite = gz_suite(3)
    assert suite[0].status == "FAIL"
    assert [check_gl_relations(3), check_serre(3)] == suite[:2]


def test_whittaker_vector_values():
    assert whittaker_vector(_point([[0.4]])) == 1.0  # empty product
    arr = _point([[0.3], [0.9, -0.4]])
    expect = gamma(-1j * (0.3 - 0.9) + 0.5) * gamma(-1j * (0.3 + 0.4) + 0.5)
    got = whittaker_vector(arr)
    assert abs(got - expect) < 1e-13 * abs(expect)


def separated_uniforms(rng, count, low, high, gap):
    """`separated_block`'s reference, one draw by the per-value loop: count
    uniforms on [low, high - (count-1) gap], sorted, shifted by k gap and
    shuffled, with `random.Random`'s own `uniform` and `shuffle`."""
    span = high - low - (count - 1) * gap
    if span < 0:
        raise ValueError(f"{count} values at least {gap} apart do not fit "
                         f"in [{low}, {high}]")
    vals = sorted(rng.uniform(low, low + span) for _ in range(count))
    vals = [v + k * gap for k, v in enumerate(vals)]
    rng.shuffle(vals)
    return vals


def sample_real_array(N, rng, low=-2.0, high=2.0):
    """Random real array with within-level pairwise gaps >= 0.1: the one-row
    case of `gz_suite`'s stacks, with float entries."""
    return TriangularArray([b[0].tolist() for b in
                            separated_block(rng, 1, range(1, N + 1), low, high, 0.1)])


def stack_arrays(arrays):
    """One array whose entries are numpy arrays with one element per given
    array, in order: the numerical checks take it for all of them at once."""
    return TriangularArray([[np.array([a.get(n, j) for a in arrays]) for j in range(1, n + 1)]
                            for n in range(1, arrays[0].N + 1)])


def test_separated_uniforms_match_the_rejection_sampler():
    rng = random.Random(8)
    for count in range(6):
        vals = separated_block(rng, 1, [count], -1.0, 1.0, 0.3)[0][0].tolist()
        assert len(vals) == count and all(-1.0 <= v <= 1.0 for v in vals)
        assert all(abs(a - b) >= 0.3 - 1e-12
                   for i, a in enumerate(vals) for b in vals[i + 1:])
    # 61 values 0.1 apart need 6 of the 4 units: an error, not a hang
    with pytest.raises(ValueError, match="do not fit"):
        separated_block(rng, 1, [61], -2.0, 2.0, 0.1)
    # same law as redrawing until every gap holds: compare the mean of each
    # order statistic and of the first (unsorted) value
    draws = 4000

    def rejection():
        while True:
            vals = [rng.uniform(0.0, 1.0) for _ in range(3)]
            if all(abs(a - b) >= 0.2 for i, a in enumerate(vals) for b in vals[i + 1:]):
                return vals

    block, = separated_block(rng, draws, [3], 0.0, 1.0, 0.2)
    for samples in ([rejection() for _ in range(draws)], block.tolist()):
        means = [sum(sorted(v)[k] for v in samples) / draws for k in range(3)]
        # sorted: uniforms on [0, 0.6] shifted by 0, 0.2, 0.4
        assert all(abs(m - want) < 0.01 for m, want in zip(means, (0.15, 0.5, 0.85)))
        assert abs(sum(v[0] for v in samples) / draws - 0.5) < 0.015


# (low, high, gap) of the suites' draws: gz's two stacks, then separation's
_SUITE_RANGES = [(-2.0, 2.0, 0.1), (-1.0, 1.0, 0.1), (-3.0, 3.0, 1e-2)]


@pytest.mark.parametrize("low, high, gap", _SUITE_RANGES)
@pytest.mark.parametrize("rows", [1, 2, 3, 7, 20, 64, 100])
def test_separated_block_is_the_per_value_stream(low, high, gap, rows):
    plans = [[c] for c in range(8)] + [list(range(1, N + 1)) for N in range(1, 6)]
    plans += [[7, 0, 3, 1, 5], []]
    for seed, counts in enumerate(plans):
        old, new = random.Random(1000 * rows + seed), random.Random(1000 * rows + seed)
        want = [[separated_uniforms(old, c, low, high, gap) for c in counts]
                for _ in range(rows)]
        got = separated_block(new, rows, counts, low, high, gap)
        assert len(got) == len(counts)
        for k, (c, block) in enumerate(zip(counts, got)):
            assert block.shape == (rows, c) and block.dtype == np.float64
            assert block.tobytes() == np.array([w[k] for w in want], dtype=np.float64
                                               ).reshape(rows, c).tobytes()
        assert new.random() == old.random()


def test_separated_block_refuses_before_any_draw():
    rng = random.Random(5)
    state = rng.getstate()
    for counts in ([61], [1, 2, 61], [3, 42, 1]):
        with pytest.raises(ValueError, match=f"{max(counts)} values at least 0.1 apart "
                                             r"do not fit in \[-2.0, 2.0\]"):
            separated_block(rng, 4, counts, -2.0, 2.0, 0.1)
        assert rng.getstate() == state


def test_separated_block_takes_an_exact_fit():
    # three values 0.5 apart fill [0, 1] exactly: span 0, and every row is
    # a permutation of (0, 0.5, 1)
    old, new = random.Random(6), random.Random(6)
    block, = separated_block(new, 9, [3], 0.0, 1.0, 0.5)
    assert block.tolist() == [separated_uniforms(old, 3, 0.0, 1.0, 0.5) for _ in range(9)]
    assert all(sorted(row) == [0.0, 0.5, 1.0] for row in block.tolist())
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_sample_real_array_is_the_per_value_draw(N):
    old, new = random.Random(60 + N), random.Random(60 + N)
    for low, high in ((-2.0, 2.0), (-1.0, 1.0)):
        want = [separated_uniforms(old, n, low, high, 0.1) for n in range(1, N + 1)]
        arr = sample_real_array(N, new) if low == -2.0 else sample_real_array(N, new, low, high)
        assert arr.levels == tuple(map(tuple, want))
        assert all(type(v) is float for row in arr.levels for v in row)
    assert new.getstate() == old.getstate()


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_gz_suite_samples_are_the_per_value_draws(N):
    trials, seed = 3, 40 + N
    rng = random.Random(seed)
    stacks = [stack_arrays([TriangularArray([separated_uniforms(rng, n, low, high, 0.1)
                                             for n in range(1, N + 1)])
                            for _ in range(trials)])
              for low, high in ((-2.0, 2.0), (-1.0, 1.0))]
    worst_mu = max((check_gz_measure_difference_eq(stacks[1], j)
                    for j in range(N * (N - 1) // 2)), default=0.0)
    assert gz_suite(N, trials, seed)[2:] == [
        replace(check_whittaker_equations(stacks[0]), seed=seed),
        replace(check_spherical_equation(stacks[0]), seed=seed),
        residual_report("gz", N, "measure-difference-eq", worst_mu, MEASURE_TOL, seed=seed)]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("trials", [1, 7, 100])
def test_separation_suite_samples_are_the_per_value_draws(N, trials):
    seed = 50 + N
    rng = random.Random(seed)

    def points(count):
        return np.array([separated_uniforms(rng, count, -3.0, 3.0, 1e-2)
                         for _ in range(trials)]).reshape(trials, count).T

    cols = points(2 * N - 1)
    dif = max((check_dif_equation(cols[:N], cols[N:], j) for j in range(N - 1)),
              default=0.0)
    meas = 0.0
    if N >= 3:
        lam = points(N - 1)
        meas = max(check_measure_difference_eq(lam, j) for j in range(N - 1))
    assert separation_suite(N, trials, seed)[:2] == [
        residual_report("separation", N, "dif-equation", dif, 1e-12, seed=seed),
        residual_report("separation", N, "measure-difference-eq", meas, 1e-10, seed=seed)]


def test_whittaker_equations_close():
    rng = random.Random(21)
    for N in (2, 3):
        for _ in range(5):
            arr = sample_real_array(N, rng)
            rep = check_whittaker_equations(arr)
            assert rep.residual < 1e-9


def test_a_perturbed_raising_generator_fails_the_whittaker_equations(monkeypatch):
    # 2 E_{1,2} w = -2i w misses -i w by |w| at level 1, which every N has
    plain = gz.gz_generator
    monkeypatch.setattr(gz, "gz_generator", lambda kind, n, N: (
        plain(kind, n, N).scaled(2) if (kind, n) == ("raise", 1) else plain(kind, n, N)))
    rng = random.Random(21)
    for N in (2, 3):
        rep = check_whittaker_equations(sample_real_array(N, rng))
        assert rep.status == "FAIL" and abs(rep.residual - 1.0) < 1e-9


def test_spherical_vector_and_equation():
    arr = _point([[0.3], [0.9, -0.4]])
    bare = gamma((0.3 - 0.9) / 2j + 0.25) * gamma((0.3 + 0.4) / 2j + 0.25)
    # the normalizer is the modulus-one factor 2^{-i lam} per variable
    full = spherical_vector(arr)
    assert abs(full - bare * cmath.exp(-1j * math.log(2.0) * 0.3)) < 1e-13 * abs(bare)
    rng = random.Random(4)
    for N in (2, 3):
        for _ in range(5):
            rep = check_spherical_equation(sample_real_array(N, rng))
            assert rep.residual < 1e-8


@pytest.mark.parametrize("N", [2, 3, 4])
def test_vector_shift_ratio_matches_vector_quotient(N):
    # the pair-local ratio against the whole vectors, every single-slot
    # shift by +-i and +-2i (top level included)
    rng = random.Random(40 + N)
    vectors = {"w": whittaker_vector, "phi": spherical_vector}
    for _ in range(3):
        arr = sample_real_array(N, rng)
        for kind, vector in vectors.items():
            for n in range(1, N + 1):
                for j in range(1, n + 1):
                    for k in (1, -1, 2, -2):
                        shift = (((n, j), k),)
                        want = vector(arr.shifted(shift)) / vector(arr)
                        got = vector_shift_ratio(kind, arr, shift)
                        assert abs(got - want) <= 1e-12 * abs(want), (kind, shift)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_a_stack_gives_the_worst_residual_of_its_arrays(N):
    rng = random.Random(70 + N)
    arrays = [sample_real_array(N, rng) for _ in range(9)]
    stack = stack_arrays(arrays)
    for check in (check_whittaker_equations, check_spherical_equation):
        got = check(stack).residual
        assert type(got) is float
        assert abs(got - max(check(a).residual for a in arrays)) <= 1e-12
    for kind in VECTORS:
        for n, j, k in ((1, 1, 1), (N - 1, 1, -1), (N, N, 1)):
            shift = (((n, j), k),)
            got = vector_shift_ratio(kind, stack, shift)
            want = np.array([vector_shift_ratio(kind, a, shift) for a in arrays])
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (kind, shift)
    # the gap check still looks at every array of the stack
    bad = [list(row) for row in arrays[4].levels]
    bad[N - 2][-1] = bad[N - 2][0]      # level N-1; no pairs below N = 3
    if N == 2:
        return
    with pytest.raises(PoleError):
        check_whittaker_equations(stack_arrays(arrays[:4] + [TriangularArray(bad)]))


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_batched_shift_ratios_are_the_single_shift_ones_bit_for_bit(N):
    # every shift of every relation of the suite: one or several slots,
    # moves of +-1 and +-2
    rng = random.Random(80 + N)
    stack = stack_arrays([sample_real_array(N, rng) for _ in range(7)])
    shifts = list(dict.fromkeys(shift for relations in gz._RELATIONS.values()
                                for _, op in relations(N) for shift, _ in op.terms))
    shifts += [(((N, 1), 1),), (((1, 1), 2), ((N, N), -1))]
    assert max(abs(k) for shift in shifts for _, k in shift) == 2
    for kind in VECTORS:
        got = gz.vector_shift_ratios(kind, stack, shifts)
        assert len(got) == len(shifts)
        for shift, g in zip(shifts, got):
            want = vector_shift_ratio(kind, stack, shift)
            assert np.shape(g) == np.shape(want), (kind, shift)
            assert np.asarray(g).tobytes() == np.asarray(want).tobytes(), (kind, shift)


def test_each_vector_check_takes_one_log_gamma_call(monkeypatch):
    calls = []
    plain = gz.log_gamma_array
    monkeypatch.setattr(gz, "log_gamma_array", lambda z: calls.append(np.size(z)) or plain(z))
    N = 4
    stack = stack_arrays([sample_real_array(N, random.Random(t)) for t in range(5)])
    check_whittaker_equations(stack)
    assert calls == []                  # w's moves are whole: factorials only
    check_spherical_equation(stack)
    # phi: two arguments for each pair a shift moves, for each of 5 arrays;
    # each of the 2n shifts of level n moves 2n pairs (n + 1 above, n - 1 below)
    assert calls == [2 * sum(4 * n * n for n in range(1, N)) * 5]


def test_spherical_normalizer_base_one_fails(monkeypatch):
    # without the 2^{-i lambda} normalizer the compact-generator equation
    # misses by a constant per shift pair
    monkeypatch.setitem(VECTORS, "phi", (2, 1.0))
    rng = random.Random(4)
    for N in (2, 3):
        assert check_spherical_equation(sample_real_array(N, rng)).status == "FAIL"
    reports = {r.relation: r for r in gz_suite(3, trials=2, seed=1)}
    assert reports["spherical-equation"].status == "FAIL"
    assert reports["whittaker-equations"].status == "PASS"


@pytest.mark.parametrize("trials", [0, -5])
def test_gz_suite_refuses_fewer_than_one_trial_before_drawing(monkeypatch, trials):
    # first the trial count, then the stacks (42 values 0.1 apart do not fit
    # in [-2, 2]), then the exact checks
    def no_draw(*args):
        raise AssertionError("drawn before the trial count was checked")
    monkeypatch.setattr(gz, "separated_block", no_draw)
    with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
        gz_suite(42, trials=trials)


@pytest.mark.parametrize("check", [check_gl_relations, check_serre])
@pytest.mark.parametrize("trials", [0, -5])
def test_relation_checks_refuse_fewer_than_one_trial_before_building(monkeypatch, check,
                                                                     trials):
    # at N = 42 building the relations takes minutes and gigabytes: the
    # trial count is refused first
    def no_build(*args):
        raise AssertionError("a relation was built before the trial count was checked")
    monkeypatch.setattr(gz, "gz_generator", no_build)
    monkeypatch.setattr(gz, "_check_zero", no_build)
    with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
        check(42, trials=trials)


def test_gz_suite_accepts_n_up_to_its_limit(monkeypatch):
    # N = GZ_MAX_N passes the guard and reaches the draws (stubbed: the
    # whole suite takes seconds there), N + 1 is refused before them
    class Drawn(Exception):
        pass

    def separated_block(*args):
        raise Drawn
    monkeypatch.setattr(gz, "separated_block", separated_block)
    with pytest.raises(Drawn):
        gz_suite(gz.GZ_MAX_N, trials=1)
    with pytest.raises(ValueError, match="unsupported"):
        gz_suite(gz.GZ_MAX_N + 1, trials=1)


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


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_gz_measure_is_the_separated_measure_level_by_level(N):
    # one within-level factor in three places: gz_measure's pair factor is
    # -2 pi e^{pi(a+b)} times sep_measure's 1/|Gamma(-i d)|^2, which is the
    # d sinh(pi d)/pi of the Mellin-Barnes node sums
    rng = random.Random(70 + N)
    for _ in range(5):
        arr = sample_real_array(N, rng)
        want = 1.0
        for n in range(1, N):
            row = arr.level(n)
            for k, a in enumerate(row):
                for b in row[k + 1:]:
                    d = a - b
                    closed = d * math.sinh(math.pi * d) / math.pi
                    assert abs(sep_measure([a, b]) - closed) <= 1e-13 * closed
                    want *= -2 * math.pi * math.exp(math.pi * (a + b))
            want *= sep_measure(row)
            got = gz_measure(TriangularArray(arr.levels[:n + 1]))
            assert abs(got - want) <= 1e-13 * abs(want)


def test_gz_measure_difference_eq():
    arr = _point([[0.5], [0.9, -0.2]])
    assert check_gz_measure_difference_eq(arr, 0) == 0.0
    arr3 = _point([[0.4], [0.8, -0.6], [1.0, 0.0, -1.0]])
    for j in range(3):
        assert check_gz_measure_difference_eq(arr3, j) < 1e-12
    with pytest.raises(PoleError):
        check_gz_measure_difference_eq(
            _point([[0.4], [0.5, 0.5], [1.0, 0.0, -1.0]]), 1)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stacked_measure_check_is_the_worst_of_its_arrays(N):
    rng = random.Random(90 + N)
    arrays = [sample_real_array(N, rng, low=-1.0, high=1.0) for _ in range(20)]
    stack = stack_arrays(arrays)
    for j in range(len(gz._flat_slots(N))):
        got = check_gz_measure_difference_eq(stack, j)
        each = [check_gz_measure_difference_eq(a, j) for a in arrays]
        assert type(got) is float and all(type(r) is float for r in each)
        assert abs(got - max(each)) <= 1e-15
    mu = gz_measure(stack)
    assert np.all(np.abs(mu - np.array([gz_measure(a) for a in arrays])) <= 1e-12 * np.abs(mu))
    if N == 2:
        return                  # level 1 has no pair to make coincide
    bad = [list(row) for row in arrays[13].levels]
    bad[N - 2][-1] = bad[N - 2][0]
    arrays[13] = TriangularArray(bad)
    with pytest.raises(PoleError):
        check_gz_measure_difference_eq(stack_arrays(arrays), 0)


def test_measure_check_holds_where_the_measure_overflows():
    # the check takes the quotient pair by pair: at N = 16 the product
    # gz_measure overflows, and the check once did with it
    arr = sample_real_array(16, random.Random(3), -1.0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(gz_measure(arr))
    slots = range(16 * 15 // 2)
    assert max(check_gz_measure_difference_eq(arr, j) for j in slots) <= MEASURE_TOL


def test_cartan_multiplier():
    arr = _point([[0.3], [0.9, -0.4]])
    assert cartan_multiplier([0.0, 0.0], arr) == 1.0
    one = _point([[0.7]])
    assert abs(cartan_multiplier([2.0], one) - cmath.exp(1j * 1.4)) < 1e-15
    got = cartan_multiplier([1.0, -1.0], arr)
    expect = cmath.exp(1j * (0.3 - (0.9 - 0.4 - 0.3)))
    assert abs(got - expect) < 1e-14
    for x in ([1.0], [1.0, -1.0, 0.5]):
        with pytest.raises(ValueError, match="one entry per level"):
            cartan_multiplier(x, arr)


def test_vector_shift_ratio_refuses_a_shifted_argument_on_a_pole():
    # lambda_11 - lambda_21 = -3i/2 puts phi's pair argument at -1/2, and the
    # half shift of lambda_11 by i moves it onto the pole at 0; -7i/2 puts
    # it at -3/2, one half step from the pole at -1
    shift = (((1, 1), 1),)
    for near, on in ((-1.4j, -1.5j), (-3.4j, -3.5j)):
        assert np.isfinite(vector_shift_ratio("phi", _point([[near], [0.0, 1.0]]), shift))
        with pytest.raises(PoleError, match="vector shift ratio"):
            vector_shift_ratio("phi", _point([[on], [0.0, 1.0]]), shift)
