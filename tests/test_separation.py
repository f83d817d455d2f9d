import math
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantoda import separation
from quantoda.gz import separated_block
from quantoda.rationals import FpLanes, random_lanes
from quantoda.report import combine
from quantoda.separation import (check_dif_equation, check_lagrange_identity,
                                 check_measure_difference_eq,
                                 measure_shift_multiplier, sep_measure,
                                 sep_wavefunction, separation_suite)
from quantoda.specfun import PoleError, gamma

SINH_PI_OVER_PI = 3.67607791037497772069569749203  # frozen reference


def test_measure_golden_two_variables():
    # prod over the single pair: 1/|Gamma(-i(1-0))|^2 = sinh(pi)/pi
    assert abs(sep_measure([1.0, 0.0]) - SINH_PI_OVER_PI) < 1e-12


def test_wavefunction_is_gamma_product():
    alpha = [0.7, -0.2]
    lam = [0.35]
    expect = gamma(-1j * (0.35 - 0.7)) * gamma(-1j * (0.35 + 0.2))
    assert abs(sep_wavefunction(alpha, lam) - expect) < 1e-13 * abs(expect)


def test_dif_equation_residual_is_rounding():
    assert check_dif_equation([0.3, -0.3], [0.8], 0) < 1e-14
    assert check_dif_equation([1.0, 0.2, -0.7], [0.5, -1.1], 1) < 1e-13


def test_dif_equation_rejects_collision():
    with pytest.raises(PoleError):
        check_dif_equation([0.5, -0.5], [0.5], 0)


@given(st.lists(st.floats(min_value=-2.5, max_value=2.5), min_size=5, max_size=5))
@settings(max_examples=60)
def test_dif_equation_random_points(vals):
    alpha, lam = vals[:3], vals[3:]
    pts = alpha + lam
    if any(abs(pts[a] - pts[b]) < 0.05
           for a in range(5) for b in range(a + 1, 5)):
        return
    assert check_dif_equation(alpha, lam, 0) < 1e-12
    assert check_dif_equation(alpha, lam, 1) < 1e-12


def test_measure_difference_equation():
    assert check_measure_difference_eq([0.9, -0.4], 0) < 1e-14
    assert check_measure_difference_eq([1.3, 0.1, -0.8], 2) < 1e-13


@pytest.mark.parametrize("lam", [
    [0.0, 1j],
    [0.3, 0.3 + 1j, 2.0],
    [np.array([0.0, 0.5]), np.array([1j, -0.2]), np.array([2.0, 1.1])],
], ids=["n2", "n3", "stacked"])
def test_measure_difference_eq_refuses_a_vanishing_multiplier(lam):
    # lambda_k = lambda_j + i zeroes a factor of the multiplier; there the
    # shift ratio Gamma(-z - 1)/Gamma(-z) of z = -i(lambda_j - lambda_k) = -1
    # has a pole, so the measure's shift raises first
    with pytest.raises(PoleError):
        check_measure_difference_eq(lam, 0)


def test_measure_shift_multiplier_two_vars():
    lam = [0.6, -0.2]
    got = measure_shift_multiplier(lam, 0)
    d = lam[0] - lam[1]
    want = (lam[1] - lam[0] - 1j) / d
    assert abs(got - want) < 1e-13


def test_lagrange_identity_exact():
    for N in (2, 3, 4):
        assert check_lagrange_identity(N, trials=50, seed=7).passed


def _divided_lagrange_lhs(u, lam, alpha):
    """The identity's left side as written, with its divisions: the reference
    for the cleared form the check evaluates."""
    one = FpLanes(1)
    lhs = (u - sum(alpha) + sum(lam)) * math.prod((u - l for l in lam), start=one)
    for j, lj in enumerate(lam):
        others = lam[:j] + lam[j + 1:]
        num = math.prod([u - lk for lk in others] + [lj - ak for ak in alpha], start=one)
        lhs += num / math.prod((lj - lk for lk in others), start=one)
    return lhs


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_cleared_lagrange_lhs_is_the_divided_one_times_d(N):
    draws = [FpLanes(row) for row in random_lanes(random.Random(50 + N), 12, 2 * N)]
    u, lam, alpha = draws[0], draws[1:N], draws[N:]
    d = math.prod((a - b for a, b in permutations(lam, 2)), start=FpLanes(1))
    assert not d.zeros().any()
    reference = _divided_lagrange_lhs(u, lam, alpha)
    lhs, D = separation._lagrange_lhs(u, lam, alpha)
    assert lhs == reference * d and (d == 1 if D is None else D == d)
    assert reference == math.prod((u - a for a in alpha), start=FpLanes(1))


def test_misprinted_lagrange_identity_fails(monkeypatch):
    # drop the + sum_j lambda_j term: the F_p[i] check must catch it
    cleared = separation._lagrange_lhs

    def misprinted(u, lam, alpha):
        lhs, d = cleared(u, lam, alpha)
        return lhs - sum(lam) * math.prod((u - l for l in lam), start=1), d

    monkeypatch.setattr(separation, "_lagrange_lhs", misprinted)
    for N in (2, 3, 4):
        rep = check_lagrange_identity(N, trials=5, seed=7)
        assert rep.status == "FAIL" and rep.witness.startswith("trial 0: u=FpLanes(")


@pytest.mark.parametrize("trials", [0, -5])
def test_lagrange_identity_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        check_lagrange_identity(3, trials=trials)


@pytest.mark.parametrize("trials", [0, -5])
def test_suite_refuses_fewer_than_one_trial_before_drawing(monkeypatch, trials):
    def no_draw(*args):
        raise AssertionError("drawn before the trial count was checked")
    monkeypatch.setattr(separation, "separated_block", no_draw)
    monkeypatch.setattr(separation, "random_lanes", no_draw)
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        separation_suite(3, trials=trials)



def test_suite_refuses_points_that_do_not_fit(monkeypatch):
    # 2N - 1 = 603 points 0.01 apart need 6.02 of [-3, 3]: refused before
    # the Lagrange check runs
    def lagrange(*args):
        raise AssertionError("the Lagrange identity ran before the points were drawn")
    monkeypatch.setattr(separation, "check_lagrange_identity", lagrange)
    with pytest.raises(ValueError, match=r"^603 values at least 0\.01 apart do not fit "
                                         r"in \[-3\.0, 3\.0\]$"):
        separation_suite(302, trials=1)

@pytest.mark.parametrize("trials, lagrange_trials", [(7, 7), (50, 50), (51, 50), (100, 50)])
def test_suite_runs_the_lagrange_identity_on_at_most_50_trials(monkeypatch, trials,
                                                               lagrange_trials):
    calls = []
    monkeypatch.setattr(separation, "check_lagrange_identity", lambda *args: calls.append(args))
    separation_suite(3, trials=trials, seed=5)
    assert calls == [(3, lagrange_trials, 5)]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_suite_checks_every_separated_variable(monkeypatch, N):
    # each residual check runs once per j = 0 .. N-2, on all its points at once
    calls = {"dif": [], "measure": []}
    dif, measure = separation.check_dif_equation, separation.check_measure_difference_eq
    monkeypatch.setattr(separation, "check_dif_equation",
                        lambda alpha, lam, j: calls["dif"].append(j) or dif(alpha, lam, j))
    monkeypatch.setattr(separation, "check_measure_difference_eq",
                        lambda lam, j: calls["measure"].append(j) or measure(lam, j))
    separation_suite(N, trials=5, seed=2)
    assert calls == {"dif": list(range(N - 1)), "measure": list(range(N - 1))}


def test_suite_shape_and_status():
    reports = separation_suite(3, trials=30, seed=5)
    assert combine(reports) == "PASS"
    assert {r.relation for r in reports} == {
        "dif-equation", "measure-difference-eq", "lagrange"}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stacked_residuals_are_the_worst_of_their_points(N):
    rng = random.Random(30 + N)
    block, = separated_block(rng, 20, [2 * N - 1], -3.0, 3.0, 1e-2)
    pts = block.tolist()
    cols = block.T
    for j in range(N - 1):
        got = check_dif_equation(cols[:N], cols[N:], j)
        each = [check_dif_equation(p[:N], p[N:], j) for p in pts]
        assert type(got) is float and all(type(r) is float for r in each)
        assert abs(got - max(each)) <= 1e-15
        got = check_measure_difference_eq(cols[N:], j)
        each = [check_measure_difference_eq(p[N:], j) for p in pts]
        assert type(got) is float and all(type(r) is float for r in each)
        assert abs(got - max(each)) <= 1e-15
    # one coincident point among the 20 is refused
    alpha_hit = [list(p) for p in pts]
    alpha_hit[11][N] = alpha_hit[11][0]                 # lambda_0 = alpha_0
    cols = np.array(alpha_hit).T
    with pytest.raises(PoleError):
        check_dif_equation(cols[:N], cols[N:], 0)
    if N == 2:
        return                  # one lambda: no pair to make coincide
    lam_hit = [list(p) for p in pts]
    lam_hit[11][N + 1] = lam_hit[11][N]                 # lambda_1 = lambda_0
    with pytest.raises(PoleError):
        check_measure_difference_eq(np.array(lam_hit).T[N:], 0)
