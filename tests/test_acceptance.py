"""End-to-end acceptance checks.

Each test covers one headline guarantee, prints a single PASS/FAIL line
with the measured figure, and enforces a runtime budget where stated.
Run with -s to see the lines as they are produced.
"""

import itertools
import random
import time

import numpy as np
from test_gz import sample_real_array

from quantoda.cli import dispatch
from quantoda.gz import (check_gl_relations, check_serre,
                         check_gz_measure_difference_eq,
                         check_spherical_equation, check_whittaker_equations,
                         _flat_slots)
from quantoda.harish_chandra import (WeylPermutation,
                                     b_denominator, c_s, m_b_compatibility,
                                     m_elementary, m_function,
                                     plancherel_density)
from quantoda.mellin_barnes import whittaker_eval, whittaker_recursive
from quantoda.oracle import GridSpec, check_eigen, whittaker_vs_ode_ratio
from quantoda.report import combine
from quantoda.separation import (check_dif_equation, check_lagrange_identity,
                                 check_measure_difference_eq)
from quantoda.weyl import qism_suite

import io


def _line(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_qism_exact_suite():
    t0 = time.monotonic()
    statuses = [combine(qism_suite(N)) for N in (2, 3, 4, 5)]
    dt = time.monotonic() - t0
    ok = statuses == ["PASS"] * 4 and dt < 60.0
    _line(1, ok, f"exact Lax/monodromy identities N=2,3,4,5 all "
                 f"{statuses}, {dt:.1f}s (< 60s)")


def test_criterion_02_gz_relation_suite():
    t0 = time.monotonic()
    reports = []
    for N in (2, 3, 4, 5):
        reports.append(check_gl_relations(N, trials=20, seed=11))
        reports.append(check_serre(N, trials=20, seed=11))
    dt = time.monotonic() - t0
    ok = combine(reports) == "PASS" and dt < 120.0
    _line(2, ok, f"difference-operator gl relations and Serre relations "
                 f"N=2,3,4,5, 20 exact trials each: {combine(reports)}, "
                 f"{dt:.1f}s (< 120s)")


def test_criterion_03_vector_equations():
    rng = random.Random(31)
    worst_w = worst_s = 0.0
    for N in (2, 3):
        for _ in range(25):
            arr = sample_real_array(N, rng)
            worst_w = max(worst_w, check_whittaker_equations(arr).residual)
            worst_s = max(worst_s, check_spherical_equation(arr).residual)
    ok = worst_w <= 1e-9 and worst_s <= 1e-8
    _line(3, ok, f"vector difference equations over 50 random arrays: "
                 f"Whittaker residual {worst_w:.2e} (<= 1e-9), "
                 f"spherical residual {worst_s:.2e} (<= 1e-8)")


def test_criterion_04_separation_suite():
    rng = random.Random(17)
    worst_dif = worst_mu = 0.0
    for _ in range(50):
        N = rng.choice((2, 3))
        while True:
            pts = [rng.uniform(-2, 2) for _ in range(2 * N - 1)]
            if all(abs(a - b) > 0.08 for a, b in
                   itertools.combinations(pts, 2)):
                break
        alpha, lam = pts[:N], pts[N:]
        for j in range(N - 1):
            worst_dif = max(worst_dif, check_dif_equation(alpha, lam, j))
            worst_mu = max(worst_mu, check_measure_difference_eq(lam, j))
        arr = sample_real_array(N, rng, low=-1.0, high=1.0)
        for j in range(len(_flat_slots(N))):
            worst_mu = max(worst_mu,
                           check_gz_measure_difference_eq(arr, j))
    lagr = [check_lagrange_identity(N, trials=50, seed=23) for N in (2, 3, 4)]
    ok = (worst_dif <= 1e-12 and worst_mu <= 1e-10
          and combine(lagr) == "PASS")
    _line(4, ok, f"separated difference equation residual {worst_dif:.2e} "
                 f"(<= 1e-12), measure systems {worst_mu:.2e} (<= 1e-10), "
                 f"Lagrange identity exact N=2,3,4: {combine(lagr)}")


def test_criterion_05_ode_oracle():
    t0 = time.monotonic()
    r = np.linspace(-5.0, 2.0, 50)
    spreads = []
    for alpha in ((0.5, -0.5), (1.0, -1.0), (1.3, 0.2)):
        rep = whittaker_vs_ode_ratio(list(alpha), r)
        spreads.append(rep.residual)
    dt = time.monotonic() - t0
    ok = max(spreads) <= 1e-5 and dt < 30.0
    _line(5, ok, f"contour integral vs ODE integration, N=2, 50-point "
                 f"grid, worst ratio spread {max(spreads):.2e} (<= 1e-5), "
                 f"{dt:.1f}s (< 30s)")


def test_criterion_06_eigen_residual():
    t0 = time.monotonic()
    rep = check_eigen(3, [0.7, 0.0, -0.7], GridSpec(64, 0.05),
                      tol=1e-3, refine=True)
    dt = time.monotonic() - t0
    ok = rep.passed and dt < 600.0
    _line(6, ok, f"N=3 finite-difference eigenvalue residual "
                 f"{rep.residual:.2e} (<= 1e-3), {rep.witness} "
                 f"(in [3.5, 4.5]), {dt:.1f}s (< 600s)")


def test_criterion_07_weyl_symmetry():
    worst = 0.0
    for N, alpha, x in ((2, (0.8, -0.3), (0.4, -0.6)),
                        (3, (1.1, 0.2, -0.7), (0.3, -0.1, -0.4))):
        base = whittaker_eval(N, list(alpha), list(x), tol=1e-8)
        for perm in itertools.permutations(alpha):
            other = whittaker_eval(N, list(perm), list(x), tol=1e-8)
            bound = 10.0 * max(base.error_estimate, other.error_estimate,
                               1e-14)
            worst = max(worst, abs(base.value - other.value) / bound)
    ok = worst <= 1.0
    _line(7, ok, f"wave function invariant under spectral permutations "
                 f"N=2,3; worst deviation {worst:.2f}x the 10*error bound")


def test_criterion_08_gamma_product_suite():
    lam3 = [0.8, 0.1, -0.5]
    perms = [WeylPermutation(p)
             for p in itertools.permutations((1, 2, 3))]
    worst_c = worst_m = 0.0
    for s1 in perms:
        for s2 in perms:
            if (s1 * s2).length() != s1.length() + s2.length():
                continue
            lhs = c_s(lam3, s1 * s2)
            rhs = c_s(lam3, s1) * c_s(s1.inverse().apply(lam3), s2)
            worst_c = max(worst_c, abs(lhs - rhs) / max(1.0, abs(lhs)))
            lhs = m_function(s1 * s2, lam3)
            rhs = m_function(s2, lam3) * m_function(s1, s2.apply(lam3))
            worst_m = max(worst_m, abs(lhs - rhs) / max(1.0, abs(lhs)))
    w0 = WeylPermutation.longest(3)
    words = w0.all_reduced_words()
    vals = [m_function(w0, lam3, word=w) for w in words]
    worst_word = max(abs(v - vals[0]) for v in vals[1:])
    lam4 = [1.3, 0.4, -0.2, -1.1]
    base = plancherel_density(lam4)
    worst_p = max(abs(plancherel_density(list(s.apply(lam4))) - base) / base
                  for s in (WeylPermutation(p)
                            for p in itertools.permutations((1, 2, 3, 4))))
    rng = random.Random(41)
    worst_mb = 0.0
    for N, k in ((2, 1), (3, 1), (3, 2)):
        vals = m_b_compatibility(
            k, [rng.uniform(-1, 1) for _ in range(N)],
            [rng.uniform(-1, 1) for _ in range(N)],
            ts=[-1.0, -0.2, 0.3, 1.1])
        worst_mb = max(worst_mb,
                       max(abs(v - vals[0]) for v in vals[1:])
                       / max(1.0, abs(vals[0])))
    ok = (worst_c <= 1e-10 and worst_m <= 1e-10 and worst_word <= 1e-10
          and worst_p <= 1e-11 and worst_mb <= 1e-8)
    _line(8, ok, f"Gamma-product suite: c-factorization {worst_c:.1e}, "
                 f"scattering cocycle {worst_m:.1e} (<= 1e-10), word "
                 f"independence {worst_word:.1e}, Plancherel invariance "
                 f"{worst_p:.1e} (<= 1e-11), M*b/b constancy {worst_mb:.1e} "
                 f"(<= 1e-8)")


def test_criterion_09_cross_method_agreement():
    d2 = whittaker_eval(2, [0.8, -0.3], [0.4, -0.6], tol=1e-8)
    r2 = whittaker_recursive(2, [0.8, -0.3], [0.4, -0.6], tol=1e-8)
    dev2 = abs(d2.value - r2.value) / max(1.0, abs(d2.value))
    d3 = whittaker_eval(3, [0.9, 0.1, -0.6], [0.5, 0.0, -0.5], tol=1e-8)
    r3 = whittaker_recursive(3, [0.9, 0.1, -0.6], [0.5, 0.0, -0.5], tol=1e-8)
    dev3 = abs(d3.value - r3.value) / max(1.0, abs(d3.value))
    ok = dev2 <= 1e-8 and dev3 <= 1e-6
    _line(9, ok, f"direct vs recursive contour evaluation: N=2 deviation "
                 f"{dev2:.2e} (<= 1e-8), N=3 deviation {dev3:.2e} (<= 1e-6)")


def test_criterion_10_deterministic_reports():
    commands = [
        ["verify", "qism", "--n", "2"],
        ["verify", "separation", "--n", "3", "--trials", "20", "--seed", "9"],
        ["verify", "gz", "--n", "2", "--trials", "5", "--seed", "9"],
        ["verify", "eigen", "--n", "2", "--alpha", "0.6,-0.6",
         "--grid", "16:0.1"],
    ]
    ok = True
    for argv in commands:
        a, b = io.StringIO(), io.StringIO()
        code1 = dispatch(argv, out=a)
        code2 = dispatch(argv, out=b)
        if code1 != 0 or code2 != 0 or a.getvalue() != b.getvalue():
            ok = False
            break
    _line(10, ok, "every verify subcommand emits byte-identical JSON on "
                  "rerun with the same seed")
