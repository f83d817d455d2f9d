import random

from quantoda import weyl
from quantoda.report import combine
from quantoda.weyl import (WeylElement, check_commutativity,
                           check_recursion, check_rll, extract_ABCD,
                           integrals_of_motion, lax_matrix, monodromy,
                           qism_suite, r_matrix)


def test_reordering_rule():
    # p e^{q} = e^{q} (p - i) on one site
    p = WeylElement.p(1, 1)
    e = WeylElement.exp_q(1, 1, 1)
    assert p * e == e * (p - WeylElement.constant(1, (0, 1)))
    # and with a negative exponent the sign flips
    em = WeylElement.exp_q(1, 1, -1)
    assert p * em == em * (p + WeylElement.constant(1, (0, 1)))


def test_disjoint_sites_commute():
    a = WeylElement.p(2, 1)
    b = WeylElement.exp_q(2, 2, 1)
    assert a * b == b * a


def _random_element(rng, n=2):
    gens = [WeylElement.p(n, m + 1) for m in range(n)]
    gens += [WeylElement.exp_q(n, m + 1, rng.choice([-1, 1])) for m in range(n)]
    gens += [WeylElement.constant(n, (rng.randint(-3, 3), rng.randint(-2, 2)))]
    out = WeylElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        term = WeylElement.one(n)
        for _ in range(rng.randint(1, 3)):
            term = term * rng.choice(gens)
        out = out + term
    return out


def test_multiplication_associative():
    rng = random.Random(11)
    for _ in range(100):
        a, b, c = (_random_element(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_lax_matrix_entries():
    L = lax_matrix(1, 1)
    u = WeylElement.u(1)
    assert L[0, 0] == u - WeylElement.p(1, 1)
    assert L[0, 1] == WeylElement.exp_q(1, 1, 1).scale(-1)
    assert L[1, 0] == WeylElement.exp_q(1, 1, -1)
    assert L[1, 1].is_zero()
    # entries are polynomials in u alone
    assert all(j == 0 for row in L.entries for e in row for _, _, (_, j) in e.terms)
    assert any(i == 1 for _, _, (i, _) in L[0, 0].terms)


def test_r_matrix_flip_structure():
    R = r_matrix()
    # (u - v) I - i P with P the flip: u - v - i on aligned tensor slots,
    # u - v on the middle diagonal, -i on the off-diagonal flip positions
    minus_i = WeylElement.constant(1, (0, -1))
    umv = WeylElement.u(1) - WeylElement.u(1).in_v()
    assert R[0, 0] == umv + minus_i
    assert R[3, 3] == umv + minus_i
    assert R[1, 1] == umv
    assert R[2, 2] == umv
    assert R[1, 2] == minus_i
    assert R[2, 1] == minus_i
    assert R[0, 1].is_zero()
    assert sum(not R[i, j].is_zero() for i in range(4) for j in range(4)) == 6
    assert r_matrix(3)[0, 0].n == 3


def _random_uv(rng, n=2):
    out = WeylElement.zero(n)
    for _ in range(rng.randint(1, 3)):
        uv = WeylElement.scalar(n, {(rng.randint(0, 2), rng.randint(0, 2)): 1})
        out = out + uv * _random_element(rng, n)
    return out


def test_in_v_is_a_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        P, Q = _random_uv(rng), _random_uv(rng)
        assert (P * Q).in_v() == P.in_v() * Q.in_v()
        assert (P + Q).in_v() == P.in_v() + Q.in_v()
        assert P.in_v().in_v() == P
    # u -> v on the exponent pairs, coefficients untouched
    w = WeylElement.p(1, 1)
    P = WeylElement(1, {((0,), (1,), (2, 0)): (1, 0), ((0,), (1,), (0, 1)): (3, 0)})
    assert P == WeylElement.scalar(1, {(2, 0): 1, (0, 1): 3}) * w
    assert P.in_v().terms == {((0,), (1,), (0, 2)): (1, 0), ((0,), (1,), (1, 0)): (3, 0)}
    assert P.coeff(2) == w and P.coeff(0).is_zero() and P.coeff(5).is_zero()


def test_u_and_v_are_central():
    rng = random.Random(3)
    for n in (1, 2, 3):
        u = WeylElement.u(n)
        gens = [WeylElement.p(n, m) for m in range(1, n + 1)]
        gens += [WeylElement.exp_q(n, m, a) for m in range(1, n + 1) for a in (-1, 1)]
        for z in (u, u.in_v()):
            (zuv,) = (uv for _, _, uv in z.terms)
            for g in gens:
                assert z * g == g * z
                # the product only raises the u or v power of g's monomial
                assert (z * g).terms == {(q, pp, zuv): c for (q, pp, _), c in g.terms.items()}
        for _ in range(20):
            x = _random_uv(rng, n)
            for z in (u, u.in_v()):
                assert z * x == x * z
                assert not (z * x).is_zero()
    # repr prints the u and v powers after the operator factors
    x = WeylElement.scalar(2, {(2, 1): 3}) * WeylElement.exp_q(2, 1, -1) * WeylElement.p(2, 2)
    assert repr(x) == "(3)*e^{-1q1}*p2*u^2*v"
    assert repr(WeylElement.u(1) - WeylElement.u(1).in_v()) == "(-1)*v + (1)*u"


def test_monodromy_n2_a_entry():
    # A_2(u) = (u - p2)(u - p1) - e^{q2 - q1}
    A, _, C, _ = extract_ABCD(monodromy(2))
    u = WeylElement.u(2)
    p1 = WeylElement.p(2, 1)
    p2 = WeylElement.p(2, 2)
    e21 = WeylElement.exp_q(2, 2, 1) * WeylElement.exp_q(2, 1, -1)
    assert A == (u - p2) * (u - p1) - e21
    # C_2(u) = e^{-q2}(u - p1)
    emq2 = WeylElement.exp_q(2, 2, -1)
    assert C == emq2 * (u - p1)


def test_total_momentum_and_energy_coefficients():
    # X_1 = -(p1 + ... + pN) is the u^{N-1} coefficient of A_N
    X, Y = integrals_of_motion(3)
    ptot = WeylElement.zero(3)
    for m in range(1, 4):
        ptot = ptot + WeylElement.p(3, m)
    assert X[0] == ptot.scale(-1)
    assert len(X) == 3 and len(Y) == 2


def test_rll_local_and_global_exact():
    assert check_rll("local", 2).passed
    assert check_rll("global", 2).passed


def test_commutativity_and_recursion_n3():
    assert combine(check_commutativity(3)) == "PASS"
    assert combine(check_recursion(3)) == "PASS"


def test_qism_suite_n2():
    reports = qism_suite(2)
    assert combine(reports) == "PASS"
    names = {r.relation for r in reports}
    assert "exchange-AC" in names and "recursion-A" in names


def test_coefficients_are_exact_beyond_any_modulus():
    # Z[i] coefficients carry no modulus: (c p1 e^{q1})^2 with c = 2^80 has
    # coefficients of size 2^161, and one unit off in the last bit shows
    c = 2 ** 80
    x = WeylElement.p(1, 1) * WeylElement.exp_q(1, 1, 1)
    sq = x.scale(c) * x.scale(c)
    # p e^{q} = e^{q} (p - i), so x^2 = e^{2q} (p - 2i)(p - i)
    #                                  = e^{2q} (p^2 - 3i p - 2)
    c2 = c * c
    want = WeylElement(1, {((2,), (2,), (0, 0)): (c2, 0),
                           ((2,), (1,), (0, 0)): (0, -3 * c2),
                           ((2,), (0,), (0, 0)): (-2 * c2, 0)})
    assert sq == want
    # a difference that vanishes mod 2^61 - 1 is still nonzero here
    off = WeylElement(1, {((2,), (0,), (0, 0)): ((1 << 61) - 1, 0)})
    assert not (sq - (want + off)).is_zero()
    assert f"({-2 * c2})*e^{{2q1}}" in repr(sq)


def _statuses(reports):
    return {r.relation: r.status for r in reports}


def test_swapped_exchange_order_fails(monkeypatch):
    # the commonly quoted form, with A and C in the opposite order in every
    # product: (u-v+i) A(v) C(u) = (u-v) C(u) A(v) + i A(u) C(v)
    def swapped(C, A, N):
        Au, Av, Cu, Cv = A, A.in_v(), C, C.in_v()
        umv = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0)})
        umvpi = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0), (0, 0): (0, 1)})
        ei = WeylElement.scalar(N, {(0, 0): (0, 1)})
        return umvpi * (Av * Cu) - umv * (Cu * Av) - ei * (Au * Cv)

    # at N=1 it misses by -2i (u-v) e^{-q}
    A, _, C, _ = extract_ABCD(monodromy(1))
    assert swapped(C, A, 1).terms == {((-1,), (0,), (1, 0)): (0, -2),
                                      ((-1,), (0,), (0, 1)): (0, 2)}
    monkeypatch.setattr(weyl, "_exchange_residual", swapped)
    for n in (1, 2, 3):
        st = _statuses(weyl.qism_suite(n))
        assert st["exchange-AC"] == "FAIL"
        assert combine(weyl.qism_suite(n)) == "FAIL"


def test_recursion_misprint_fails(monkeypatch):
    # the source's A_N = (u - p_N) A_{N-1} - e^{-q_N} C_{N-1}
    def misprint(N, A_p, C_p):
        u = WeylElement.u(N)
        pN = WeylElement.p(N, N)
        emqN = WeylElement.exp_q(N, N, -1)
        return (u - pN) * A_p - emqN * C_p, emqN * A_p

    monkeypatch.setattr(weyl, "_peel_site", misprint)
    for n in (2, 3):
        st = _statuses(weyl.qism_suite(n))
        assert st["recursion-A"] == "FAIL" and st["recursion-C"] == "PASS"
