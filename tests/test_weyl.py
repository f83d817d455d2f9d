import random

from quantoda import weyl
from quantoda.report import combine
from quantoda.weyl import (UPoly, UVPoly, WeylElement, check_commutativity,
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
    u = UPoly.u(1)
    assert L[0, 0] == u - UPoly.from_element(WeylElement.p(1, 1))
    assert L[0, 1] == UPoly.from_element(
        WeylElement.exp_q(1, 1, 1).scale(-1))
    assert L[1, 0] == UPoly.from_element(WeylElement.exp_q(1, 1, -1))
    assert L[1, 1].is_zero()


def test_r_matrix_flip_structure():
    R = r_matrix()
    # u I - i P with P the flip: u - i on aligned tensor slots, u on the
    # middle diagonal, -i on the off-diagonal flip positions
    minus_i = UPoly.from_element(WeylElement.constant(1, (0, -1)))
    assert R[0, 0] == UPoly.u(1) + minus_i
    assert R[3, 3] == UPoly.u(1) + minus_i
    assert R[1, 1] == UPoly.u(1)
    assert R[1, 2] == minus_i
    assert R[2, 1] == minus_i
    assert R[0, 1].is_zero()


def test_monodromy_n2_a_entry():
    # A_2(u) = (u - p2)(u - p1) - e^{q2 - q1}
    A, _, C, _ = extract_ABCD(monodromy(2))
    u = UPoly.u(2)
    p1 = UPoly.from_element(WeylElement.p(2, 1))
    p2 = UPoly.from_element(WeylElement.p(2, 2))
    e21 = WeylElement.exp_q(2, 2, 1) * WeylElement.exp_q(2, 1, -1)
    assert A == (u - p2) * (u - p1) - UPoly.from_element(e21)
    # C_2(u) = e^{-q2}(u - p1)
    emq2 = UPoly.from_element(WeylElement.exp_q(2, 2, -1))
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
    want = WeylElement(1, {((2,), (2,)): (c2, 0), ((2,), (1,)): (0, -3 * c2),
                           ((2,), (0,)): (-2 * c2, 0)})
    assert sq == want
    # a difference that vanishes mod 2^61 - 1 is still nonzero here
    off = WeylElement(1, {((2,), (0,)): ((1 << 61) - 1, 0)})
    assert not (sq - (want + off)).is_zero()
    assert f"({-2 * c2})*e^{{2q1}}" in repr(sq)


def _statuses(reports):
    return {r.relation: r.status for r in reports}


def test_swapped_exchange_order_fails(monkeypatch):
    # the commonly quoted form, with A and C in the opposite order in every
    # product: (u-v+i) A(v) C(u) = (u-v) C(u) A(v) + i A(u) C(v)
    def swapped(C, A, N):
        Au, Av, Cu, Cv = A.as_uv("u"), A.as_uv("v"), C.as_uv("u"), C.as_uv("v")
        umv = UVPoly.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0)})
        umvpi = UVPoly.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0), (0, 0): (0, 1)})
        ei = UVPoly.scalar(N, {(0, 0): (0, 1)})
        return umvpi * (Av * Cu) - umv * (Cu * Av) - ei * (Au * Cv)

    # at N=1 it misses by -2i (u-v) e^{-q}
    A, _, C, _ = extract_ABCD(monodromy(1))
    emq = WeylElement.exp_q(1, 1, -1)
    assert swapped(C, A, 1).terms == {(1, 0): emq.scale((0, -2)),
                                      (0, 1): emq.scale((0, 2))}
    monkeypatch.setattr(weyl, "_exchange_residual", swapped)
    for n in (1, 2, 3):
        st = _statuses(weyl.qism_suite(n))
        assert st["exchange-AC"] == "FAIL"
        assert combine(weyl.qism_suite(n)) == "FAIL"


def test_recursion_misprint_fails(monkeypatch):
    # the source's A_N = (u - p_N) A_{N-1} - e^{-q_N} C_{N-1}
    def misprint(N, A_p, C_p):
        u = UPoly.u(N)
        pN = UPoly.from_element(WeylElement.p(N, N))
        emqN = UPoly.from_element(WeylElement.exp_q(N, N, -1))
        return (u - pN) * A_p - emqN * C_p, emqN * A_p

    monkeypatch.setattr(weyl, "_peel_site", misprint)
    for n in (2, 3):
        st = _statuses(weyl.qism_suite(n))
        assert st["recursion-A"] == "FAIL" and st["recursion-C"] == "PASS"
