import math
import random
from operator import add

import numpy as np
import pytest

from quantoda import weyl
from quantoda.rationals import gauss_mul
from quantoda.report import combine
from quantoda.weyl import WeylElement, lax_matrix, monodromy, qism_suite, r_matrix


def test_reordering_rule():
    # p e^{q} = e^{q} (p - i) on one site
    p = WeylElement.p(1, 1)
    e = WeylElement.exp_q(1, 1, 1)
    assert p * e == e * (p - WeylElement.constant(1, (0, 1)))
    # and with a negative exponent the sign flips
    em = WeylElement.exp_q(1, 1, -1)
    assert p * em == em * (p + WeylElement.constant(1, (0, 1)))


def test_elements_are_unhashable():
    # elements compare by value (__eq__), so Python gives them no hash
    with pytest.raises(TypeError):
        hash(WeylElement.p(1, 1))


_P1 = WeylElement.p(1, 1)


@pytest.mark.parametrize("call, expected, match", [
    (lambda: WeylElement(2, {((1,), (0, 0), (0, 0)): (1, 0)}), ValueError, "fit"),
    (lambda: WeylElement(1, {((0,), (1,), (0, 0, 1)): (1, 0)}), ValueError, "fit"),
    (lambda: WeylElement(1, {((0,), (-1,), (0, 0)): (1, 0)}), ValueError, "negative"),
    (lambda: WeylElement(1, {((0,), (0,), (0, -2)): (1, 0)}), ValueError, "negative"),
    (lambda: _P1 + WeylElement.p(2, 1), ValueError, "site count"),
    (lambda: _P1 * WeylElement.p(2, 1), ValueError, "site count"),
    (lambda: np.array([[_P1, _P1]], dtype=object) @ np.array([[_P1, _P1]], dtype=object),
     ValueError, "mismatch in its core dimension"),
    (lambda: lax_matrix(0, 2), IndexError, "site index"),
    (lambda: lax_matrix(3, 2), IndexError, "site index"),
    (lambda: monodromy(0), ValueError, "N must be"),
    (lambda: _P1.__eq__(0), NotImplemented, None),
    (lambda: _P1.__eq__(np.array([[_P1]], dtype=object)), NotImplemented, None),
], ids=["q-sites", "uv-length", "negative-p", "negative-v", "mixed-sites-add",
        "mixed-sites-mul", "shape-mismatch", "lax-site-0",
        "lax-site-past-n", "monodromy-0", "eq-int", "eq-matrix"])
def test_input_checks(call, expected, match):
    # each case reaches one check that no other test runs
    if expected is NotImplemented:
        assert call() is NotImplemented
        return
    with pytest.raises(expected, match=match):
        call()


def test_disjoint_sites_commute():
    a = WeylElement.p(2, 1)
    b = WeylElement.exp_q(2, 2, 1)
    assert a * b == b * a


def _random_element(rng, n=2):
    gens = [WeylElement.p(n, m + 1) for m in range(n)]
    gens += [WeylElement.exp_q(n, m + 1, rng.choice([-1, 1])) for m in range(n)]
    gens += [WeylElement.constant(n, (rng.randint(-3, 3), rng.randint(-2, 2)))]
    out = WeylElement(n)
    for _ in range(rng.randint(1, 3)):
        term = WeylElement.constant(n, 1)
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
    assert L[0, 1] == WeylElement.constant(1, -1) * WeylElement.exp_q(1, 1, 1)
    assert L[1, 0] == WeylElement.exp_q(1, 1, -1)
    assert L[1, 1].is_zero()
    # entries are polynomials in u alone
    assert all(j == 0 for e in L.flat for _, _, (_, j) in e.monomials())
    assert any(i == 1 for _, _, (i, _) in L[0, 0].monomials())


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
    out = WeylElement(n)
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
    assert P.in_v().monomials() == {((0,), (1,), (0, 2)): (1, 0),
                                    ((0,), (1,), (1, 0)): (3, 0)}
    assert P.coeff(2) == w and P.coeff(0).is_zero() and P.coeff(5).is_zero()


def test_u_and_v_are_central():
    rng = random.Random(3)
    for n in (1, 2, 3):
        u = WeylElement.u(n)
        gens = [WeylElement.p(n, m) for m in range(1, n + 1)]
        gens += [WeylElement.exp_q(n, m, a) for m in range(1, n + 1) for a in (-1, 1)]
        for z in (u, u.in_v()):
            (zuv,) = (uv for _, _, uv in z.monomials())
            for g in gens:
                assert z * g == g * z
                # the product only raises the u or v power of g's monomial
                assert (z * g).monomials() == {(q, pp, zuv): c
                                               for (q, pp, _), c in g.monomials().items()}
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
    (A, _), (C, _) = monodromy(2)
    u = WeylElement.u(2)
    p1 = WeylElement.p(2, 1)
    p2 = WeylElement.p(2, 2)
    e21 = WeylElement.exp_q(2, 2, 1) * WeylElement.exp_q(2, 1, -1)
    assert A == (u - p2) * (u - p1) - e21
    # C_2(u) = e^{-q2}(u - p1)
    emq2 = WeylElement.exp_q(2, 2, -1)
    assert C == emq2 * (u - p1)


def test_total_momentum_and_energy_coefficients():
    # X_1 = -(p1 + ... + pN) is the u^{N-1} coefficient of A_N;
    # A_N(u) = u^N + sum_m X_m u^{N-m},  D_N(u) = sum_{m=2}^N Y_m u^{N-m}
    (A, _), (_, D) = monodromy(3)
    X = [A.coeff(3 - m) for m in range(1, 4)]
    Y = [D.coeff(3 - m) for m in range(2, 4)]
    ptot = WeylElement(3)
    for m in range(1, 4):
        ptot = ptot + WeylElement.p(3, m)
    assert X[0] == WeylElement.constant(3, -1) * ptot
    assert len(X) == 3 and len(Y) == 2
    assert A.coeff(3) == WeylElement.constant(3, 1) and D.coeff(2).is_zero()
    assert not any(y.is_zero() for y in Y)


def test_rll_local_and_global_exact():
    st = _statuses(qism_suite(2))
    assert st["rll-local-m2"] == "PASS"
    assert st["rll-global-N2"] == "PASS"


_TENSOR_SLOTS = [(a, i) for a in (0, 1) for i in (0, 1)]


def _kron(M, left):
    """M (x) I if left, else I (x) M; tensor slot (a, i) is row/column 2a + i."""
    zero = WeylElement(M[0, 0].n)
    return np.array([
        [(M[a, b] if i == j else zero) if left else (M[i, j] if a == b else zero)
         for b, j in _TENSOR_SLOTS]
        for a, i in _TENSOR_SLOTS], dtype=object)


def _rll_by_definition(X, N):
    """R(u-v) (X (x) I)(I (x) X(v)) - (I (x) X(v))(X (x) I) R(u-v) by 4x4 products."""
    R = r_matrix(N)
    X1 = _kron(X, True)
    X2 = _kron(np.array([[e.in_v() for e in row] for row in X], dtype=object), False)
    lhs, rhs = R @ X1 @ X2, X2 @ X1 @ R
    return [[lhs[r, c] - rhs[r, c] for c in range(4)] for r in range(4)]


def test_rll_residual_matches_the_definition(monkeypatch):
    for N in (1, 2, 3, 4):
        T = monodromy(N)
        (A, B), (C, D) = T
        perturbed = np.array([[A, B + WeylElement.p(N, 1)], [C, D]], dtype=object)
        want_t, want_p = _rll_by_definition(T, N), _rll_by_definition(perturbed, N)
        for X, want in ((T, want_t), (perturbed, want_p)):
            got = weyl._rll_residual(*weyl._slot_products(X))
            assert all(got[r, c] == want[r][c] for r in range(4) for c in range(4))
        assert all(e.is_zero() for row in want_t for e in row)
        r, c = next((r, c) for r in range(4) for c in range(4) if not want_p[r][c].is_zero())
        with monkeypatch.context() as m:
            m.setattr(weyl, "_monodromies",
                      lambda n: (perturbed, monodromy(n, n - 1) if n > 1 else None))
            (report,) = (r for r in qism_suite(N) if r.relation == f"rll-global-N{N}")
        assert report.status == "FAIL" and report.witness == f"entry ({r + 1},{c + 1})"


def _reorder(ap, cq):
    """p^{ap} e^{cq.q} = e^{cq.q} sum_k coef_k p^{k}, as [(k, coef_k)]: per
    site, p^b e^{cq} = e^{cq} (p - i c)^b = e^{cq} sum_k C(b,k) (-ic)^{b-k} p^k,
    the sites expanded one after another, the first outermost."""
    out = [((), (1, 0))]
    for b, c in zip(ap, cq):
        site = [(k, gauss_mul((math.comb(b, k) * c ** (b - k), 0), _i_power(b - k)))
                for k in range(b + 1)] if b and c else [(b, (1, 0))]
        out = [(pows + (k,), gauss_mul(co, ck)) for pows, co in out for k, ck in site]
    return out


def _i_power(j):
    """(-i)^j as a Z[i] pair."""
    out = (1, 0)
    for _ in range(j):
        out = gauss_mul(out, (0, -1))
    return out


def _reference_product(x, y):
    """x * y on (exp_q, pow_p, (i, j)) tuples, term pair by term pair."""
    acc = {}
    for (aq, ap, (au, av)), a in x.monomials().items():
        for (cq, cp, (cu, cv)), b in y.monomials().items():
            ab = gauss_mul(a, b)
            for pows, e in _reorder(ap, cq):
                mono = (tuple(map(add, aq, cq)), tuple(map(add, pows, cp)),
                        (au + cu, av + cv))
                re, im = gauss_mul(ab, e)
                old = acc.get(mono, (0, 0))
                acc[mono] = (old[0] + re, old[1] + im)
    return WeylElement(x.n, acc)


def test_reorder_deltas_are_the_binomial_expansion(monkeypatch):
    # every (n, p fields, q fields) that qism_suite(1..5) looks up, computed
    # afresh (a miss) and against `_reorder` with its powers packed
    keys = []
    plain = weyl._reorder_deltas
    monkeypatch.setattr(weyl, "_reorder_deltas", lambda *key: keys.append(key) or plain(*key))
    for N in range(1, 6):
        qism_suite(N)
    keys = list(dict.fromkeys(keys))
    assert len(keys) > 900 and {n for n, _, _ in keys} == {1, 2, 3, 4, 5}
    bits = weyl._FIELD_BITS
    for n, pf, qf in keys:
        ap = weyl._fields(pf >> 2 * bits, n)
        want = tuple((sum((k - b) << bits * (2 + s)
                          for s, (k, b) in enumerate(zip(pows, ap))), co)
                     for pows, co in _reorder(ap, weyl._fields(qf, n)))
        assert plain.__wrapped__(n, pf, qf) == want, (n, pf, qf)
    assert any(len(plain(*key)) > 20 for key in keys)


def _random_monomials(rng, n):
    return {(tuple(rng.randint(-3, 3) for _ in range(n)),
             tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n)),
             (rng.randint(0, 3), rng.randint(0, 3))): (rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(rng.randint(1, 3))}


def test_packed_product_matches_the_tuple_reference():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        xs, ys = _random_monomials(rng, n), _random_monomials(rng, n)
        x, y = WeylElement(n, xs), WeylElement(n, ys)
        assert x.monomials() == {m: c for m, c in xs.items() if c != (0, 0)}
        assert x * y == _reference_product(x, y)


def test_a_field_past_its_width_raises():
    lim = weyl._FIELD_LIMIT
    top = WeylElement.exp_q(2, 2, lim - 1)
    assert top.monomials() == {((0, lim - 1), (0, 0), (0, 0)): (1, 0)}
    assert WeylElement.exp_q(2, 2, 1 - lim).monomials() == {((0, 1 - lim), (0, 0), (0, 0)): (1, 0)}
    for build in (lambda: WeylElement.exp_q(1, 1, lim), lambda: WeylElement.exp_q(1, 1, -lim),
                  lambda: WeylElement(2, {((0, 0), (lim, 0), (0, 0)): (1, 0)}),
                  lambda: WeylElement.scalar(1, {(0, lim): 1})):
        with pytest.raises(OverflowError):
            build()
    half = WeylElement.exp_q(2, 2, lim // 2)
    # the largest sum that fits decodes to itself; one more raises
    assert (half * WeylElement.exp_q(2, 2, lim // 2 - 1)).monomials() == top.monomials()
    with pytest.raises(OverflowError):
        half * half
    p_half = WeylElement(1, {((0,), (lim // 2,), (0, 0)): (1, 0)})
    with pytest.raises(OverflowError):
        p_half * p_half


def test_commutativity_and_recursion_n3():
    st = _statuses(qism_suite(3))
    assert all(st[name] == "PASS" for name in _PAIRWISE)
    assert st["recursion-A"] == "PASS" and st["recursion-C"] == "PASS"


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
    cx = WeylElement.constant(1, c) * x
    sq = cx * cx
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
    # on the slot products (slot (a, i) is row/column 2a + i): A(v) C(u) = G[2,0],
    # C(u) A(v) = F[2,0] and A(u) C(v) = F[1,0]
    def swapped(F, G, K):
        N = F[0, 0].n
        umv = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0)})
        umvpi = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0), (0, 0): (0, 1)})
        ei = WeylElement.scalar(N, {(0, 0): (0, 1)})
        return umvpi * G[2, 0] - umv * F[2, 0] - ei * F[1, 0]

    # at N=1 it misses by -2i (u-v) e^{-q}
    assert swapped(*weyl._slot_products(monodromy(1))).monomials() == {((-1,), (0,), (1, 0)): (0, -2),
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


# the relations that the old suite checked by pairwise products
_PAIRWISE = ("commute-X", "commute-t", "commute-B", "commute-C", "exchange-AC")


def _pairwise_reference(T, N):
    """relation -> (status, witness) from products of T's entries and coefficients."""
    (A, B), (C, D) = T

    def pairs(Z):
        ops = [Z.coeff(N - m) for m in range(1, N + 1)]
        for a in range(N):
            for b in range(a + 1, N):
                if not (ops[a] * ops[b] - ops[b] * ops[a]).is_zero():
                    return "FAIL", f"pair ({a + 1},{b + 1})"
        return "PASS", None

    def vanishes(x):
        return ("PASS" if x.is_zero() else "FAIL"), None

    def comm(Z):
        return Z * Z.in_v() - Z.in_v() * Z

    umv = WeylElement.u(N) - WeylElement.u(N).in_v()
    i = WeylElement.constant(N, (0, 1))
    Au, Av, Cu, Cv = A, A.in_v(), C, C.in_v()
    exchange = (umv + i) * (Cu * Av) - umv * (Av * Cu) - i * (Cv * Au)
    return dict(zip(_PAIRWISE, (pairs(A), pairs(A + D), vanishes(comm(B)),
                                vanishes(comm(C)), vanishes(exchange))))


def test_relations_read_off_the_slot_products_match_pairwise_products(monkeypatch):
    # perturb each monodromy entry in turn by p1 u + e^{q1}; the suite's
    # status and witness for every relation equal the pairwise reference
    full = monodromy
    for N in (1, 2, 3, 4):
        for k in (None, 0, 1, 2, 3):
            T = full(N)
            if k is not None:
                T[k // 2, k % 2] = (T[k // 2, k % 2] + WeylElement.p(N, 1)
                                    * WeylElement.u(N) + WeylElement.exp_q(N, 1))
            with monkeypatch.context() as m:
                m.setattr(weyl, "_monodromies",
                          lambda n, T=T: (T, full(n, n - 1) if n > 1 else None))
                got = {r.relation: (r.status, r.witness) for r in qism_suite(N)}
            want = _pairwise_reference(T, N)
            assert {name: got[name] for name in _PAIRWISE} == want
            # the true monodromy passes; past N=1 every perturbation fails one
            fails = {name for name, (status, _) in want.items() if status == "FAIL"}
            if k is None or N > 1:
                assert bool(fails) == (k is not None), (N, k, fails)


def test_qism_suite_builds_the_monodromy_at_most_twice(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return monodromy(*args, **kwargs)

    monkeypatch.setattr(weyl, "monodromy", counted)
    for N in (1, 2, 3, 4):
        calls.clear()
        assert combine(qism_suite(N)) == "PASS"
        assert len(calls) <= 2, (N, calls)


def test_qism_suite_builds_each_lax_matrix_once_per_product(monkeypatch):
    # T_N = L_N T_(N-1) reuses the recursion check's prefix: sites 1 .. N
    # once for the monodromies, and site N once more for the local RLL
    built = []

    def counted(m, N):
        built.append(m)
        return lax_matrix(m, N)

    monkeypatch.setattr(weyl, "lax_matrix", counted)
    for N in (1, 2, 3, 4):
        built.clear()
        assert combine(qism_suite(N)) == "PASS"
        assert sorted(built) == [*range(1, N + 1), N], (N, built)


def test_sum_difference_and_negation_in_one_pass():
    rng = random.Random(17)
    for _ in range(30):
        x, y = _random_uv(rng), _random_uv(rng)
        minus = WeylElement.constant(x.n, -1)
        assert x - y == x + minus * y
        assert -x == minus * x and (-x).bound == x.bound
        assert (x - y).bound == (x + y).bound == max(x.bound, y.bound)
        assert (x - x).is_zero() and (x - y) + y == x
    # the operands are left as they were
    x = WeylElement.p(1, 1)
    before = dict(x.terms)
    assert (x - x).is_zero() and (-x).terms != before
    assert x.terms == before


def test_qism_suite_accepts_n_up_to_its_limit(monkeypatch):
    # N = QISM_MAX_N passes the guard and N + 1 does not; building the N = 8
    # operators takes about 38 s, so the build stops at a stub
    class Built(Exception):
        pass

    def monodromy(*args, **kwargs):
        raise Built

    monkeypatch.setattr(weyl, "monodromy", monodromy)
    with pytest.raises(Built):
        qism_suite(weyl.QISM_MAX_N)
    with pytest.raises(ValueError, match="unsupported"):
        qism_suite(weyl.QISM_MAX_N + 1)


def test_partial_monodromy_refuses_k_out_of_range():
    for k in (0, -2, 4):
        with pytest.raises(ValueError, match="upto"):
            monodromy(3, upto=k)
    # k = 1 is L_1 and k = N the full monodromy
    A1 = monodromy(3, upto=1)[0, 0]
    assert A1 == WeylElement.u(3) - WeylElement.p(3, 1)
    assert monodromy(3, upto=3)[0, 0] == monodromy(3)[0, 0]


def test_shifted_sums_and_flipped_slots_match_the_general_product():
    # G from in_v and the key-shift sums against products taken directly
    for N in (1, 2, 3):
        T = monodromy(N)
        (A, B), (C, D) = T
        perturbed = np.array([[A, B], [C + WeylElement.p(N, 1), D]], dtype=object)
        umv = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0)})
        umvpi = WeylElement.scalar(N, {(1, 0): (1, 0), (0, 1): (-1, 0), (0, 0): (0, 1)})
        for X in (T, perturbed):
            F, G, K = weyl._slot_products(X)
            for a, i, b, j in np.ndindex(2, 2, 2, 2):
                r, c = 2 * a + i, 2 * b + j
                assert F[r, c] == X[a, b] * X[i, j].in_v()
                assert G[r, c] == X[i, j].in_v() * X[a, b]
                assert K[r, c] == F[r, c] - G[r, c]
            assert weyl._exchange_residual(F, G, K) == (
                umvpi * F[2, 0] - umv * G[2, 0] - WeylElement.constant(N, (0, 1)) * G[1, 0])
            for x in (K[1, 2], F[3, 0], WeylElement(N)):
                got = weyl._shifted_sum(((x, weyl._TIMES_U, (1, 0)),
                                         (x, weyl._TIMES_V, (-1, 0)),
                                         (x, 0, (0, -1))))
                assert got == umv * x + WeylElement.constant(N, (0, -1)) * x
                assert got.bound == (umv * x).bound
    # the bound still guards the u and v fields
    top = WeylElement.scalar(1, {(weyl._FIELD_LIMIT - 1, 0): (1, 0)})
    with pytest.raises(OverflowError):
        weyl._shifted_sum(((top, weyl._TIMES_U, (1, 0)),))
