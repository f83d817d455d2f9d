"""Exact Weyl algebra of the lattice canonical operators.

Elements are noncommutative polynomials in p_m and e^{+-q_m}, and in the
spectral parameters u and v, with Gaussian integer coefficients, kept in
the canonical normal order "all e^{a.q} factors to the left of all p
powers".  Multiplication re-normal-orders through
p_m e^{a q_m} = e^{a q_m} (p_m - i a).

Coefficients are (re, im) pairs of Python ints in Z[i] with no modulus
(see `rationals`).  Every operation here is a ring operation -- nothing
divides -- so the arithmetic is exact and unbounded: when a checked
difference comes out with no terms, the identity holds over Z[i].  The
QISM checks are therefore proofs, not randomized tests, and need no bound
on coefficient size.

u and v are central: they commute with every p_m and e^{+-q_m}, so a
monomial e^{a.q} p^b u^i v^j is the key (a, b, (i, j)), products add the
(i, j) pairs, and there is one polynomial type, `WeylElement`.  The Lax and
monodromy entries are polynomials in u alone (no v powers), and `in_v()`
swaps u and v to give the second factor of a two-parameter relation.  On
top of this sit the 2x2 Lax matrices, the monodromy matrix, the R-matrix
R(u - v), and exact (coefficient-wise) checks of the RLL relation,
commutativity of the conserved quantities, the A/C exchange relation and
the A/C recursion.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add, mul
from typing import Dict, List, Tuple

from .rationals import MINUS_I, ONE, Gauss, I, as_gauss, gauss_mul, gauss_str
from .report import VerificationReport

UV = Tuple[int, int]
Mono = Tuple[Tuple[int, ...], Tuple[int, ...], UV]  # (exp_q, pow_p, (i, j))

_MINUS_ONE: Gauss = (-1, 0)


@lru_cache(maxsize=4096)
def _reorder(ap: Tuple[int, ...], cq: Tuple[int, ...]):
    """p^{ap} e^{cq.q} = e^{cq.q} sum_k coef_k p^{k}, as [(k, coef_k)].

    Per site, p^b e^{cq} = e^{cq} (p - i c)^b = e^{cq} sum_k C(b,k) (-ic)^{b-k} p^k.
    """
    out: List[Tuple[Tuple[int, ...], Gauss]] = [((), ONE)]
    for b, c in zip(ap, cq):
        if b == 0 or c == 0:
            out = [(pows + (b,), co) for pows, co in out]
            continue
        site = []
        for k in range(b + 1):
            j = b - k
            mag = math.comb(b, k) * c ** j
            # (-i)^j cycles through 1, -i, -1, i
            site.append((k, ((mag, 0), (0, -mag), (-mag, 0), (0, mag))[j % 4]))
        out = [(pows + (k,), gauss_mul(co, ck)) for pows, co in out for k, ck in site]
    return tuple(out)


class WeylElement:
    """Normal-ordered noncommutative polynomial over n lattice sites.

    terms maps (exp_q, pow_p, (i, j)) to the coefficient of
    e^{exp_q.q} p^{pow_p} u^i v^j.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Mono, Gauss] | None = None):
        self.n = n
        self.terms: Dict[Mono, Gauss] = {}
        if terms:
            for mono, c in terms.items():
                if c[0] or c[1]:
                    self.terms[mono] = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "WeylElement":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, terms: Dict[UV, object]) -> "WeylElement":
        """sum c u^i v^j over terms {(i, j): c}, c an int or a Z[i] pair."""
        zq = (0,) * n
        return cls(n, {(zq, zq, uv): as_gauss(c) for uv, c in terms.items()})

    @classmethod
    def constant(cls, n: int, c) -> "WeylElement":
        """The scalar c, an int or an (re, im) pair in Z[i]."""
        return cls.scalar(n, {(0, 0): c})

    @classmethod
    def one(cls, n: int) -> "WeylElement":
        return cls.constant(n, 1)

    @classmethod
    def p(cls, n: int, m: int) -> "WeylElement":
        """Momentum operator p_m (1-based site index)."""
        zq = (0,) * n
        pp = tuple(1 if k == m - 1 else 0 for k in range(n))
        return cls(n, {(zq, pp, (0, 0)): ONE})

    @classmethod
    def u(cls, n: int) -> "WeylElement":
        """The spectral parameter u."""
        return cls.scalar(n, {(1, 0): ONE})

    @classmethod
    def exp_q(cls, n: int, m: int, a: int = 1) -> "WeylElement":
        """e^{a q_m} (1-based site index)."""
        eq = tuple(a if k == m - 1 else 0 for k in range(n))
        return cls(n, {(eq, (0,) * n, (0, 0)): ONE})

    # -- ring operations --------------------------------------------------

    def _check(self, other: "WeylElement"):
        if self.n != other.n:
            raise ValueError("site count mismatch")

    def __add__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        terms = dict(self.terms)
        for mono, (br, bi) in other.terms.items():
            old = terms.get(mono)
            if old is None:
                terms[mono] = (br, bi)
                continue
            s = (old[0] + br, old[1] + bi)
            if s[0] or s[1]:
                terms[mono] = s
            else:
                del terms[mono]
        out = WeylElement(self.n)
        out.terms = terms
        return out

    def __neg__(self) -> "WeylElement":
        out = WeylElement(self.n)
        out.terms = {m: (-c[0], -c[1]) for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        """Multiply by the scalar c, an int or an (re, im) pair in Z[i]."""
        c = as_gauss(c)
        out = WeylElement(self.n)
        if c[0] or c[1]:
            out.terms = {m: gauss_mul(cc, c) for m, cc in self.terms.items()}
        return out

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        acc: Dict[Mono, Gauss] = {}
        get = acc.get
        for (aq, ap, (au, av)), (ar, ai) in self.terms.items():
            for (cq, cp, (cu, cv)), (br, bi) in other.terms.items():
                r0 = ar * br - ai * bi
                i0 = ar * bi + ai * br
                new_q = tuple(map(add, aq, cq))
                uv = (au + cu, av + cv)
                # push p^{ap} through e^{cq.q}; u and v are central
                for pows, (er, ei) in _reorder(ap, cq):
                    mono = (new_q, tuple(map(add, pows, cp)), uv)
                    cr = r0 * er - i0 * ei
                    ci = r0 * ei + i0 * er
                    old = get(mono)
                    if old is None:
                        acc[mono] = (cr, ci)
                        continue
                    cr += old[0]
                    ci += old[1]
                    if cr or ci:
                        acc[mono] = (cr, ci)
                    else:
                        del acc[mono]
        out = WeylElement(self.n)
        out.terms = acc
        return out

    # -- spectral parameters ----------------------------------------------

    def coeff(self, k: int) -> "WeylElement":
        """The operator coefficient of u^k v^0."""
        out = WeylElement(self.n)
        out.terms = {(eq, pp, (0, 0)): c for (eq, pp, uv), c in self.terms.items()
                     if uv == (k, 0)}
        return out

    def in_v(self) -> "WeylElement":
        """The substitution u <-> v, a ring automorphism."""
        out = WeylElement(self.n)
        out.terms = {(eq, pp, (j, i)): c for (eq, pp, (i, j)), c in self.terms.items()}
        return out

    # -- predicates & display ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        raise TypeError("WeylElement is unhashable")

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eq, pp, uv), c in sorted(self.terms.items()):
            bits = [f"({gauss_str(c)})"]
            for k, a in enumerate(eq):
                if a:
                    bits.append(f"e^{{{a}q{k + 1}}}" if a != 1 else f"e^{{q{k + 1}}}")
            for k, b in enumerate(pp):
                if b:
                    bits.append(f"p{k + 1}" + (f"^{b}" if b > 1 else ""))
            for name, e in zip("uv", uv):
                if e:
                    bits.append(name + (f"^{e}" if e > 1 else ""))
            parts.append("*".join(bits))
        return " + ".join(parts)


# The perfbench tracer wraps `weyl.UVPoly.__mul__`; the old name stays for it.
UVPoly = WeylElement


# ---------------------------------------------------------------------------
# Matrices of operator polynomials
# ---------------------------------------------------------------------------


class OperatorPolyMatrix:
    """Rectangular matrix with WeylElement entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("matrix must be rectangular")
        self.entries = [list(row) for row in entries]

    @property
    def shape(self):
        return (len(self.entries), len(self.entries[0]))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __matmul__(self, other: "OperatorPolyMatrix") -> "OperatorPolyMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.entries))
        return OperatorPolyMatrix([[reduce(add, map(mul, row, col)) for col in cols]
                                   for row in self.entries])

    def __sub__(self, other: "OperatorPolyMatrix") -> "OperatorPolyMatrix":
        r, c = self.shape
        return OperatorPolyMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(c)] for i in range(r)]
        )


def lax_matrix(m: int, N: int) -> OperatorPolyMatrix:
    """Site-m Lax matrix [[u - p_m, -e^{q_m}], [e^{-q_m}, 0]]."""
    if not 1 <= m <= N:
        raise IndexError(f"site index {m} out of range for N={N}")
    u = WeylElement.u(N)
    pm = WeylElement.p(N, m)
    eq = WeylElement.exp_q(N, m, 1)
    emq = WeylElement.exp_q(N, m, -1)
    return OperatorPolyMatrix([[u - pm, -eq], [emq, WeylElement.zero(N)]])


# Tensor slots (a, i) of C^2 (x) C^2; slot (a, i) is row/column 2a + i.
_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def r_matrix(N: int = 1) -> OperatorPolyMatrix:
    """4x4 R(u - v) = (u - v)I - iP over scalar coefficients, P the flip.

    P[(a,i),(b,j)] = delta_{aj} delta_{ib}.
    """
    def entry(a, i, b, j):
        terms: Dict[UV, Gauss] = {}
        if (a, i) == (b, j):
            terms.update({(1, 0): ONE, (0, 1): _MINUS_ONE})
        if (a, i) == (j, b):
            terms[(0, 0)] = MINUS_I
        return WeylElement.scalar(N, terms)

    return OperatorPolyMatrix([[entry(*r, *c) for c in _SLOTS] for r in _SLOTS])


def monodromy(N: int, upto: int | None = None) -> OperatorPolyMatrix:
    """T_k(u) = L_k(u) L_{k-1}(u) ... L_1(u) in the N-site algebra.

    upto defaults to N; smaller values give the partial monodromies used by
    the recursion check.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = N if upto is None else upto
    T = lax_matrix(1, N)
    for m in range(2, k + 1):
        T = lax_matrix(m, N) @ T
    return T


def extract_ABCD(T: OperatorPolyMatrix):
    """Entries (A, B, C, D) of a 2x2 monodromy matrix."""
    if T.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    return T[0, 0], T[0, 1], T[1, 0], T[1, 1]


def integrals_of_motion(N: int):
    """Operator coefficients X_m (from A_N) and Y_m (from D_N).

    A_N(u) = u^N + sum_m X_m u^{N-m},  D_N(u) = sum_{m=2}^N Y_m u^{N-m}.
    Returns (X, Y) as lists indexed from m=1 and m=2 respectively.
    """
    A, _, _, D = extract_ABCD(monodromy(N))
    X = [A.coeff(N - m) for m in range(1, N + 1)]
    Y = [D.coeff(N - m) for m in range(2, N + 1)]
    return X, Y


# ---------------------------------------------------------------------------
# Exact relation checks
# ---------------------------------------------------------------------------


def _kron_uv(M: OperatorPolyMatrix, side: str) -> OperatorPolyMatrix:
    """Embed a 2x2 matrix into 4x4: side 'left' gives M (x) I, else I (x) M."""
    zero = WeylElement.zero(M[0, 0].n)

    def entry(a, i, b, j):
        if side == "left":
            return M[a, b] if i == j else zero
        return M[i, j] if a == b else zero

    return OperatorPolyMatrix([[entry(*r, *c) for c in _SLOTS] for r in _SLOTS])


def _first_failure(D: OperatorPolyMatrix):
    r, c = D.shape
    for i in range(r):
        for j in range(c):
            if not D.entries[i][j].is_zero():
                return f"entry ({i + 1},{j + 1})"
    return None


def check_rll(scope: str, n: int) -> VerificationReport:
    """Exact check of R(u-v) X1(u) X2(v) = X2(v) X1(u) R(u-v).

    scope "local" checks X = L_n in a single-relevant-site algebra;
    "global" checks X = T_n.
    """
    if scope == "local":
        X = lax_matrix(n, n)
        relation = f"rll-local-m{n}"
    elif scope == "global":
        X = monodromy(n)
        relation = f"rll-global-N{n}"
    else:
        raise ValueError(f"unknown scope {scope!r}")
    R = r_matrix(n)
    X1 = _kron_uv(X, "left")
    X2 = _kron_uv(OperatorPolyMatrix([[e.in_v() for e in row] for row in X.entries]),
                  "right")
    lhs = R @ X1 @ X2
    rhs = X2 @ X1 @ R
    fail = _first_failure(lhs - rhs)
    return VerificationReport(
        suite="qism", n=n, relation=relation,
        status="PASS" if fail is None else "FAIL", witness=fail,
    )


def _exchange_residual(first: WeylElement, second: WeylElement,
                       N: int) -> WeylElement:
    """(u-v+i) F(u) S(v) - (u-v) S(v) F(u) - i F(v) S(u), F = first, S = second.

    exchange-AC is the vanishing of this for F = C, S = A:
    (u-v+i) C(u) A(v) = (u-v) A(v) C(u) + i C(v) A(u).  The commonly quoted
    form with A and C in the opposite order fails the exact N=1 computation
    by -2i(u-v) e^{-q}; this ordering is the one the RLL relation implies.
    """
    Fu, Fv = first, first.in_v()
    Su, Sv = second, second.in_v()
    umv = WeylElement.scalar(N, {(1, 0): ONE, (0, 1): _MINUS_ONE})
    umvpi = WeylElement.scalar(N, {(1, 0): ONE, (0, 1): _MINUS_ONE, (0, 0): I})
    ei = WeylElement.scalar(N, {(0, 0): I})
    return umvpi * (Fu * Sv) - umv * (Sv * Fu) - ei * (Fv * Su)


def check_commutativity(N: int) -> List[VerificationReport]:
    """[X_m, X_k] = 0, [t_m, t_k] = 0, and the A/C exchange identities."""
    X, Y = integrals_of_motion(N)
    reports = []

    def commute_family(name, ops):
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                if not (ops[a] * ops[b] - ops[b] * ops[a]).is_zero():
                    return VerificationReport(
                        suite="qism", n=N, relation=name, status="FAIL",
                        witness=f"pair ({a + 1},{b + 1})",
                    )
        return VerificationReport(suite="qism", n=N, relation=name, status="PASS")

    reports.append(commute_family("commute-X", X))
    t_coeffs = list(X)
    for m, y in enumerate(Y, start=2):
        t_coeffs[m - 1] = t_coeffs[m - 1] + y
    reports.append(commute_family("commute-t", t_coeffs))

    A, B, C, _ = extract_ABCD(monodromy(N))
    Bu, Bv = B, B.in_v()
    Cu, Cv = C, C.in_v()
    checks = [
        ("commute-B", Bu * Bv - Bv * Bu),
        ("commute-C", Cu * Cv - Cv * Cu),
        ("exchange-AC", _exchange_residual(C, A, N)),
    ]
    for name, diff in checks:
        reports.append(VerificationReport(
            suite="qism", n=N, relation=name,
            status="PASS" if diff.is_zero() else "FAIL",
        ))
    return reports


def _peel_site(N: int, A_p: WeylElement,
               C_p: WeylElement) -> Tuple[WeylElement, WeylElement]:
    """(A_N, C_N) from the partial entries (A_{N-1}, C_{N-1}) and L_N."""
    u = WeylElement.u(N)
    pN = WeylElement.p(N, N)
    eqN = WeylElement.exp_q(N, N, 1)
    emqN = WeylElement.exp_q(N, N, -1)
    return (u - pN) * A_p - eqN * C_p, emqN * A_p


def check_recursion(N: int) -> List[VerificationReport]:
    """Exact check of the one-site peeling of the monodromy entries:

        A_N(u) = (u - p_N) A_{N-1}(u) - e^{q_N} C_{N-1}(u)
        C_N(u) = e^{-q_N} A_{N-1}(u)

    The first line's middle factor is -e^{q_N} (operator); the source
    formula's e^{-x_N} does not reproduce the exact N=2 product and is read
    as a misprint.
    """
    if N < 2:
        return [VerificationReport(suite="qism", n=N, relation="recursion", status="PASS",
                                   witness="vacuous for N=1")]
    A_N, _, C_N, _ = extract_ABCD(monodromy(N))
    A_p, _, C_p, _ = extract_ABCD(monodromy(N, upto=N - 1))
    want_A, want_C = _peel_site(N, A_p, C_p)
    ok_A = A_N == want_A
    ok_C = C_N == want_C
    return [
        VerificationReport(suite="qism", n=N, relation="recursion-A",
                           status="PASS" if ok_A else "FAIL"),
        VerificationReport(suite="qism", n=N, relation="recursion-C",
                           status="PASS" if ok_C else "FAIL"),
    ]


def qism_suite(N: int) -> List[VerificationReport]:
    """All exact QISM checks for lattice size N."""
    reports = [check_rll("local", N), check_rll("global", N)]
    reports += check_commutativity(N)
    reports += check_recursion(N)
    return reports
