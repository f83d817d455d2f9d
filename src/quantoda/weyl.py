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

u and v are central: they commute with every p_m and e^{+-q_m}, so there is
one polynomial type, `WeylElement`.  A monomial e^{a.q} p^b u^i v^j over n
sites is one Python int, its key, made of 2 + 2n fields f_k of
W = `_FIELD_BITS` bits each, lowest first:

    (f_0, f_1, ...) = (i, j, b_1 .. b_n, a_1 .. a_n),   key = sum_k f_k 2^(W k)

Every field is a signed digit in [-2^(W-1), 2^(W-1)), so keys add field by
field: the key of a product of monomials is the sum of their keys plus the
change of p powers that re-normal-ordering makes.  `_reorder_deltas` caches
that change as key deltas, per (n, p fields of the left factor, q fields of
the right), and `__mul__` groups its operands' terms by those fields, so a
pair of terms costs int additions and one Z[i] product.  A miss expands
only the sites whose p power and q exponent are both nonzero, one binomial
per site, each term shifted straight into the site's field.  Powers of p,
u and v are nonnegative, so the key's low (2 + n) W bits are exactly those
fields and the q fields are the key shifted down by as many bits.

Python ints never overflow, so a field pushed past its range would silently
change its neighbour.  Each element carries `bound`, at least its largest
|field|; a product's bound is the sum of its factors' bounds, and
construction and `__mul__` raise OverflowError before any bound reaches
2^(W-1).  `monomials()` decodes the keys into (exp_q, pow_p, (i, j)) tuples,
the form the constructor takes.

The Lax and monodromy entries are polynomials in u alone (no v powers), and
`in_v()` swaps u and v to give the second factor of a two-parameter
relation.  On top of this sit the 2x2 Lax matrices L_m, the monodromy
T_N = L_N ... L_1 = [[A, B], [C, D]], the R-matrix R(u - v), and
`qism_suite`'s exact (coefficient-wise) checks.  Matrices are numpy object
arrays of `WeylElement`, so `@`, `*` and `-` run its exact ring operations,
and tensor slot (a, i) of C^2 (x) C^2 is row/column 2a + i.  The checks
read off the 32 slot products of one 2x2 X: F[2a+i, 2b+j] = X_ab(u) X_ij(v),
one broadcast product X[:, None, :, None] * in_v(X)[None, :, None, :]
reshaped to 4x4, and G[2a+i, 2b+j] = X_ij(v) X_ab(u).  Only F takes
products: with P the flip 2a + i -> 2i + a, G = in_v(F[P][:, P]).  With
K = F - G, taken once,

    R(u-v) X1(u) X2(v) - X2(v) X1(u) R(u-v) = (u-v)K - i(PF - GP),

with no 4x4 products, and the factor u - v is a shift of keys
(`_shifted_sum`), not a product.  X = L_N gives rll-local; X = T_N gives
rll-global and every relation but the recursion:

    commute-X    [A(u), A(v)] = K[0,0]
    commute-t    [t(u), t(v)] = trace K,  t = A + D
    commute-B    [B(u), B(v)] = K[0,3]
    commute-C    [C(u), C(v)] = K[3,0]
    exchange-AC  (u-v+i) F[2,0] - (u-v) G[2,0] - i G[1,0]
                 = (u-v) K[2,0] + i(F[2,0] - G[1,0])

For Z(u) = sum_m Z_m u^{N-m}, the u^{N-a} v^{N-b} coefficient of
[Z(u), Z(v)] is [Z_a, Z_b], so the commute-X/t witness is the first pair
a < b whose coefficient is nonzero.  recursion-A/C peel site N off T_N
against T_{N-1}: a suite builds each of them once.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Dict, List, Tuple

import numpy as np

from .rationals import MINUS_I, ONE, Gauss, I, as_gauss, gauss_mul, gauss_str
from .report import VerificationReport

UV = Tuple[int, int]
Mono = Tuple[Tuple[int, ...], Tuple[int, ...], UV]  # (exp_q, pow_p, (i, j))

_MINUS_ONE: Gauss = (-1, 0)
# Largest N `qism_suite` accepts.  Its time and peak RSS grow about 6x and
# 5x per site (2 CPUs x86-64, CPython 3.11): N = 7 takes 5-6 s and 234 MB,
# N = 8 38 s and 1.16 GB, and N = 9 did not finish in 90 s under a 3 GB cap.
QISM_MAX_N = 8

_FIELD_BITS = 16
_FIELD = 1 << _FIELD_BITS
_FIELD_MASK = _FIELD - 1
_UV_MASK = (1 << 2 * _FIELD_BITS) - 1
# every field of every key lies strictly inside (-_FIELD_LIMIT, _FIELD_LIMIT)
_FIELD_LIMIT = _FIELD >> 1


def _fields(key: int, count: int) -> List[int]:
    """The lowest count signed fields of key, lowest first."""
    out = []
    for _ in range(count):
        f = key & _FIELD_MASK
        if f >= _FIELD_LIMIT:
            f -= _FIELD
        out.append(f)
        key = (key - f) >> _FIELD_BITS
    return out


def _pack(fields) -> int:
    return sum(f << (_FIELD_BITS * k) for k, f in enumerate(fields))


def _guard(bound: int) -> int:
    if bound >= _FIELD_LIMIT:
        raise OverflowError(f"Weyl monomial exponent {bound} needs more than "
                            f"{_FIELD_BITS} bits")
    return bound


@cache
def _reorder_deltas(n: int, pf: int, qf: int):
    """p^{ap} e^{cq.q} = e^{cq.q} sum_k coef_k p^{k} on packed fields, as
    ((key delta, coef_k), ...), the delta lowering the p powers from ap to k.

    pf is a key's p fields left in place (key & p mask), qf a key's q fields
    shifted down.  Per site, p^b e^{cq} = e^{cq} (p - i c)^b = e^{cq} sum_k
    C(b,k) (-ic)^{b-k} p^k, so only a site with b and c both nonzero
    expands, its term k lowering that site's field by b - k; the terms run
    over those sites' k, the first site outermost.
    """
    out = [(0, ONE)]
    for shift in range(2 * _FIELD_BITS, (n + 2) * _FIELD_BITS, _FIELD_BITS):
        c = qf & _FIELD_MASK            # the signed q field of this site
        if c >= _FIELD_LIMIT:
            c -= _FIELD
        qf = (qf - c) >> _FIELD_BITS
        b = (pf >> shift) & _FIELD_MASK
        if b and c:
            expansion = []
            for k in range(b + 1):
                j = b - k
                mag = math.comb(b, k) * c ** j
                # (-i)^j cycles through 1, -i, -1, i
                unit = ((mag, 0), (0, -mag), (-mag, 0), (0, mag))[j % 4]
                expansion.append((-j << shift, unit))
            out = [(d + dk, gauss_mul(co, ck)) for d, co in out for dk, ck in expansion]
    return tuple(out)


class WeylElement:
    """Normal-ordered noncommutative polynomial over n lattice sites.

    terms maps the packed key of e^{a.q} p^b u^i v^j (see the module
    docstring) to its nonzero coefficient; `monomials()` gives the same map
    keyed by (exp_q, pow_p, (i, j)), the form the constructor takes.
    bound is at least the largest |field| of any key.
    """

    __slots__ = ("n", "terms", "bound")

    def __init__(self, n: int, terms: Dict[Mono, Gauss] | None = None):
        self.n = n
        self.terms: Dict[int, Gauss] = {}
        bound = 0
        for (eq, pp, uv), c in (terms or {}).items():
            if not (c[0] or c[1]):
                continue
            if len(eq) != n or len(pp) != n or len(uv) != 2:
                raise ValueError(f"monomial {(eq, pp, uv)} does not fit {n} sites")
            if min(*pp, *uv) < 0:
                raise ValueError(f"monomial {(eq, pp, uv)} has a negative power")
            bound = max(bound, *map(abs, eq), *pp, *uv)
            self.terms[_pack((*uv, *pp, *eq))] = c
        self.bound = _guard(bound)

    @classmethod
    def _packed(cls, n: int, terms: Dict[int, Gauss], bound: int) -> "WeylElement":
        out = cls.__new__(cls)
        out.n, out.terms, out.bound = n, terms, bound
        return out

    # -- constructors -----------------------------------------------------

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

    def _combine(self, other: "WeylElement", sign: int) -> "WeylElement":
        """self + sign * other in one pass over other's terms, sign = +-1.

        A term that cancels is popped and not put back, so the common case
        of a difference, equal coefficients, costs one lookup and no sum.
        """
        self._check(other)
        terms = dict(self.terms)
        pop = terms.pop
        if sign > 0:
            for key, c in other.terms.items():
                old = pop(key, None)
                if old is None:
                    terms[key] = c
                elif old[0] != -c[0] or old[1] != -c[1]:
                    terms[key] = (old[0] + c[0], old[1] + c[1])
        else:
            for key, c in other.terms.items():
                old = pop(key, None)
                if old is None:
                    terms[key] = (-c[0], -c[1])
                elif old != c:
                    terms[key] = (old[0] - c[0], old[1] - c[1])
        return WeylElement._packed(self.n, terms, max(self.bound, other.bound))

    def __add__(self, other: "WeylElement") -> "WeylElement":
        return self._combine(other, 1)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return self._combine(other, -1)

    def __neg__(self) -> "WeylElement":
        return WeylElement(self.n)._combine(self, -1)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        self._check(other)
        n = self.n
        bound = _guard(self.bound + other.bound)
        pmask = ((1 << n * _FIELD_BITS) - 1) << 2 * _FIELD_BITS
        qshift = (n + 2) * _FIELD_BITS
        by_p: Dict[int, list] = {}
        for item in self.terms.items():
            by_p.setdefault(item[0] & pmask, []).append(item)
        by_q: Dict[int, list] = {}
        for item in other.terms.items():
            by_q.setdefault(item[0] >> qshift, []).append(item)
        acc: Dict[int, Gauss] = {}
        get = acc.get
        for pf, left in by_p.items():
            for qf, right in by_q.items():
                # push p^{ap} through e^{cq.q}; u and v are central
                for delta, (er, ei) in _reorder_deltas(n, pf, qf):
                    for ka, (ar, ai) in left:
                        k0 = ka + delta
                        r0 = ar * er - ai * ei
                        i0 = ar * ei + ai * er
                        for kb, (br, bi) in right:
                            key = k0 + kb
                            cr = r0 * br - i0 * bi
                            ci = r0 * bi + i0 * br
                            old = get(key)
                            if old is None:
                                acc[key] = (cr, ci)
                                continue
                            cr += old[0]
                            ci += old[1]
                            if cr or ci:
                                acc[key] = (cr, ci)
                            else:
                                del acc[key]
        return WeylElement._packed(n, acc, bound)

    # -- spectral parameters ----------------------------------------------

    def coeff(self, k: int) -> "WeylElement":
        """The operator coefficient of u^k v^0."""
        terms = {key - k: c for key, c in self.terms.items() if key & _UV_MASK == k}
        return WeylElement._packed(self.n, terms, self.bound)

    def in_v(self) -> "WeylElement":
        """The substitution u <-> v, a ring automorphism."""
        terms = {}
        for key, c in self.terms.items():
            uv = key & _UV_MASK
            terms[key - uv + (uv >> _FIELD_BITS) + ((uv & _FIELD_MASK) << _FIELD_BITS)] = c
        return WeylElement._packed(self.n, terms, self.bound)

    # -- predicates & display ---------------------------------------------

    def monomials(self) -> Dict[Mono, Gauss]:
        """terms keyed by (exp_q, pow_p, (i, j)) in place of packed keys."""
        out = {}
        for key, c in self.terms.items():
            f = _fields(key, 2 + 2 * self.n)
            out[(tuple(f[2 + self.n:]), tuple(f[2:2 + self.n]), (f[0], f[1]))] = c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eq, pp, uv), c in sorted(self.monomials().items()):
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


def lax_matrix(m: int, N: int) -> np.ndarray:
    """Site-m Lax matrix [[u - p_m, -e^{q_m}], [e^{-q_m}, 0]]."""
    if not 1 <= m <= N:
        raise IndexError(f"site index {m} out of range for N={N}")
    u = WeylElement.u(N)
    pm = WeylElement.p(N, m)
    eq = WeylElement.exp_q(N, m, 1)
    emq = WeylElement.exp_q(N, m, -1)
    return np.array([[u - pm, -eq], [emq, WeylElement(N)]], dtype=object)


# The flip P of C^2 (x) C^2 on row/column indices: slot 2a + i -> 2i + a.
_FLIP = np.array([0, 2, 1, 3])


def r_matrix(N: int = 1) -> np.ndarray:
    """4x4 R(u - v) = (u - v)I - iP over scalar coefficients, P the flip.

    Tensor slot (a, i) is row/column 2a + i, so P[r, c] = 1 when c is
    `_FLIP[r]`.  `qism_suite` applies R in closed form; this is the README's
    R-matrix and the RLL tests' reference.
    """
    def entry(r, c):
        terms = {(0, 0): MINUS_I if _FLIP[r] == c else (0, 0)}
        if r == c:
            terms.update({(1, 0): ONE, (0, 1): _MINUS_ONE})
        return WeylElement.scalar(N, terms)

    return np.array([[entry(r, c) for c in range(4)] for r in range(4)], dtype=object)


def monodromy(N: int, upto: int | None = None) -> np.ndarray:
    """T_k(u) = L_k(u) L_{k-1}(u) ... L_1(u) in the N-site algebra.

    upto = k defaults to N; 1 <= k < N gives the partial monodromies used by
    the recursion check.  Other k raise ValueError.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    k = N if upto is None else upto
    if not 1 <= k <= N:
        raise ValueError(f"upto must be in 1..{N}, got {k}")
    T = lax_matrix(1, N)
    for m in range(2, k + 1):
        T = lax_matrix(m, N) @ T
    return T


# ---------------------------------------------------------------------------
# Exact relation checks
# ---------------------------------------------------------------------------


def _slot_products(X: np.ndarray):
    """(F, G, K): F[2a+i, 2b+j] = X_ab(u) X_ij(v), G[2a+i, 2b+j] = X_ij(v) X_ab(u)
    and K = F - G.

    Only F takes products, one broadcast over the four indices: in_v is a
    ring automorphism, so G = in_v(F[P][:, P]) with P the flip.
    """
    in_v = np.frompyfunc(WeylElement.in_v, 1, 1)
    F = (X[:, None, :, None] * in_v(X)[None, :, None, :]).reshape(4, 4)
    G = in_v(F[_FLIP][:, _FLIP])
    return F, G, F - G


# key shifts that multiply a term by u and by v
_TIMES_U, _TIMES_V = 1, _FIELD


def _shifted_sum(parts) -> WeylElement:
    """sum of unit * s x over parts (x, shift, unit) in one pass, where s is
    1, u or v as shift is 0, _TIMES_U or _TIMES_V (u and v are central and
    lowest in the key, so s x is x with every key raised by shift) and unit
    is 1, -1, i or -i as a Z[i] pair."""
    acc: Dict[int, Gauss] = {}
    pop = acc.pop
    bound = 0
    for x, shift, (ur, ui) in parts:
        bound = max(bound, x.bound + (shift != 0))
        for key, (cr, ci) in x.terms.items():
            key += shift
            dr = ur * cr - ui * ci
            di = ur * ci + ui * cr
            old = pop(key, None)
            if old is not None:
                dr += old[0]
                di += old[1]
                if not (dr or di):
                    continue
            acc[key] = (dr, di)
    return WeylElement._packed(parts[0][0].n, acc, _guard(bound))


def _rll_residual(F, G, K) -> np.ndarray:
    """R(u-v) X1(u) X2(v) - X2(v) X1(u) R(u-v) = (u-v)K - i(PF - GP) from
    `_slot_products(X)`, with PF = F[P] and GP = G[:, P]."""
    def entry(k, d):
        return _shifted_sum(((k, _TIMES_U, ONE), (k, _TIMES_V, _MINUS_ONE), (d, 0, MINUS_I)))

    return np.frompyfunc(entry, 2, 1)(K, F[_FLIP] - G[:, _FLIP])


def _first_failure(D: np.ndarray):
    return next((f"entry ({r + 1},{c + 1})" for (r, c), e in np.ndenumerate(D)
                 if not e.is_zero()), None)


def _first_pair(diff: WeylElement, N: int):
    """First (a, b), a < b, with a nonzero u^{N-a} v^{N-b} coefficient of diff."""
    uv = {key & _UV_MASK for key in diff.terms}
    return next((f"pair ({a},{b})" for a in range(1, N + 1) for b in range(a + 1, N + 1)
                 if N - a + ((N - b) << _FIELD_BITS) in uv), None)


def _exchange_residual(F, G, K) -> WeylElement:
    """(u-v+i) C(u) A(v) - (u-v) A(v) C(u) - i C(v) A(u) from `_slot_products(T)`,
    = (u-v) K[2,0] + i(F[2,0] - G[1,0]).

    The commonly quoted form with A and C in the opposite order fails the
    exact N=1 computation by -2i(u-v) e^{-q}; this ordering is the one the
    RLL relation implies.
    """
    k = K[2, 0]
    return _shifted_sum(((k, _TIMES_U, ONE), (k, _TIMES_V, _MINUS_ONE),
                         (F[2, 0] - G[1, 0], 0, I)))


def _peel_site(N: int, A_p: WeylElement,
               C_p: WeylElement) -> Tuple[WeylElement, WeylElement]:
    """(A_N, C_N) from the partial entries (A_{N-1}, C_{N-1}) and L_N:

        A_N(u) = (u - p_N) A_{N-1}(u) - e^{q_N} C_{N-1}(u)
        C_N(u) = e^{-q_N} A_{N-1}(u)

    The first line's middle factor is -e^{q_N} (operator); the source
    formula's e^{-x_N} does not reproduce the exact N=2 product and is read
    as a misprint.
    """
    u = WeylElement.u(N)
    pN = WeylElement.p(N, N)
    eqN = WeylElement.exp_q(N, N, 1)
    emqN = WeylElement.exp_q(N, N, -1)
    return (u - pN) * A_p - eqN * C_p, emqN * A_p


def qism_suite(N: int) -> List[VerificationReport]:
    """All exact QISM checks for lattice size N <= QISM_MAX_N (see the
    module docstring); a larger N raises ValueError before any operator."""
    if N > QISM_MAX_N:
        raise ValueError(f"N={N} unsupported: the QISM suite runs N <= {QISM_MAX_N}")
    reports = []

    def report(relation, failed, witness=None):
        reports.append(VerificationReport(suite="qism", n=N, relation=relation,
                                          status="FAIL" if failed else "PASS",
                                          witness=witness))

    T = monodromy(N)
    F, G, K = _slot_products(T)
    for relation, witness in (
            (f"rll-local-m{N}",
             _first_failure(_rll_residual(*_slot_products(lax_matrix(N, N))))),
            (f"rll-global-N{N}", _first_failure(_rll_residual(F, G, K))),
            ("commute-X", _first_pair(K[0, 0], N)),
            ("commute-t", _first_pair(K.trace(), N))):
        report(relation, witness is not None, witness)
    report("commute-B", not K[0, 3].is_zero())
    report("commute-C", not K[3, 0].is_zero())
    report("exchange-AC", not _exchange_residual(F, G, K).is_zero())
    if N < 2:
        report("recursion", False, "vacuous for N=1")
    else:
        T_p = monodromy(N, upto=N - 1)
        want_A, want_C = _peel_site(N, T_p[0, 0], T_p[1, 0])
        report("recursion-A", T[0, 0] != want_A)
        report("recursion-C", T[1, 0] != want_C)
    return reports
