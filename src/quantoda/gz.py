"""Difference-operator representation of gl(N) on triangular spectral arrays.

The generators act on functions of a triangular array lambda_{nj} (level n
has n entries, the top level N carrying the spectral moduli) as first-order
difference operators with rational coefficients: diagonal generators
multiply, the raising/lowering generators shift a level-n variable by -i/+i.

Conventions fixed here (each forced by the commutation relations, see the
check suite):

* E_{n,n+1} = -(1/i) sum_j [prod_{r=1}^{n+1}(lambda_{nj}-lambda_{n+1,r}-i/2)
  / prod_{s!=j}(lambda_{nj}-lambda_{ns})] T_{nj,-i}.  The overall sign is
  the opposite of the naive one: with +(1/i) the bracket [E12, E21] closes
  to -(E11-E22) instead of +(E11-E22), and E12 w fails.
* E_{n+1,n} = +(1/i) sum_j [prod_{r=1}^{n-1}(lambda_{nj}-lambda_{n-1,r}+i/2)
  / prod_{s!=j}(lambda_{nj}-lambda_{ns})] T_{nj,+i}.
* The spherical vector carries the periodic normalizer
  prod_{n<N,j} 2^{-i lambda_{nj}} (a quasi-constant: multiplying any
  solution by a function of period 2i gives another solution).  Without it
  the compact-generator equations pick up a constant 4 = q^2 per shift pair
  and do not close.

A `DifferenceOperator` is kept flat: a map from (shift, factors) to a
Gaussian-integer scalar, where factors is a sorted tuple of generator
coefficients, each paired with the shift of the array it is evaluated at.
Composition concatenates factor lists, so equal products combine and
cancel symbolically; a difference or commutator adds the second operand's
terms, or the reversed product's term pairs, negated in the same pass.  A
coefficient is its prefactor times a product of linear forms in the
entries over another (`Coefficient.forms`).

Operators are evaluated two ways.  `DifferenceOperator.term_values`
applies one operator to a function given by its shift ratios
f(lambda shifted)/f(lambda), in the field of the array's entries: the
complex numbers for the Whittaker and spherical vectors (Gamma products,
`vector_shift_ratios`), or F_p[i] for the exponential test functions
(`evaluate_on_test`, the per-operator reference).  The exact checks compile
the relations of their families (gl relations, Serre; `gz_suite` takes both)
into one `TermTable` (distinct forms, factors, shifts and terms as integer
index tables) and evaluate it on a block of F_p[i] lanes with a fixed
number of int64 numpy operations, whatever the term count, one pass of
blocks for all of them.  The sampled checks take their arrays as one stack,
a `TriangularArray` whose entries are numpy arrays with one element per
array, so each check runs once for all of them (the measure check once per
slot), and a vector check takes every shift's ratio from one
`vector_shift_ratios` call, with at most one `log_gamma_array` call.  The
suites draw a stack's arrays, and `separation` its points, as one block
(`separated_block`): sorted uniforms plus the gaps, each row put in an
order drawn by an argsort, from one `rationals.random_words` block per
count.

Operator identities are checked by random-point identity testing in the
field F_p[i], p = 2^31 - 1, on three lanes per trial and a block of trials
at once (see `rationals`).  The array entries and the test-function
parameters beta are drawn uniformly from F_p (beta from F_p minus 0),
distinct within a level and among the betas; the relation is applied to
the exponential test function f(lambda + k*i e_{nj}) = beta_{nj}^k
f(lambda), and the value must be 0 in every lane.  Distinct within-level
entries keep every denominator lambda_{nj} - lambda_{ns} + c*i nonzero.  A
nonzero relation, cleared of denominators and of negative powers of beta,
is a nonzero polynomial Q in the entries and the betas, of total degree
deg.  Counting numerator degrees, distinct linear denominator factors and
beta exponents bounds deg by 50 for every relation of the suite at N <= 5,
so one trial passes falsely with probability at most (deg/(p-1))^3 <=
deg/(2^61 - 1) < 3e-17, times 1 + 1e-7 for the distinct draws, whichever
relations share its lanes.  This assumes p does not divide every
coefficient of Q, which would make Q vanish identically mod p.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import islice
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .rationals import (ONE, P, FpLanes, Gauss, _batch_inverse, _gauss_mul, as_gauss,
                        check_trials, first_witnesses, gauss_mul, random_lanes,
                        random_words)
from .report import VerificationReport, residual_report
from .specfun import POLE_TOL, PoleError, gamma_shift_ratio, log_gamma, log_gamma_array

MIN_GAP = 1e-8   # least within-level gap of a numerical check here or in `separation`
# Largest N `gz_suite` accepts.  Set where the product `gz_measure`
# overflows, which the measure check used to take whole: at `--trials 20` it
# stays finite on seeds 0-9 at N = 13 (|mu| up to 7.8e250) and overflows on
# 9 of them at N = 14.  N = 13 takes 2.5 s and 170 MB at one trial and 5-6 s
# and 497 MB at 20 (2 CPUs x86-64, CPython 3.11, seeds 0-9, every report
# PASS).  The check now takes its quotient pair by pair; a larger bound
# waits on the cost of N > 13.
GZ_MAX_N = 13

Slot = Tuple[int, int]          # (n, j), 1-based level and position
ShiftKey = Tuple[Tuple[Slot, int], ...]  # sorted ((n,j), k): lambda_{nj} += k*i

# Gaussian-integer prefactor of each generator's coefficients: 1/i for the
# diagonal and lowering generators, -(1/i) for the raising one (see above).
GENERATOR_PREFACTOR: Dict[str, Gauss] = {
    "diagonal": (0, -1), "raise": (0, 1), "lower": (0, -1)}

# The field of an array's entries: (element constructor, i/2); (P + 1)/2 = 1/2 mod P.
_FIELDS = {True: (FpLanes, FpLanes(0, (P + 1) // 2)), False: (complex, 0.5j)}


@dataclass(frozen=True)
class TriangularArray:
    """Spectral array: level n (1-based) holds n entries lambda_{n1..nn}.

    Entries are `FpLanes` for `evaluate_on_test`, the exact checks'
    reference, or floats or complex numbers; `field` says which.
    """

    levels: tuple

    def __init__(self, levels: Sequence[Sequence]):
        lv = tuple(tuple(row) for row in levels)
        for n, row in enumerate(lv, start=1):
            if len(row) != n:
                raise ValueError(f"level {n} must have {n} entries, got {len(row)}")
        object.__setattr__(self, "levels", lv)

    @property
    def N(self) -> int:
        return len(self.levels)

    def get(self, n: int, j: int):
        return self.levels[n - 1][j - 1]

    def level(self, n: int) -> tuple:
        return self.levels[n - 1]

    def level_sum(self, n: int):
        if n == 0:
            return 0
        return sum(self.levels[n - 1])

    @property
    def field(self):
        """(element constructor, i/2): F_p[i] for `FpLanes` entries, else complex."""
        return _FIELDS[type(self.levels[0][0]) is FpLanes]

    def shifted(self, shifts: ShiftKey) -> "TriangularArray":
        """New array with lambda_{nj} += k*i for each ((n,j), k)."""
        make = self.field[0]
        lv = [list(row) for row in self.levels]
        for (n, j), k in shifts:
            lv[n - 1][j - 1] = lv[n - 1][j - 1] + make(0, k)    # not in place: arrays
        return TriangularArray(lv)

    def min_level_gap(self) -> float:
        """Smallest within-level pairwise distance over levels 1..N-1, over
        every array of a stack (entries that are arrays, one element per
        array)."""
        gap = math.inf
        for n in range(1, self.N):
            row = self.levels[n - 1]
            for a in range(len(row)):
                for b in range(a + 1, len(row)):
                    gap = min(gap, float(np.min(np.abs(np.subtract(row[a], row[b])))))
        return gap


class Form(NamedTuple):
    """The linear form sum(plus entries) - sum(minus entries) + i_halves * i/2."""

    plus: Tuple[Slot, ...]
    minus: Tuple[Slot, ...]
    i_halves: int

    def __call__(self, arr: TriangularArray):
        total = sum(arr.get(*s) for s in self.plus) - sum(arr.get(*s) for s in self.minus)
        return total + self.i_halves * arr.field[1] if self.i_halves else total


class Coefficient(NamedTuple):
    """Coefficient of one generator term: E_{nn} ('diagonal', j = 0), or the
    slot-(n, j) term of E_{n,n+1} ('raise') or E_{n+1,n} ('lower').

    It is the prefactor times a product of linear forms in the array's
    entries over another (`forms`).  Calling it on an array evaluates it in
    the array's `field`.
    """

    kind: str
    n: int
    j: int

    @property
    def shift(self) -> ShiftKey:
        """Shift of the generator term this coefficient multiplies."""
        if self.kind == "diagonal":
            return ()
        return (((self.n, self.j), -1 if self.kind == "raise" else 1),)

    def forms(self) -> Tuple[List[Form], List[Form]]:
        """(numerator, denominator) linear forms of this coefficient."""
        n, j = self.n, self.j
        if self.kind == "diagonal":
            level = [tuple((m, r) for r in range(1, m + 1)) for m in (n, n - 1)]
            return [Form(*level, 0)], []
        x = ((n, j),)
        if self.kind == "raise":
            num = [Form(x, ((n + 1, r),), -1) for r in range(1, n + 2)]
        else:
            num = [Form(x, ((n - 1, r),), 1) for r in range(1, n)]
        return num, [Form(x, ((n, s),), 0) for s in range(1, n + 1) if s != j]

    def __call__(self, arr: TriangularArray):
        pre = arr.field[0](*GENERATOR_PREFACTOR[self.kind])
        num, den = ([f(arr) for f in fs] for fs in self.forms())
        val = pre * reduce(operator.mul, num) if num else pre
        return val / reduce(operator.mul, den) if den else val


Factor = Tuple[Coefficient, ShiftKey]   # coefficient at the array shifted by ShiftKey
TermKey = Tuple[ShiftKey, Tuple[Factor, ...]]


@cache
def _merge(s1: ShiftKey, s2: ShiftKey) -> ShiftKey:
    merged: Dict[Slot, int] = dict(s1)
    for slot, k in s2:
        merged[slot] = merged.get(slot, 0) + k
    return tuple(sorted((sl, k) for sl, k in merged.items() if k != 0))


def _negated(pairs):
    return ((key, (-cr, -ci)) for key, (cr, ci) in pairs)


class DifferenceOperator:
    """Finite sum of terms  c * prod(coefficients) * T^{shift}.

    `terms` maps (shift, factors) to a Gaussian-integer scalar c.  A shift
    key maps slots (n,j) to integers k, meaning lambda_{nj} shifts by k*i;
    a factor (coefficient, s) is the coefficient evaluated at the array
    shifted by s.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[TermKey, Gauss] | None = None):
        self.terms: Dict[TermKey, Gauss] = {}
        for key, c in (terms or {}).items():
            if c[0] or c[1]:
                self.terms[key] = c

    @classmethod
    def identity(cls) -> "DifferenceOperator":
        return cls({((), ()): ONE})

    def _accumulate(self, pairs) -> "DifferenceOperator":
        acc = dict(self.terms)
        for key, (br, bi) in pairs:
            old = acc.get(key)
            if old is not None:
                br += old[0]
                bi += old[1]
            if br or bi:
                acc[key] = (br, bi)
            else:
                acc.pop(key, None)
        out = DifferenceOperator()
        out.terms = acc
        return out

    def __add__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self._accumulate(other.terms.items())

    def __neg__(self) -> "DifferenceOperator":
        return self.scaled(-1)

    def __sub__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self._accumulate(_negated(other.terms.items()))

    def scaled(self, factor) -> "DifferenceOperator":
        """Multiply by a Gaussian integer: an int or an (re, im) pair."""
        f = as_gauss(factor)
        return DifferenceOperator({k: gauss_mul(c, f) for k, c in self.terms.items()})

    def _products(self, other: "DifferenceOperator"):
        """(key, coefficient) of every term pair of self * other, in order.

        other's coefficients see self's shift; factor tuples are sorted, so
        equal coefficient products share a key.
        """
        return (((_merge(s1, s2),
                  tuple(sorted(f1 + tuple((coef, _merge(s1, s)) for coef, s in f2)))),
                 gauss_mul(c1, c2))
                for (s1, f1), c1 in self.terms.items()
                for (s2, f2), c2 in other.terms.items())

    def __mul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """Composition: (a*b)f = a(b(f)); equal coefficient products combine."""
        return DifferenceOperator()._accumulate(self._products(other))

    def commutator(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """self * other - other * self: the second product's term pairs are
        added negated as they come, without building that product.  While
        its pairs have distinct keys, as in every relation of the suite,
        the terms and their order are those of the two products' difference."""
        return (self * other)._accumulate(_negated(other._products(self)))

    def term_values(self, arr: TriangularArray, ratio) -> list:
        """c * prod(coefficients) * ratio(shift) per term, in arr's field.

        ratio(shift) is f(arr shifted)/f(arr) for the function f the
        operator acts on, so the values sum to (op f)(arr)/f(arr).  Each
        coefficient is evaluated once per shifted array and each ratio once
        per shift.
        """
        make = arr.field[0]
        cache: dict = {}
        out = []
        for (shift, factors), c in self.terms.items():
            val = make(*c)
            for factor in factors:
                v = cache.get(factor)
                if v is None:
                    coef, s = factor
                    v = cache[factor] = coef(arr.shifted(s) if s else arr)
                val = val * v
            r = cache.get(shift)
            if r is None:
                r = cache[shift] = ratio(shift)
            out.append(val * r)
        return out

    def evaluate_on_test(self, arr: TriangularArray, beta: Dict[Slot, FpLanes]) -> FpLanes:
        """Apply to the test function with f(lambda + k*i e_{nj}) = beta_{nj}^k f.

        arr has `FpLanes` entries and beta `FpLanes` values; the result is
        in F_p[i], lane by lane.  This is the per-operator reference for
        `TermTable`, which the relation checks use.
        """
        return sum(self.term_values(arr, lambda shift: math.prod(
            (beta[slot] ** k for slot, k in shift), start=FpLanes(1))), FpLanes())


class TermTable:
    """The operators of one check compiled into one table over F_p[i] lanes.

    Every coefficient is a prefactor times a product of linear forms over
    another (`Coefficient.forms`), and the table keeps the distinct forms as
    integer rows over the array's entries (flat order: level 1..N, position
    1..n).  A factor (coefficient, shift) evaluates the coefficient's forms
    at the array shifted by k*i: as the entries are in F_p, a form's real
    part is its row times the entries and its imaginary part a constant,
    i_halves/2 plus its row times the shift.  So each factor is its
    prefactor and, for its numerator and its denominator, a list of form
    rows with one imaginary constant each.  Each shift is an index list
    into [1, beta_1..beta_m, 1/beta_1..1/beta_m] (slots in `_flat_slots`
    order), one index per unit of |k|.  Each term is a row: its constant,
    its factor indices, its shift index and its operator.  Short lists are
    padded with an index whose value is 1.

    `values` evaluates every operator on a block of lanes in a fixed number
    of int64 numpy operations: one matrix product for the forms, gathered
    products for numerators and denominators, one Fermat inverse x^(P-2)
    (at the root of a product tree) for every denominator norm and beta,
    gathered products for the terms, and one segment sum per operator (its
    terms are consecutive rows).

    Every intermediate stays below 2^63: entries are reduced mod P < 2^31,
    and a form row has at most 2N - 1 entries of +-1, so a form is below
    2N * 2^31 before its reduction; every other value is reduced mod P after
    each operation, so a product of two parts is below 2^62, a Gaussian part
    a*d + b*c or a norm a^2 + b^2 below 2^63, and a sum of at most 2^32
    reduced terms below 2^63.
    """

    def __init__(self, N: int, ops: Sequence[DifferenceOperator]):
        entry = {s: k for k, s in enumerate(
            (n, j) for n in range(1, N + 1) for j in range(1, n + 1))}
        slot = {s: k for k, s in enumerate(_flat_slots(N))}
        m = len(slot)
        forms: Dict[Form, int] = {}
        coefs: Dict[Coefficient, Tuple[List[int], List[int]]] = {}
        points: Dict[ShiftKey, int] = {}       # shifts coefficients are taken at
        factors: Dict[Factor, int] = {}
        shifts: Dict[ShiftKey, int] = {}
        pre, num, den, point, betas = [], [], [], [], []
        const, term_factors, term_shift, term_op = [], [], [], []
        for r, op in enumerate(ops):
            for (shift, facs), c in op.terms.items():
                for fac in facs:
                    if fac not in factors:
                        factors[fac] = len(factors)
                        coef, at = fac
                        if coef not in coefs:
                            coefs[coef] = tuple([forms.setdefault(f, len(forms)) for f in fs]
                                                for fs in coef.forms())
                        pre.append(GENERATOR_PREFACTOR[coef.kind])
                        num.append(coefs[coef][0])
                        den.append(coefs[coef][1])
                        point.append(points.setdefault(at, len(points)))
                if shift not in shifts:
                    shifts[shift] = len(shifts)
                    betas.append([1 + slot[s] + (m if k < 0 else 0)
                                  for s, k in shift for _ in range(abs(k))])
                const.append((c[0] % P, c[1] % P))
                term_factors.append([factors[f] for f in facs])
                term_shift.append(shifts[shift])
                term_op.append(r)
        self.operators = len(ops)
        one = len(forms)                            # padding form, of value 1
        rows = np.zeros((one + 1, len(entry)), dtype=np.int64)
        i_halves = np.zeros(one + 1, dtype=np.int64)
        for f, k in forms.items():
            rows[k, [entry[s] for s in f.plus]] = 1
            rows[k, [entry[s] for s in f.minus]] = -1
            i_halves[k] = f.i_halves
        shift_rows = np.zeros((len(entry), len(points)), dtype=np.int64)
        for at, k in points.items():
            for s, d in at:
                shift_rows[entry[s], k] = d
        moved = rows @ shift_rows               # (form, point): row times shift
        point = np.array(point, dtype=np.intp)[:, None]

        def factor_forms(lists):
            index = _padded(lists, one)
            half = i_halves[index] + 2 * moved[index, point]
            return index, half % P * ((P + 1) // 2) % P     # (P + 1)/2 = 1/2

        self.form_rows = rows
        self.form_re = (np.arange(one + 1) == one).astype(np.int64)[:, None]
        self.factor_pre = np.array(pre, dtype=np.int64).reshape(-1, 2) % P
        self.factor_num = factor_forms(num)
        self.factor_den = factor_forms(den)
        self.shift_betas = _padded(betas, 0)
        self.term_const = np.array(const, dtype=np.int64).reshape(-1, 2)
        self.term_factors = _padded(term_factors, len(factors))   # padding: 1
        self.term_shift = np.array(term_shift, dtype=np.intp)
        # terms come operator by operator: each operator with terms, and
        # the row of its first term, for one segment sum per operator
        self.summed, self.first_term = np.unique(np.array(term_op, dtype=np.intp),
                                                 return_index=True)

    def values(self, x: np.ndarray, beta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(re, im) of every operator per lane, int64 of shape (operators, lanes).

        x holds the entries (flat order) and beta the betas (`_flat_slots`
        order), F_p values of shape (count, lanes).  A zero denominator or
        beta raises ZeroDivisionError: entries distinct within each level
        make none, as p = 3 mod 4 and a denominator's real part is nonzero.
        """
        lanes = x.shape[1]
        val_re, val_im, inv_beta = self._factor_values(x, beta)
        powers = np.concatenate([np.ones((1, lanes), dtype=np.int64), beta, inv_beta])
        shift = np.ones((len(self.shift_betas), lanes), dtype=np.int64)
        for col in self.shift_betas.T:
            shift *= powers[col]
            shift %= P
        term = self.term_const[:, :1], self.term_const[:, 1:]
        for col in self.term_factors.T:
            term = _gauss_mul(*term, val_re[col], val_im[col])
        del val_re, val_im
        ratio = shift[self.term_shift]
        out = []
        for part in term:
            part = part * ratio     # not in place: without factors, part is (terms, 1)
            part %= P
            acc = np.zeros((self.operators, lanes), dtype=np.int64)
            if len(self.summed):    # an operator without terms reads 0
                acc[self.summed] = np.add.reduceat(part, self.first_term)
                acc %= P
            out.append(acc)
        return out[0], out[1]

    def _factor_values(self, x, beta):
        """(re, im) of every factor, with a last row of 1, and 1/beta."""
        lanes, nf = x.shape[1], len(self.factor_pre)
        form_re = self.form_rows @ x
        form_re += self.form_re
        form_re %= P
        pre = self.factor_pre
        num = _form_product(form_re, *self.factor_num, (pre[:, :1], pre[:, 1:]))
        den = _form_product(form_re, *self.factor_den)
        norm = np.broadcast_to((den[0] * den[0] + den[1] * den[1]) % P, (nf, lanes))
        if not (np.all(norm) and np.all(beta)):
            raise ZeroDivisionError("division by zero in F_p[i]")
        inv = _batch_inverse(np.concatenate([norm, beta]))
        del norm
        # num / den = num * conj(den) / |den|^2, with a last row of value 1
        val = np.empty((2, nf + 1, lanes), dtype=np.int64)
        val[:, nf] = [[1], [0]]
        (a, b), (c, d) = num, den
        val[0, :nf] = a * c + b * d
        val[1, :nf] = b * c - a * d
        val[:, :nf] %= P
        val[:, :nf] *= inv[:nf]
        val[:, :nf] %= P
        return val[0], val[1], inv[nf:]


def _padded(rows: List[List[int]], pad: int) -> np.ndarray:
    """Index lists as one intp array, short rows padded with `pad`."""
    width = max(map(len, rows), default=0)
    return np.array([row + [pad] * (width - len(row)) for row in rows],
                    dtype=np.intp).reshape(len(rows), width)


def _form_product(form_re, index, im, start=(1, 0)):
    """start times the product over columns w of form_re[index[:, w]] + im[:, w] i."""
    acc_re, acc_im = start
    for w in range(index.shape[1]):
        acc_re, acc_im = _gauss_mul(acc_re, acc_im, form_re[index[:, w]], im[:, w:w + 1])
    return acc_re, acc_im


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _check_level_gaps(arr: TriangularArray):
    if arr.min_level_gap() < MIN_GAP:
        raise PoleError("coincident within-level array entries")


def gz_generator(kind: str, n: int, N: int) -> DifferenceOperator:
    """E_{nn} (kind 'diagonal'), E_{n,n+1} ('raise'), E_{n+1,n} ('lower')."""
    if kind == "diagonal":
        if not 1 <= n <= N:
            raise IndexError(f"diagonal index {n} out of range for N={N}")
        js = [0]
    elif kind in ("raise", "lower"):
        if not 1 <= n <= N - 1:
            raise IndexError(f"{kind} index {n} out of range for N={N}")
        js = range(1, n + 1)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    coefs = [Coefficient(kind, n, j) for j in js]
    return DifferenceOperator({(c.shift, ((c, ()),)): ONE for c in coefs})


# ---------------------------------------------------------------------------
# Exact identity testing
# ---------------------------------------------------------------------------


def _gl_relations(N: int):
    """The defining gl(N) brackets, as (label, operator that must be 0):

    [H_n, E_m] = (d_nm - d_{n,m+1}) E_m,  [H_n, F_m] = -(...) F_m,
    [E_n, F_m] = d_nm (H_n - H_{n+1}), with E/F the raise/lower families.
    """
    H = {n: gz_generator("diagonal", n, N) for n in range(1, N + 1)}
    E = {m: gz_generator("raise", m, N) for m in range(1, N)}
    F = {m: gz_generator("lower", m, N) for m in range(1, N)}
    for n in range(1, N + 1):
        for m in range(1, N):
            d = (n == m) - (n == m + 1)
            yield f"[H{n},E{m}]", H[n].commutator(E[m]) - E[m].scaled(d)
            yield f"[H{n},F{m}]", H[n].commutator(F[m]) + F[m].scaled(d)
    for n in range(1, N):
        for m in range(1, N):
            rel = E[n].commutator(F[m])
            yield f"[E{n},F{m}]", rel - (H[n] - H[n + 1]) if n == m else rel


def _serre_relations(N: int):
    """The Serre relations of the raise and lower families (none at N=2)."""
    for kind in ("raise", "lower"):
        X = {m: gz_generator(kind, m, N) for m in range(1, N)}
        for n in range(1, N):
            for m in range(1, N):
                if n != m:
                    rel = X[n].commutator(X[m])
                    if abs(n - m) == 1:
                        rel = X[n].commutator(rel)
                    yield f"serre-{kind}({n},{m})", rel


# The exact relation families: report name -> relations of a given N.
_RELATIONS = {"gl-relations": _gl_relations, "serre": _serre_relations}


def _check_zero(N: int, trials: int, seed: int, families) -> List[VerificationReport]:
    """One report per (relation, [(label, operator)]) of `families`: every
    operator must be the zero operator.

    All operators are compiled into one `TermTable`.  For each block of one
    `rationals.first_witnesses` pass, an array with entries distinct within
    each level and the nonzero betas are drawn per lane from F_p, in that
    order, and the table is evaluated on the block; each family's report
    names the first failing trial of each of its operators.  A family's
    witnesses do not depend on the others: the blocks come from the same
    generator whatever the table holds, and a witness is its operator's
    first nonzero lane.
    """
    labels = [label for _, rels in families for label, _ in rels]
    table = TermTable(N, [op for _, rels in families for _, op in rels])

    def block(rng, lanes):
        levels = [random_lanes(rng, lanes, n) for n in range(1, N + 1)]
        beta = random_lanes(rng, lanes, len(_flat_slots(N)), 1)
        re, im = table.values(np.concatenate(levels), beta)

        def describe(i, k):
            at = tuple(tuple(FpLanes(int(x)) for x in row[:, k]) for row in levels)
            return f"value {FpLanes(int(re[i, k]), int(im[i, k]))} at {at}"
        return (re | im) != 0, describe

    found = iter(zip(labels, first_witnesses(len(labels), trials, seed, block)))
    reports = []
    for relation, rels in families:
        witness = "; ".join(f"{label}: {w}" for label, w in islice(found, len(rels)) if w)
        reports.append(VerificationReport(suite="gz", n=N, relation=relation,
                                          status="FAIL" if witness else "PASS", seed=seed,
                                          witness=witness or None))
    return reports


def _check_relations(N: int, trials: int, seed: int,
                     names: Sequence[str]) -> List[VerificationReport]:
    """`_check_zero` of the `_RELATIONS` families named, in one table.
    ValueError when trials is outside 1..MAX_TRIALS, before any operator is built."""
    check_trials(trials)
    return _check_zero(N, trials, seed, [(name, list(_RELATIONS[name](N))) for name in names])


def check_gl_relations(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Exact randomized check of the defining gl(N) brackets (`_gl_relations`).
    ValueError when trials is outside 1..MAX_TRIALS, before any operator is built."""
    return _check_relations(N, trials, seed, ["gl-relations"])[0]


def check_serre(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Serre relations for the raise and lower families (vacuous at N=2).
    ValueError when trials is outside 1..MAX_TRIALS, before any operator is built."""
    return _check_relations(N, trials, seed, ["serre"])[0]


# ---------------------------------------------------------------------------
# Whittaker and spherical vectors
# ---------------------------------------------------------------------------

SPHERICAL_QUASICONSTANT_BASE = 2.0

# One row per vector, w and phi, both products over adjacent-level pairs:
# (q, b) gives prod_{n<N} e^{-pi(n-1) sum_j lambda_{nj} / q} b^{-i sum_j
# lambda_{nj}} prod_{k,m} Gamma((-i(lambda_{nk} - lambda_{n+1,m}) + 1/2) / q).
# Only phi carries the normalizer (b = 1 for w).
VECTORS = {"w": (1, 1.0), "phi": (2, SPHERICAL_QUASICONSTANT_BASE)}


def _gamma_argument(arr: TriangularArray, n: int, k: int, m: int, q: int) -> complex:
    return (-1j * (arr.get(n, k) - arr.get(n + 1, m)) + 0.5) / q


def _vector(kind: str, arr: TriangularArray) -> complex:
    q, base = VECTORS[kind]
    total = 0.0 + 0.0j
    for n in range(1, arr.N):
        level = complex(arr.level_sum(n))
        total += -math.pi * (n - 1) / q * level
        total += -1j * math.log(base) * level
        for k in range(1, n + 1):
            for m in range(1, n + 2):
                total += log_gamma(_gamma_argument(arr, n, k, m, q))
    return cmath.exp(total)


def vector_shift_ratios(kind: str, arr: TriangularArray,
                        shifts: Sequence[ShiftKey]) -> list:
    """v(arr shifted)/v(arr) per shift, for v = w or phi, one adjacent-level
    pair at a time, elementwise over a stack of arrays (entries that are
    numpy arrays, one element per array).

    A k*i shift of lambda_{nj}, n < N, multiplies the prefactor by the
    power (-i)^{2(n-1)k/q}, exact as products of 0 and +-1, and the
    normalizer by b^k.  A pair's Gamma argument z moves by net/q = whole +
    part/q, 0 <= part < q: the whole move is the factorial
    `gamma_shift_ratio` from z + part/q, and the fractional ones (phi) are
    differences of log-Gamma values from one `log_gamma_array` call over
    every such pair, array and shift.  Those arguments have real parts at
    least Re z, so none takes `log_gamma_array`'s one-at-a-time reflection
    path, and each ratio is the one a call with its shift alone returns,
    bit for bit.  A Gamma pole raises PoleError.
    """
    q, base = VECTORS[kind]
    ratios, half, ends = [], [], []
    for shift in shifts:
        kmap = dict(shift)
        moved = [(n, k) for (n, _), k in shift if n < arr.N]
        ratio = ((-1j) ** (sum(2 * (n - 1) * k // q for n, k in moved) % 4)
                 * base ** sum(k for _, k in moved))
        for n in range(1, arr.N):
            for a in range(1, n + 1):
                for b in range(1, n + 2):
                    net = kmap.get((n, a), 0) - kmap.get((n + 1, b), 0)
                    if net:
                        z = _gamma_argument(arr, n, a, b, q)
                        whole, part = divmod(net, q)
                        if part:
                            half.append((z, part / q))
                            z = z + part / q
                        if whole:
                            ratio = ratio * gamma_shift_ratio(z, whole)
        ratios.append(ratio)
        ends.append(len(half))
    if not half:
        return ratios
    z = np.array([z for z, _ in half])
    moves = np.array([d for _, d in half]).reshape((-1,) + (1,) * (z.ndim - 1))
    args = np.concatenate([z + moves, z])
    pole = np.round(args.real)
    if np.any((pole <= 0) & (np.abs(args - pole) < POLE_TOL)):
        raise PoleError("log_gamma pole in a vector shift ratio")
    lg = log_gamma_array(args)
    moved_lg, lg = lg[:len(half)], lg[len(half):]
    start = 0
    for i, end in enumerate(ends):
        if end > start:
            ratios[i] = ratios[i] * np.exp(np.sum(moved_lg[start:end] - lg[start:end], axis=0))
        start = end
    return ratios


def vector_shift_ratio(kind: str, arr: TriangularArray, shift: ShiftKey) -> complex:
    """v(arr shifted)/v(arr) for one shift: `vector_shift_ratios` of it alone."""
    return vector_shift_ratios(kind, arr, [shift])[0]


def _shift_ratios(kind: str, arr: TriangularArray, ops):
    """Every shift of ops mapped to its `vector_shift_ratios` value, from one call."""
    shifts = list(dict.fromkeys(shift for op in ops for shift, _ in op.terms))
    return dict(zip(shifts, vector_shift_ratios(kind, arr, shifts))).__getitem__


def whittaker_vector(arr: TriangularArray) -> complex:
    """w = prod_n e^{-pi(n-1) sum_j lambda_{nj}} prod Gamma(-i dlam + 1/2)."""
    return _vector("w", arr)


def spherical_vector(arr: TriangularArray) -> complex:
    """prod_n e^{-pi(n-1)/2 sum lam} 2^{-i sum lam} prod Gamma(dlam/(2i) + 1/4).

    The periodic normalizer prod_{n<N,j} 2^{-i lambda_{nj}} (period 2i in
    each variable) is what makes the compact-generator difference equations
    close.
    """
    return _vector("phi", arr)


def check_whittaker_equations(arr: TriangularArray,
                              tol: float = 1e-9) -> VerificationReport:
    """Max relative residual of E_{n,n+1} w = -i w and E_{n+1,n} w' = -i w',
    over the arrays of a stack (entries that are numpy arrays, one element
    per array), at every level of arr."""
    _check_level_gaps(arr)
    N = arr.N
    raising = [gz_generator("raise", n, N) for n in range(1, N)]
    w_ratio = _shift_ratios("w", arr, raising)
    worst = 0.0
    for n, raise_n in enumerate(raising, start=1):
        for op, ratio in ((raise_n, w_ratio),
                          (gz_generator("lower", n, N), lambda s: 1)):  # w' is constant
            terms = op.term_values(arr, ratio)
            worst = max(worst, float(np.max(np.abs(sum(terms) + 1j))))
    return residual_report("gz", N, "whittaker-equations", worst, tol)


def check_spherical_equation(arr: TriangularArray,
                             tol: float = 1e-8) -> VerificationReport:
    """Max relative residual of (E_{n,n+1} - E_{n+1,n}) phi = 0, over the
    arrays of a stack (entries that are numpy arrays, one element per
    array), at every level of arr."""
    _check_level_gaps(arr)
    N = arr.N
    ops = [gz_generator("raise", n, N) - gz_generator("lower", n, N) for n in range(1, N)]
    ratio = _shift_ratios("phi", arr, ops)
    worst = 0.0
    for op in ops:
        terms = op.term_values(arr, ratio)
        worst = max(worst, float(np.max(np.abs(sum(terms)) / sum(np.abs(t) for t in terms))))
    return residual_report("gz", N, "spherical-equation", worst, tol)


# ---------------------------------------------------------------------------
# Measure and Cartan multiplier
# ---------------------------------------------------------------------------


def gz_measure(arr: TriangularArray) -> complex:
    """prod_{n<N} prod_{s<p} (lam_{ns}-lam_{np})(e^{2 pi lam_{np}} - e^{2 pi lam_{ns}}),
    elementwise over a stack of arrays (entries that are numpy arrays, one
    element per array).

    At real a = lam_{ns}, b = lam_{np}, d = a - b, a pair's factor is
    -2 e^{pi(a+b)} d sinh(pi d): -2 pi e^{pi(a+b)} times the pair's
    `separation.sep_measure` 1/(Gamma(-i d) Gamma(i d)) = d sinh(pi d)/pi,
    the within-level factor of `mellin_barnes`.  The asymmetric e^{pi(a+b)}
    is a convention: it keeps the exponential part i-periodic, so the
    multiplier prod (d+i)/d of `check_gz_measure_difference_eq` carries no
    sign; the symmetric -2 d sinh(pi d) would pick up (-1)^{n-1} at level n.

    Each level-n entry lies in n - 1 of the level's n(n-1)/2 pairs, so the
    e^{pi(a+b)} cancel `whittaker_vector`'s prefactor e^{-pi(n-1) sum_j
    lam_{nj}}, and the -2 pi leave c_N = prod_{n=2}^{N-1} (-2 pi)^{-n(n-1)/2}
    (c_2 = 1, c_3 = -1/(2 pi), c_4 = (2 pi)^{-4}).  With lam_h the array
    with level n raised by i(N-n)/2, the Mellin-Barnes integrand at lam_h is
    c_N whittaker_vector(lam) gz_measure(lam) cartan_multiplier(x, lam_h),
    and the spherical one at real lam is c_N e^{-pi sum_n (n-1) sum_j
    lam_{nj}} phi(lam) phi(-lam) gz_measure(lam) cartan_multiplier(x, lam),
    phi = `spherical_vector`.  With `mellin_barnes`' d lam/(2 pi) per
    entry, the wave function is c_N times the GZ integral of w mu chi;
    `oracle.givental` multiplies the Givental integral by its c_3 = 2 =
    1! 2!, so at N = 3 that integral is c_3/2 = -1/(4 pi) times the GZ one.
    """
    out = 1.0 + 0.0j
    for n in range(1, arr.N):
        row = arr.level(n)
        for s in range(len(row)):
            for p in range(s + 1, len(row)):
                out = out * _pair_factor(row[s], row[p])
    return out


def _pair_factor(a, b):
    """(a - b)(e^{2 pi b} - e^{2 pi a}), the factor of one pair of `gz_measure`."""
    a, b = a + 0j, b + 0j
    return (a - b) * (np.exp(2 * math.pi * b) - np.exp(2 * math.pi * a))


def _flat_slots(N: int) -> List[Slot]:
    return [(n, j) for n in range(1, N) for j in range(1, n + 1)]


MEASURE_TOL = 1e-10   # gz_suite's default tolerance for the residual below


def check_gz_measure_difference_eq(arr: TriangularArray, j: int) -> float:
    """Relative residual of (T_{nj,i} mu)/mu = prod_{s!=j'} (d+i)/d at flat slot j,
    the largest over the arrays of a stack (entries that are numpy arrays,
    one element per array).  Every pair factor of `gz_measure` without the
    slot cancels from the quotient, so it is the product over the n - 1
    pairs that hold the slot of each pair's shifted factor over its own."""
    _check_level_gaps(arr)
    slot = _flat_slots(arr.N)[j]
    n, jj = slot
    row, moved = arr.level(n), arr.shifted(((slot, 1),)).level(n)
    ratio = mult = 1.0 + 0.0j
    for s in range(1, n + 1):
        if s != jj:
            a, p = sorted((s, jj))          # the pair's order in `gz_measure`
            ratio = ratio * (_pair_factor(moved[a - 1], moved[p - 1])
                             / _pair_factor(row[a - 1], row[p - 1]))
            d = arr.get(n, jj) - arr.get(n, s) + 0j
            mult = mult * ((d + 1j) / d)
    # |mult| >= 1: each (d + i)/d has modulus sqrt(1 + 1/d^2)
    return float(np.max(np.abs(ratio - mult) / np.maximum(np.abs(ratio), np.abs(mult))))


def cartan_multiplier(x: Sequence[float], arr: TriangularArray) -> complex:
    """e^{i sum_n x_n (sum_j lambda_{nj} - sum_j lambda_{n-1,j})}."""
    if len(x) != arr.N:
        raise ValueError("x must have one entry per level")
    total = 0.0 + 0.0j
    for n in range(1, arr.N + 1):
        total += 1j * x[n - 1] * complex(arr.level_sum(n) - arr.level_sum(n - 1))
    return cmath.exp(total)


# ---------------------------------------------------------------------------


def separated_block(rng: random.Random, rows: int, counts: Sequence[int], low: float,
                    high: float, gap: float) -> List[np.ndarray]:
    """`rows` draws of each count: per row and count, count values in [low,
    high], pairwise at least gap apart, in random order.  One float64 array
    (rows, count) per count, from one `random_words` block per count.

    A draw's sorted values are count sorted uniforms on [low, high -
    (count-1) gap] shifted by 0, gap, 2 gap, ...: a volume-preserving map
    onto the sorted gap-separated tuples, so the draw is uniform on the
    gap-separated tuples, as a rejection sampler's would be.  A uniform is
    the top 53 bits of a word times 2^-53, as in `random.random`.  The order
    is the argsort of count further words, a uniform permutation unless two
    of them tie, which has probability at most C(count, 2)/2^64.  Raises
    ValueError, before any draw, when some count's values do not fit.
    """
    spans = [high - low - (c - 1) * gap for c in counts]
    for c, span in zip(counts, spans):
        if span < 0:
            raise ValueError(f"{c} values at least {gap} apart do not fit in [{low}, {high}]")
    out = []
    for c, span in zip(counts, spans):
        u, key = random_words(rng, (2, rows, c))
        x = low + span * 2.0 ** -53 * np.sort(u >> 11, axis=1) + np.arange(c) * gap
        out.append(np.take_along_axis(x, np.argsort(key, axis=1), axis=1))
    return out


def gz_suite(N: int, trials: int = 20, seed: int = 0,
             tol: float | None = None) -> List[VerificationReport]:
    """Relation checks plus sampled Whittaker/spherical residuals.

    Each sampled (non-exact) check reports its worst residual over `trials`
    arrays against its own default tolerance, or against tol when given.
    The Whittaker and spherical checks run once, on the stack of their
    `trials` arrays, and the measure check once per slot, on the stack of
    its own.  Each stack is one `separated_block` draw: level n of a stack
    is the block of count n, one column per entry.  ValueError when trials
    is outside 1..MAX_TRIALS, before anything is drawn, and when a stack
    does not fit, before the exact checks run: they draw from their own
    generator, so drawing the stacks first moves no value.  N > GZ_MAX_N
    raises ValueError after the trial count's refusal and before any draw.
    """
    check_trials(trials)
    if N > GZ_MAX_N:
        raise ValueError(f"N={N} unsupported: the gz suite runs N <= {GZ_MAX_N}")
    rng = random.Random(seed)
    wide, narrow = (TriangularArray([list(b.T) for b in separated_block(
                        rng, trials, range(1, N + 1), low, high, 0.1)])
                    for low, high in ((-2.0, 2.0), (-1.0, 1.0)))
    out = _check_relations(N, trials, seed, list(_RELATIONS))
    kw = {} if tol is None else {"tol": tol}
    out += [replace(check(wide, **kw), seed=seed)
            for check in (check_whittaker_equations, check_spherical_equation)]
    worst_mu = max((check_gz_measure_difference_eq(narrow, j)
                    for j in range(len(_flat_slots(N)))), default=0.0)
    out.append(residual_report("gz", N, "measure-difference-eq", worst_mu,
                               MEASURE_TOL if tol is None else tol, seed=seed))
    return out
