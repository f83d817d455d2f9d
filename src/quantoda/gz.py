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
cancel symbolically.  One evaluator, `DifferenceOperator.term_values`,
applies an operator to a function given by its shift ratios
f(lambda shifted)/f(lambda), in the field of the array's entries: F_p[i]
for the exponential test functions of the exact checks, complex for the
Whittaker and spherical vectors (one Gamma product, `vector_shift_ratio`).

Operator identities are checked by random-point identity testing
(Schwartz 1980; Zippel 1979) in the field F_p[i], p = 2^61 - 1 (see
`rationals`).  The array entries and the test-function parameters beta are
drawn uniformly from F_p (beta from F_p minus 0), distinct within a level
and among the betas; the relation is applied to the exponential test
function f(lambda + k*i e_{nj}) = beta_{nj}^k f(lambda), and the value must
be 0.  Distinct within-level entries keep every denominator
lambda_{nj} - lambda_{ns} + c*i nonzero.  A nonzero relation, cleared of
denominators and of negative powers of beta, is a nonzero polynomial Q in
the entries and the betas, of total degree deg.  Counting numerator
degrees, distinct linear denominator factors and beta exponents bounds deg
by 50 for every relation of the suite at N <= 5, so one trial passes
falsely with probability at most deg/p < 3e-17 (distinct draws raise this
by a factor below 1 + 1e-16).  This assumes p does not divide every
coefficient of Q, which would make Q vanish identically mod p.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .rationals import ONE, FpI, Gauss, as_gauss, gauss_mul, random_fp
from .report import VerificationReport, residual_report
from .specfun import PoleError, gamma_shift_ratio, log_gamma

MIN_GAP = 1e-8

Slot = Tuple[int, int]          # (n, j), 1-based level and position
ShiftKey = Tuple[Tuple[Slot, int], ...]  # sorted ((n,j), k): lambda_{nj} += k*i

# Gaussian-integer prefactor of each generator's coefficients: 1/i for the
# diagonal and lowering generators, -(1/i) for the raising one (see above).
GENERATOR_PREFACTOR: Dict[str, Gauss] = {
    "diagonal": (0, -1), "raise": (0, 1), "lower": (0, -1)}

# The field of an array's entries: (element constructor, i/2).
_FIELDS = {True: (FpI, FpI(0, 1) / 2), False: (complex, 0.5j)}


@dataclass(frozen=True)
class TriangularArray:
    """Spectral array: level n (1-based) holds n entries lambda_{n1..nn}.

    Entries are `FpI` field elements for the exact checks and floats or
    complex numbers for the numerical ones; `field` says which.
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
        """(element constructor, i/2): F_p[i] for `FpI` entries, else complex."""
        return _FIELDS[type(self.levels[0][0]) is FpI]

    def shifted(self, shifts: ShiftKey) -> "TriangularArray":
        """New array with lambda_{nj} += k*i for each ((n,j), k)."""
        make = self.field[0]
        lv = [list(row) for row in self.levels]
        for (n, j), k in shifts:
            lv[n - 1][j - 1] += make(0, k)
        return TriangularArray(lv)

    def min_level_gap(self) -> float:
        """Smallest within-level pairwise distance over levels 1..N-1."""
        gap = math.inf
        for n in range(1, self.N):
            row = self.levels[n - 1]
            for a in range(len(row)):
                for b in range(a + 1, len(row)):
                    gap = min(gap, abs(complex(row[a]) - complex(row[b])))
        return gap


class Coefficient(NamedTuple):
    """Coefficient of one generator term: E_{nn} ('diagonal', j = 0), or the
    slot-(n, j) term of E_{n,n+1} ('raise') or E_{n+1,n} ('lower').

    Calling it on an array evaluates it in the array's `field`.
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

    def __call__(self, arr: TriangularArray):
        make, half_i = arr.field
        pre = make(*GENERATOR_PREFACTOR[self.kind])
        n, j = self.n, self.j
        if self.kind == "diagonal":
            return pre * (arr.level_sum(n) - arr.level_sum(n - 1))
        x = arr.get(n, j)
        num = den = make(1, 0)
        if self.kind == "raise":
            for r in range(1, n + 2):
                num = num * (x - arr.get(n + 1, r) - half_i)
        else:
            for r in range(1, n):
                num = num * (x - arr.get(n - 1, r) + half_i)
        for s in range(1, n + 1):
            if s != j:
                den = den * (x - arr.get(n, s))
        return pre * num / den


Factor = Tuple[Coefficient, ShiftKey]   # coefficient at the array shifted by ShiftKey
TermKey = Tuple[ShiftKey, Tuple[Factor, ...]]


@lru_cache(maxsize=4096)
def _merge(s1: ShiftKey, s2: ShiftKey) -> ShiftKey:
    merged: Dict[Slot, int] = dict(s1)
    for slot, k in s2:
        merged[slot] = merged.get(slot, 0) + k
    return tuple(sorted((sl, k) for sl, k in merged.items() if k != 0))


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
    def zero(cls) -> "DifferenceOperator":
        return cls()

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
        return self + (-other)

    def scaled(self, factor) -> "DifferenceOperator":
        """Multiply by a Gaussian integer: an int or an (re, im) pair."""
        f = as_gauss(factor)
        return DifferenceOperator({k: gauss_mul(c, f) for k, c in self.terms.items()})

    def __mul__(self, other: "DifferenceOperator") -> "DifferenceOperator":
        """Composition: (a*b)f = a(b(f)); b's coefficients see a's shift.

        Factor tuples are sorted, so equal coefficient products combine.
        """
        return DifferenceOperator()._accumulate(
            ((_merge(s1, s2),
              tuple(sorted(f1 + tuple((coef, _merge(s1, s)) for coef, s in f2)))),
             gauss_mul(c1, c2))
            for (s1, f1), c1 in self.terms.items()
            for (s2, f2), c2 in other.terms.items())

    def commutator(self, other: "DifferenceOperator") -> "DifferenceOperator":
        return self * other - other * self

    def term_values(self, arr: TriangularArray, ratio) -> list:
        """c * prod(coefficients) * ratio(shift) per term, in arr's field.

        ratio(shift) is f(arr shifted)/f(arr) for the function f the
        operator acts on, so the values sum to (op f)(arr)/f(arr).  Each
        coefficient is evaluated once per shifted array and each ratio once
        per shift.
        """
        make = arr.field[0]
        values: Dict[Factor, object] = {}
        ratios: Dict[ShiftKey, object] = {}
        out = []
        for (shift, factors), c in self.terms.items():
            val = make(*c)
            for factor in factors:
                v = values.get(factor)
                if v is None:
                    coef, s = factor
                    v = values[factor] = coef(arr.shifted(s) if s else arr)
                val = val * v
            r = ratios.get(shift)
            if r is None:
                r = ratios[shift] = ratio(shift)
            out.append(val * r)
        return out

    def evaluate_on_test(self, arr: TriangularArray, beta: Dict[Slot, FpI]) -> FpI:
        """Apply to the test function with f(lambda + k*i e_{nj}) = beta_{nj}^k f.

        arr has `FpI` entries and beta `FpI` values; the result is in F_p[i].
        """
        return sum(self.term_values(arr, lambda shift: math.prod(
            (beta[slot] ** k for slot, k in shift), start=FpI(1))), FpI())


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


def _check_zero(relation: str, N: int, trials: int, seed: int,
                relations) -> VerificationReport:
    """Each (label, operator) of `relations` must be the zero operator.

    Per trial an array with entries distinct within each level and the
    nonzero betas are drawn from F_p, in that order; an operator's first
    nonzero value is its witness and ends its trials.
    """
    rng = random.Random(seed)
    slots = _flat_slots(N)
    failures = []
    for label, op in relations:
        for t in range(trials):
            arr = TriangularArray([random_fp(rng, n) for n in range(1, N + 1)])
            beta = dict(zip(slots, random_fp(rng, len(slots), 1)))
            val = op.evaluate_on_test(arr, beta)
            if not val.is_zero():
                failures.append(f"{label}: trial {t}: value {val} at {arr.levels}")
                break
    return VerificationReport(
        suite="gz", n=N, relation=relation,
        status="PASS" if not failures else "FAIL",
        seed=seed, witness="; ".join(failures) or None,
    )


def check_gl_relations(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Exact randomized check of the defining gl(N) brackets.

    [H_n, E_m] = (d_nm - d_{n,m+1}) E_m,  [H_n, F_m] = -(...) F_m,
    [E_n, F_m] = d_nm (H_n - H_{n+1}), with E/F the raise/lower families.
    """
    H = {n: gz_generator("diagonal", n, N) for n in range(1, N + 1)}
    E = {m: gz_generator("raise", m, N) for m in range(1, N)}
    F = {m: gz_generator("lower", m, N) for m in range(1, N)}

    def relations():
        for n in range(1, N + 1):
            for m in range(1, N):
                d = (n == m) - (n == m + 1)
                yield f"[H{n},E{m}]", H[n].commutator(E[m]) - E[m].scaled(d)
                yield f"[H{n},F{m}]", H[n].commutator(F[m]) + F[m].scaled(d)
        for n in range(1, N):
            for m in range(1, N):
                rel = E[n].commutator(F[m])
                yield f"[E{n},F{m}]", rel - (H[n] - H[n + 1]) if n == m else rel

    return _check_zero("gl-relations", N, trials, seed, relations())


def check_serre(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Serre relations for the raise and lower families (vacuous at N=2)."""
    def relations():
        for kind in ("raise", "lower"):
            X = {m: gz_generator(kind, m, N) for m in range(1, N)}
            for n in range(1, N):
                for m in range(1, N):
                    if n != m:
                        rel = X[n].commutator(X[m])
                        if abs(n - m) == 1:
                            rel = X[n].commutator(rel)
                        yield f"serre-{kind}({n},{m})", rel

    return _check_zero("serre", N, trials, seed, relations())


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
    return (-1j * complex(arr.get(n, k) - arr.get(n + 1, m)) + 0.5) / q


def _vector(kind: str, arr: TriangularArray, normalize: bool = True) -> complex:
    q, base = VECTORS[kind]
    total = 0.0 + 0.0j
    for n in range(1, arr.N):
        level = complex(arr.level_sum(n))
        total += -math.pi * (n - 1) / q * level
        if normalize:
            total += -1j * math.log(base) * level
        for k in range(1, n + 1):
            for m in range(1, n + 2):
                total += log_gamma(_gamma_argument(arr, n, k, m, q))
    return cmath.exp(total)


def vector_shift_ratio(kind: str, arr: TriangularArray, shift: ShiftKey) -> complex:
    """v(arr shifted)/v(arr) for v = w or phi, one adjacent-level pair at a time.

    A k*i shift of lambda_{nj}, n < N, multiplies the prefactor by the
    power (-i)^{2(n-1)k/q}, exact as products of 0 and +-1, and the
    normalizer by b^k.  A pair's Gamma argument moves by net/q: an integer
    move is the factorial `gamma_shift_ratio`, a half-integer one (phi) a
    difference of two log-Gamma values.
    """
    q, base = VECTORS[kind]
    kmap = dict(shift)
    moved = [(n, k) for (n, _), k in shift if n < arr.N]
    ratio = ((-1j) ** (sum(2 * (n - 1) * k // q for n, k in moved) % 4)
             * base ** sum(k for _, k in moved))
    log_ratio = 0.0 + 0.0j
    for n in range(1, arr.N):
        for a in range(1, n + 1):
            for b in range(1, n + 2):
                net = kmap.get((n, a), 0) - kmap.get((n + 1, b), 0)
                if net:
                    z = _gamma_argument(arr, n, a, b, q)
                    if net % q:
                        log_ratio += log_gamma(z + net / q) - log_gamma(z)
                    else:
                        ratio *= gamma_shift_ratio(z, net // q)
    return ratio * cmath.exp(log_ratio) if log_ratio else ratio


def whittaker_vector(kind: str, arr: TriangularArray) -> complex:
    """w = prod_n e^{-pi(n-1) sum_j lambda_{nj}} prod Gamma(-i dlam + 1/2); w' = 1."""
    if kind == "w_prime":
        return 1.0 + 0.0j
    if kind != "w":
        raise ValueError(f"unknown Whittaker vector kind {kind!r}")
    return _vector("w", arr)


def spherical_vector(arr: TriangularArray, include_normalizer: bool = True) -> complex:
    """prod_n e^{-pi(n-1)/2 sum lam} prod Gamma(dlam/(2i) + 1/4), normalized.

    The default periodic normalizer prod_{n<N,j} 2^{-i lambda_{nj}} (period
    2i in each variable) is what makes the compact-generator difference
    equations close; pass include_normalizer=False for the bare product.
    """
    return _vector("phi", arr, include_normalizer)


def check_whittaker_equations(N: int, arr: TriangularArray,
                              tol: float = 1e-9) -> VerificationReport:
    """Max relative residual of E_{n,n+1} w = -i w and E_{n+1,n} w' = -i w'."""
    _check_level_gaps(arr)
    worst = 0.0
    for n in range(1, N):
        for kind, ratio in (("raise", lambda s: vector_shift_ratio("w", arr, s)),
                            ("lower", lambda s: 1)):      # w' is constant
            terms = gz_generator(kind, n, N).term_values(arr, ratio)
            worst = max(worst, abs(sum(terms) + 1j))
    return residual_report("gz", N, "whittaker-equations", worst, tol)


def check_spherical_equation(N: int, arr: TriangularArray,
                             tol: float = 1e-8) -> VerificationReport:
    """Max relative residual of (E_{n,n+1} - E_{n+1,n}) phi = 0."""
    _check_level_gaps(arr)
    worst = 0.0
    for n in range(1, N):
        op = gz_generator("raise", n, N) - gz_generator("lower", n, N)
        terms = op.term_values(arr, lambda s: vector_shift_ratio("phi", arr, s))
        worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    return residual_report("gz", N, "spherical-equation", worst, tol)


# ---------------------------------------------------------------------------
# Measure and Cartan multiplier
# ---------------------------------------------------------------------------


def gz_measure(arr: TriangularArray) -> complex:
    """prod_{n<N} prod_{s<p} (lam_{ns}-lam_{np})(e^{2 pi lam_{np}} - e^{2 pi lam_{ns}})."""
    out = 1.0 + 0.0j
    for n in range(1, arr.N):
        row = arr.level(n)
        for s in range(len(row)):
            for p in range(s + 1, len(row)):
                a, b = complex(row[s]), complex(row[p])
                out *= (a - b) * (cmath.exp(2 * math.pi * b) - cmath.exp(2 * math.pi * a))
    return out


def _flat_slots(N: int) -> List[Slot]:
    return [(n, j) for n in range(1, N) for j in range(1, n + 1)]


MEASURE_TOL = 1e-10   # gz_suite's default tolerance for the residual below


def check_gz_measure_difference_eq(N: int, arr: TriangularArray, j: int) -> float:
    """Relative residual of (T_{nj,i} mu) = mu prod_{s!=j'} (d+i)/d at flat slot j."""
    _check_level_gaps(arr)
    slot = _flat_slots(N)[j]
    n, jj = slot
    mu = gz_measure(arr)
    mu_shift = gz_measure(arr.shifted(((slot, 1),)))
    mult = 1.0 + 0.0j
    for s in range(1, n + 1):
        if s != jj:
            d = complex(arr.get(n, jj) - arr.get(n, s))
            mult *= (d + 1j) / d
    want = mu * mult
    scale = max(abs(mu_shift), abs(want))
    if scale == 0:
        return 0.0
    return abs(mu_shift - want) / scale


def cartan_multiplier(x: Sequence[float], arr: TriangularArray) -> complex:
    """e^{i sum_n x_n (sum_j lambda_{nj} - sum_j lambda_{n-1,j})}."""
    if len(x) != arr.N:
        raise ValueError("x must have one entry per level")
    total = 0.0 + 0.0j
    for n in range(1, arr.N + 1):
        total += 1j * x[n - 1] * complex(arr.level_sum(n) - arr.level_sum(n - 1))
    return cmath.exp(total)


# ---------------------------------------------------------------------------


def separated_uniforms(rng: random.Random, count: int, low: float, high: float,
                       gap: float) -> List[float]:
    """count values in [low, high], pairwise at least gap apart, in random order.

    The sorted values are count sorted uniforms on [low, high - (count-1) gap]
    shifted by 0, gap, 2 gap, ...: a volume-preserving map onto the sorted
    gap-separated tuples, so the result is uniform on the gap-separated
    tuples, as a rejection sampler's would be, after exactly count draws.
    Raises ValueError when count values that far apart do not fit.
    """
    span = high - low - (count - 1) * gap
    if span < 0:
        raise ValueError(f"{count} values at least {gap} apart do not fit "
                         f"in [{low}, {high}]")
    vals = sorted(rng.uniform(low, low + span) for _ in range(count))
    vals = [v + k * gap for k, v in enumerate(vals)]
    rng.shuffle(vals)
    return vals


def sample_real_array(N: int, rng: random.Random, low: float = -2.0,
                      high: float = 2.0, min_gap: float = 0.1) -> TriangularArray:
    """Random real array with within-level pairwise gaps >= min_gap."""
    return TriangularArray([separated_uniforms(rng, n, low, high, min_gap)
                            for n in range(1, N + 1)])


def gz_suite(N: int, trials: int = 20, seed: int = 0,
             tol: float | None = None) -> List[VerificationReport]:
    """Relation checks plus sampled Whittaker/spherical residuals.

    Each sampled (non-exact) check reports its worst residual over `trials`
    arrays against its own default tolerance, or against tol when given.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    out = [check_gl_relations(N, trials, seed), check_serre(N, trials, seed)]
    kw = {} if tol is None else {"tol": tol}
    arrays = [sample_real_array(N, rng) for _ in range(trials)]
    for check in (check_whittaker_equations, check_spherical_equation):
        reps = [check(N, arr, **kw) for arr in arrays]
        out.append(replace(max(reps, key=lambda r: r.residual), seed=seed))

    arrays = [sample_real_array(N, rng, low=-1.0, high=1.0) for _ in range(trials)]
    worst_mu = max((check_gz_measure_difference_eq(N, arr, j) for arr in arrays
                    for j in range(len(_flat_slots(N)))), default=0.0)
    out.append(residual_report("gz", N, "measure-difference-eq", worst_mu,
                               MEASURE_TOL if tol is None else tol, seed=seed))
    return out
