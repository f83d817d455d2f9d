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
cancel symbolically, and evaluation computes each coefficient once per
shifted array.

Operator identities are checked by random-point identity testing
(Schwartz 1980; Zippel 1979) in the field F_p[i], p = 2^61 - 1 (see
`rationals`).  The array entries and the test-function parameters beta are
drawn uniformly from F_p; the relation is applied to the exponential
test function f(lambda + k*i e_{nj}) = beta_{nj}^k f(lambda), and the value
must be 0.  Within-level entries are distinct, so no denominator
lambda_{nj} - lambda_{ns} + c*i vanishes.  A nonzero relation, cleared of
denominators and of negative powers of beta, is a nonzero polynomial Q in
the entries and the betas, of total degree deg.  Counting numerator
degrees, distinct linear denominator factors and beta exponents bounds deg
by 50 for every relation of the suite at N <= 5, so one trial passes
falsely with probability at most deg/p < 3e-17.  This assumes p does not
divide every coefficient of Q, which would make Q vanish identically mod p.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from .rationals import ONE, P, FpI, Gauss, as_gauss, gauss_mul
from .report import VerificationReport
from .specfun import PoleError, gamma_shift_ratio, log_gamma

MIN_GAP = 1e-8

Slot = Tuple[int, int]          # (n, j), 1-based level and position
ShiftKey = Tuple[Tuple[Slot, int], ...]  # sorted ((n,j), k): lambda_{nj} += k*i

# Gaussian-integer prefactor of each generator's coefficients: 1/i for the
# diagonal and lowering generators, -(1/i) for the raising one (see above).
GENERATOR_PREFACTOR: Dict[str, Gauss] = {
    "diagonal": (0, -1), "raise": (0, 1), "lower": (0, -1)}

_FP_ONE = FpI(1)
_FP_HALF_I = FpI(0, 1) / 2


@dataclass(frozen=True)
class TriangularArray:
    """Spectral array: level n (1-based) holds n entries lambda_{n1..nn}.

    Entries are floats or complex numbers for the numerical checks, and
    `FpI` field elements for the exact ones.
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

    def shifted(self, shifts: ShiftKey) -> "TriangularArray":
        """New array with lambda_{nj} += k*i for each ((n,j), k)."""
        lv = [list(row) for row in self.levels]
        for (n, j), k in shifts:
            v = lv[n - 1][j - 1]
            lv[n - 1][j - 1] = v + (FpI(0, k) if type(v) is FpI else k * 1j)
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

    Calling it on an array evaluates it in the array's own arithmetic:
    complex for float entries, F_p[i] for `FpI` entries.
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
        exact = type(arr.levels[0][0]) is FpI
        one, half_i = (_FP_ONE, _FP_HALF_I) if exact else (1 + 0j, 0.5j)
        pre = GENERATOR_PREFACTOR[self.kind]
        pre = FpI(*pre) if exact else complex(*pre)
        n, j = self.n, self.j
        if self.kind == "diagonal":
            return pre * (arr.level_sum(n) - arr.level_sum(n - 1))
        x = arr.get(n, j)
        num = one
        if self.kind == "raise":
            for r in range(1, n + 2):
                num = num * (x - arr.get(n + 1, r) - half_i)
        else:
            for r in range(1, n):
                num = num * (x - arr.get(n - 1, r) + half_i)
        den = one
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

    def evaluate_on_test(self, arr: TriangularArray, beta: Dict[Slot, FpI]) -> FpI:
        """Apply to the test function with f(lambda + k*i e_{nj}) = beta_{nj}^k f.

        arr has `FpI` entries and beta `FpI` values; the result is in F_p[i].
        """
        values: Dict[Factor, FpI] = {}
        monomials: Dict[ShiftKey, FpI] = {}
        total = FpI()
        for (shift, factors), c in self.terms.items():
            val = FpI(*c)
            for factor in factors:
                v = values.get(factor)
                if v is None:
                    coef, s = factor
                    v = values[factor] = coef(arr.shifted(s) if s else arr)
                val = val * v
            m = monomials.get(shift)
            if m is None:
                m = _FP_ONE
                for slot, k in shift:
                    m = m * beta[slot] ** k
                monomials[shift] = m
            total = total + val * m
        return total

    def numeric_terms(self, arr: TriangularArray):
        """(coefficient value, shift) per term, in complex arithmetic."""
        for (shift, factors), c in self.terms.items():
            val = None
            for coef, s in factors:
                v = coef(arr.shifted(s) if s else arr)
                val = v if val is None else val * v
            if val is None:
                val = 1 + 0j
            if c != ONE:
                val = complex(*c) * val
            yield val, shift

    def apply_with_ratio(self, arr: TriangularArray,
                         ratio: Callable[[TriangularArray, ShiftKey], complex]) -> complex:
        """sum_t c_t(arr) * [f(arr shifted by t)/f(arr)] for f given by `ratio`."""
        total = 0.0 + 0.0j
        for val, shift in self.numeric_terms(arr):
            total += val * ratio(arr, shift)
        return total


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


def compose(a: DifferenceOperator, b: DifferenceOperator) -> DifferenceOperator:
    return a * b


# ---------------------------------------------------------------------------
# Exact identity testing
# ---------------------------------------------------------------------------


def _random_fp_array(N: int, rng: random.Random) -> TriangularArray:
    """Array of entries drawn uniformly from F_p, distinct within each level."""
    levels = []
    for n in range(1, N + 1):
        row: List[FpI] = []
        while len(row) < n:
            v = FpI(rng.randrange(P))
            if v not in row:
                row.append(v)
        levels.append(row)
    return TriangularArray(levels)


def _random_fp_betas(N: int, rng: random.Random) -> Dict[Slot, FpI]:
    """Test-function parameters drawn uniformly from F_p minus 0."""
    return {(n, j): FpI(rng.randrange(1, P))
            for n in range(1, N) for j in range(1, n + 1)}


def _check_zero_operator(op: DifferenceOperator, N: int, trials: int,
                         rng: random.Random) -> Tuple[bool, str]:
    for t in range(trials):
        arr = _random_fp_array(N, rng)
        beta = _random_fp_betas(N, rng)
        val = op.evaluate_on_test(arr, beta)
        if not val.is_zero():
            return False, f"trial {t}: value {val} at {arr.levels}"
    return True, ""


def check_gl_relations(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Exact randomized check of the defining gl(N) brackets.

    [H_n, E_m] = (d_nm - d_{n,m+1}) E_m,  [H_n, F_m] = -(...) F_m,
    [E_n, F_m] = d_nm (H_n - H_{n+1}), with E/F the raise/lower families.
    """
    rng = random.Random(seed)
    H = {n: gz_generator("diagonal", n, N) for n in range(1, N + 1)}
    E = {m: gz_generator("raise", m, N) for m in range(1, N)}
    F = {m: gz_generator("lower", m, N) for m in range(1, N)}

    failures = []
    for n in range(1, N + 1):
        for m in range(1, N):
            d = (1 if n == m else 0) - (1 if n == m + 1 else 0)
            rel = H[n].commutator(E[m]) - E[m].scaled(d)
            ok, wit = _check_zero_operator(rel, N, trials, rng)
            if not ok:
                failures.append(f"[H{n},E{m}]: {wit}")
            rel = H[n].commutator(F[m]) + F[m].scaled(d)
            ok, wit = _check_zero_operator(rel, N, trials, rng)
            if not ok:
                failures.append(f"[H{n},F{m}]: {wit}")
    for n in range(1, N):
        for m in range(1, N):
            rel = E[n].commutator(F[m])
            if n == m:
                rel = rel - (H[n] - H[n + 1])
            ok, wit = _check_zero_operator(rel, N, trials, rng)
            if not ok:
                failures.append(f"[E{n},F{m}]: {wit}")

    return VerificationReport(
        suite="gz", n=N, relation="gl-relations",
        status="PASS" if not failures else "FAIL",
        seed=seed, witness="; ".join(failures) or None,
    )


def check_serre(N: int, trials: int = 20, seed: int = 0) -> VerificationReport:
    """Serre relations for the raise and lower families (vacuous at N=2)."""
    rng = random.Random(seed)
    fams = {
        "raise": {m: gz_generator("raise", m, N) for m in range(1, N)},
        "lower": {m: gz_generator("lower", m, N) for m in range(1, N)},
    }
    failures = []
    for name, X in fams.items():
        for n in range(1, N):
            for m in range(1, N):
                if n == m:
                    continue
                if abs(n - m) == 1:
                    rel = X[n].commutator(X[n].commutator(X[m]))
                else:
                    rel = X[n].commutator(X[m])
                ok, wit = _check_zero_operator(rel, N, trials, rng)
                if not ok:
                    failures.append(f"serre-{name}({n},{m}): {wit}")
    return VerificationReport(
        suite="gz", n=N, relation="serre",
        status="PASS" if not failures else "FAIL",
        seed=seed, witness="; ".join(failures) or None,
    )


# ---------------------------------------------------------------------------
# Whittaker and spherical vectors
# ---------------------------------------------------------------------------


def whittaker_vector(kind: str, arr: TriangularArray) -> complex:
    """w = prod_n e^{-pi(n-1) sum_j lambda_{nj}} prod Gamma(-i dlam + 1/2); w' = 1."""
    if kind == "w_prime":
        return 1.0 + 0.0j
    if kind != "w":
        raise ValueError(f"unknown Whittaker vector kind {kind!r}")
    total = 0.0 + 0.0j
    for n in range(1, arr.N):
        total += -math.pi * (n - 1) * complex(arr.level_sum(n))
        for k in range(1, n + 1):
            for m in range(1, n + 2):
                total += log_gamma(-1j * complex(arr.get(n, k) - arr.get(n + 1, m)) + 0.5)
    return cmath.exp(total)


def _whittaker_shift_ratio(arr: TriangularArray, shift: ShiftKey) -> complex:
    """w(arr shifted)/w(arr), exact in the Gamma arguments (integer shifts)."""
    kmap = dict(shift)
    ratio = 1.0 + 0.0j
    for (n, j), k in shift:
        # prefactor e^{-pi(n-1) k i} = (-1)^{(n-1)k}
        if ((n - 1) * k) % 2:
            ratio = -ratio
    for n in range(1, arr.N):
        for a in range(1, n + 1):
            for b in range(1, n + 2):
                net = kmap.get((n, a), 0) - kmap.get((n + 1, b), 0)
                if net:
                    z = -1j * complex(arr.get(n, a) - arr.get(n + 1, b)) + 0.5
                    ratio *= gamma_shift_ratio(z, net)
    return ratio


def check_whittaker_equations(N: int, arr: TriangularArray,
                              tol: float = 1e-9) -> VerificationReport:
    """Max relative residual of E_{n,n+1} w = -i w and E_{n+1,n} w' = -i w'."""
    _check_level_gaps(arr)
    worst = 0.0
    for n in range(1, N):
        val = gz_generator("raise", n, N).apply_with_ratio(arr, _whittaker_shift_ratio)
        worst = max(worst, abs(val + 1j))
        val = gz_generator("lower", n, N).apply_with_ratio(
            arr, lambda a, s: 1.0 + 0.0j)
        worst = max(worst, abs(val + 1j))
    return VerificationReport(
        suite="gz", n=N, relation="whittaker-equations",
        status="PASS" if worst <= tol else "FAIL",
        residual=worst, tolerance=tol,
    )


SPHERICAL_QUASICONSTANT_BASE = 2.0


def spherical_vector(arr: TriangularArray, include_normalizer: bool = True) -> complex:
    """prod_n e^{-pi(n-1)/2 sum lam} prod Gamma(dlam/(2i) + 1/4), normalized.

    The default periodic normalizer prod_{n<N,j} 2^{-i lambda_{nj}} (period
    2i in each variable) is what makes the compact-generator difference
    equations close; pass include_normalizer=False for the bare product.
    """
    total = 0.0 + 0.0j
    for n in range(1, arr.N):
        total += -0.5 * math.pi * (n - 1) * complex(arr.level_sum(n))
        if include_normalizer:
            total += -1j * math.log(SPHERICAL_QUASICONSTANT_BASE) * complex(arr.level_sum(n))
        for k in range(1, n + 1):
            for m in range(1, n + 2):
                total += log_gamma(complex(arr.get(n, k) - arr.get(n + 1, m)) / 2j + 0.25)
    return cmath.exp(total)


def _spherical_shift_ratio(arr: TriangularArray, shift: ShiftKey) -> complex:
    """phi(arr shifted)/phi(arr); Gamma arguments move by half-integers."""
    kmap = dict(shift)
    log_ratio = 0.0 + 0.0j
    for (n, j), k in shift:
        # prefactor phase e^{-i pi (n-1) k / 2} and normalizer factor 2^k
        log_ratio += -1j * math.pi * (n - 1) * k / 2.0
        log_ratio += k * math.log(SPHERICAL_QUASICONSTANT_BASE)
    for n in range(1, arr.N):
        for a in range(1, n + 1):
            for b in range(1, n + 2):
                net = kmap.get((n, a), 0) - kmap.get((n + 1, b), 0)
                if net:
                    z = complex(arr.get(n, a) - arr.get(n + 1, b)) / 2j + 0.25
                    log_ratio += log_gamma(z + net / 2.0) - log_gamma(z)
    return cmath.exp(log_ratio)


def check_spherical_equation(N: int, arr: TriangularArray,
                             tol: float = 1e-8) -> VerificationReport:
    """Max relative residual of (E_{n,n+1} - E_{n+1,n}) phi = 0."""
    _check_level_gaps(arr)
    worst = 0.0
    for n in range(1, N):
        op = gz_generator("raise", n, N) - gz_generator("lower", n, N)
        prods = [v * _spherical_shift_ratio(arr, s) for v, s in op.numeric_terms(arr)]
        val = 0.0 + 0.0j
        for t in prods:
            val += t
        scale = sum(abs(t) for t in prods)
        worst = max(worst, abs(val) / scale)
    return VerificationReport(
        suite="gz", n=N, relation="spherical-equation",
        status="PASS" if worst <= tol else "FAIL",
        residual=worst, tolerance=tol,
    )


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


def sample_real_array(N: int, rng: random.Random, low: float = -2.0,
                      high: float = 2.0, min_gap: float = 0.1) -> TriangularArray:
    """Random real array with within-level pairwise gaps >= min_gap."""
    levels = []
    for n in range(1, N + 1):
        while True:
            row = [rng.uniform(low, high) for _ in range(n)]
            if all(abs(row[a] - row[b]) >= min_gap
                   for a in range(n) for b in range(a + 1, n)):
                break
        levels.append(row)
    return TriangularArray(levels)


def gz_suite(N: int, trials: int = 20, seed: int = 0,
             tol: float | None = None) -> List[VerificationReport]:
    """Relation checks plus sampled Whittaker/spherical residuals.

    tol, when given, overrides the default tolerance of each sampled
    (non-exact) residual check.
    """
    rng = random.Random(seed)
    out = [check_gl_relations(N, trials, seed), check_serre(N, trials, seed)]

    tol_w = tol if tol is not None else 1e-9
    tol_s = tol if tol is not None else 1e-8
    tol_mu = tol if tol is not None else 1e-10
    worst_w, worst_s = 0.0, 0.0
    for _ in range(trials):
        arr = sample_real_array(N, rng)
        worst_w = max(worst_w, check_whittaker_equations(N, arr).residual)
        worst_s = max(worst_s, check_spherical_equation(N, arr).residual)
    out.append(VerificationReport(
        suite="gz", n=N, relation="whittaker-equations",
        status="PASS" if worst_w <= tol_w else "FAIL",
        residual=worst_w, tolerance=tol_w, seed=seed))
    out.append(VerificationReport(
        suite="gz", n=N, relation="spherical-equation",
        status="PASS" if worst_s <= tol_s else "FAIL",
        residual=worst_s, tolerance=tol_s, seed=seed))

    worst_mu = 0.0
    for _ in range(trials):
        arr = sample_real_array(N, rng, low=-1.0, high=1.0)
        for j in range(len(_flat_slots(N))):
            worst_mu = max(worst_mu, check_gz_measure_difference_eq(N, arr, j))
    out.append(VerificationReport(
        suite="gz", n=N, relation="measure-difference-eq",
        status="PASS" if worst_mu <= tol_mu else "FAIL",
        residual=worst_mu, tolerance=tol_mu, seed=seed))
    return out
