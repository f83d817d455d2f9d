"""Gamma-product harmonic analysis for the type-A root system.

c-functions built from rank-one factors over inversion sets, the
M-coefficients of the Whittaker functional equation with their cocycle
property, scattering matrices, the b-normalizer, and the Plancherel density.

The spectral vector lambda is a free complex vector; rank-one quantities are
functions of lambda_alpha = <lambda, alpha>/<alpha, alpha>.  The Plancherel
density alone evaluates the c-function on the unitary line (argument
i*lambda), which is what makes it Weyl invariant.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import List, Sequence, Tuple

import numpy as np

from .specfun import POLE_TOL, PoleError, log_gamma

Root = Tuple[int, int]  # (i, j) with i < j, representing e_i - e_j (1-based)

SQRT_PI = math.sqrt(math.pi)
L0 = 50.0   # |lambda_alpha| from which c_alpha_factor sums the asymptotic series
# Most entries `c_function` takes.  Its cost grows as N^2: a `cfunction`
# command, which takes the product twice (c and the Plancherel density),
# spends about 4.2 us per root and pass, 0.35 s at N = 300, 0.67 s at 400
# and 4.5 s at 1000 in process (2 CPUs x86-64, CPython 3.11, entries
# uniform on [-3, 3]).  Its values stay finite only to a few dozen entries
# on such spectra (all of 10 draws at N = 25, none at 30).
C_FUNCTION_MAX_N = 300


class WeylPermutation:
    """Element of S_N acting on spectral vectors by coordinate permutation."""

    __slots__ = ("oneline",)

    def __init__(self, oneline: Sequence[int]):
        ol = tuple(oneline)
        if sorted(ol) != list(range(1, len(ol) + 1)):
            raise ValueError(f"not a permutation of 1..{len(ol)}: {ol}")
        self.oneline = ol

    # s(i) with 1-based i
    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    @property
    def n(self) -> int:
        return len(self.oneline)

    @classmethod
    def identity(cls, n: int) -> "WeylPermutation":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, k: int, n: int) -> "WeylPermutation":
        """Adjacent transposition s_k swapping k and k+1."""
        if not 1 <= k <= n - 1:
            raise IndexError(f"simple reflection index {k} out of range")
        ol = list(range(1, n + 1))
        ol[k - 1], ol[k] = ol[k], ol[k - 1]
        return cls(ol)

    @classmethod
    def longest(cls, n: int) -> "WeylPermutation":
        return cls(range(n, 0, -1))

    def __mul__(self, other: "WeylPermutation") -> "WeylPermutation":
        """(self * other)(i) = self(other(i))."""
        return WeylPermutation([self(other(i)) for i in range(1, self.n + 1)])

    def inverse(self) -> "WeylPermutation":
        inv = [0] * self.n
        for i in range(1, self.n + 1):
            inv[self(i) - 1] = i
        return WeylPermutation(inv)

    def is_identity(self) -> bool:
        return self.oneline == tuple(range(1, self.n + 1))

    def apply(self, lam: Sequence[complex]) -> np.ndarray:
        """(s lam)_i = lam_{s^{-1}(i)}."""
        inv = self.inverse()
        return np.array([lam[inv(i) - 1] for i in range(1, self.n + 1)])

    def length(self) -> int:
        ol = self.oneline
        return sum(1 for a in range(self.n) for b in range(a + 1, self.n)
                   if ol[a] > ol[b])

    def reduced_word(self) -> List[int]:
        """One reduced word s = s_{k1} ... s_{kl} (right-descent peeling)."""
        w = list(self.oneline)
        word: List[int] = []
        while True:
            for k in range(self.n - 1):
                if w[k] > w[k + 1]:
                    w[k], w[k + 1] = w[k + 1], w[k]
                    word.append(k + 1)
                    break
            else:
                break
        word.reverse()
        return word

    def all_reduced_words(self) -> List[List[int]]:
        if self.is_identity():
            return [[]]
        words = []
        for k in range(1, self.n):
            sk = WeylPermutation.simple(k, self.n)
            rest = sk * self
            if rest.length() < self.length():
                for w in rest.all_reduced_words():
                    words.append([k] + w)
        return words

    def __eq__(self, other):
        return isinstance(other, WeylPermutation) and self.oneline == other.oneline

    def __repr__(self):
        return f"WeylPermutation{self.oneline}"


def word_to_permutation(word: Sequence[int], n: int) -> WeylPermutation:
    s = WeylPermutation.identity(n)
    for k in word:
        s = s * WeylPermutation.simple(k, n)
    return s


# ---------------------------------------------------------------------------


def lambda_alpha(lam: Sequence[complex], root: Root) -> complex:
    """<lambda, alpha>/<alpha, alpha> for alpha = e_i - e_j."""
    i, j = root
    return lam[i - 1] / 2.0 - lam[j - 1] / 2.0   # halved first: no overflow at 1e308


def delta_set(s: WeylPermutation) -> set:
    """Positive roots mapped to negative ones: {(i,j): i<j, s^{-1}(i) > s^{-1}(j)}."""
    inv = s.inverse()
    return {(i, j) for i in range(1, s.n + 1) for j in range(i + 1, s.n + 1)
            if inv(i) > inv(j)}


def c_alpha_factor(lam: Sequence[complex], root: Root) -> complex:
    """Rank-one factor Gamma(l) Gamma(1/2) / Gamma(l + 1/2), l = lambda_alpha,
    taken through logs so that large |l| do not overflow.  From |l| = L0 on
    the difference of two log Gammas of size l ln l would lose relative
    accuracy in proportion to |l|, so `_large_l_factor` sums the asymptotic
    series of the ratio instead: at l itself for Re l >= 0, and at
    m = 1/2 - l for Re l < 0 through the reflection
    Gamma(l)/Gamma(l + 1/2) = cot(pi l) Gamma(m)/Gamma(m + 1/2)."""
    la = lambda_alpha(lam, root)
    if abs(la) < L0:
        return SQRT_PI * cmath.exp(log_gamma(la) - log_gamma(la + 0.5))
    if la.real < 0:
        return _cot_pi(la) * _large_l_factor(0.5 - la)
    return _large_l_factor(la)


def _large_l_factor(l: complex) -> complex:
    """sqrt(pi) Gamma(l)/Gamma(l + 1/2) for Re l >= 0 and |l| near L0 or
    above: the log ratio -ln(l)/2 + 1/(8 l) - 1/(192 l^3) + 1/(640 l^5)
    - 17/(14336 l^7), truncated below 1e-18 there."""
    z = 1.0 / l
    z2 = z * z
    series = z * (1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * 17 / 14336)))
    return SQRT_PI * cmath.exp(series - 0.5 * cmath.log(l))


def _cot_pi(z: complex) -> complex:
    """cot(pi z), Re z reduced before the multiplication by pi.  Raises
    PoleError within POLE_TOL of a pole of Gamma(z) or of Gamma(z + 1/2)."""
    n = round(2.0 * z.real)            # z = n/2 + w, |Re w| <= 1/4, w exact
    w = complex(z.real - 0.5 * n, z.imag)
    if abs(w) < POLE_TOL:
        raise PoleError(f"log_gamma pole at z={z + 0.5 * (n % 2)}")
    t = cmath.tan(complex(math.pi * w.real, math.pi * w.imag))
    return -t if n % 2 else 1.0 / t


def c_s(lam: Sequence[complex], s: WeylPermutation) -> complex:
    """Product of rank-one factors over the inversion set of s."""
    out = 1.0 + 0.0j
    for root in delta_set(s):
        out *= c_alpha_factor(lam, root)
    return out


def c_function(lam: Sequence[complex]) -> complex:
    """Full product over all positive roots (s = longest element).
    ValueError above C_FUNCTION_MAX_N entries, before any Gamma value."""
    if len(lam) > C_FUNCTION_MAX_N:
        raise ValueError(f"N={len(lam)} unsupported: the c-function takes "
                         f"N <= {C_FUNCTION_MAX_N} entries")
    return c_s(lam, WeylPermutation.longest(len(lam)))


def m_elementary(lam: Sequence[complex], k: int) -> complex:
    """M for the elementary reflection at simple root k, at the unit
    character (coefficient 1 on every simple root).

    With e(l) = 2^{1 - l} sqrt(pi) Gamma(l + 1/2) and l = lambda_alpha,
    M = e(l)/e(-l) (1/4)^{2l} = (1/8)^{2l} Gamma(l + 1/2)/Gamma(1/2 - l):
    the factors 2 sqrt(pi) cancel and 2^{-l}/2^{l} = 2^{-2l}.  The printed
    exponent 2*alpha(lambda) is read as 2*lambda_alpha.
    """
    la = lambda_alpha(lam, (k, k + 1))
    return cmath.exp(2.0 * la * math.log(1.0 / 8.0)
                     + log_gamma(la + 0.5) - log_gamma(0.5 - la))


def m_function(s: WeylPermutation, lam: Sequence[complex],
               word: Sequence[int] | None = None) -> complex:
    """Cocycle product of elementary M factors along a reduced word of s.

    M(s1 s2, lam) = M(s2, lam) M(s1, s2 lam), applied letter by letter
    from the right end of the word: letter k contributes M(s_k, mu), with
    mu the image of lam under the letters to its right.
    """
    out, mu = 1.0 + 0.0j, lam
    for k in reversed(s.reduced_word() if word is None else word):
        out *= m_elementary(mu, k)
        mu = WeylPermutation.simple(k, s.n).apply(mu)
    return out


def scattering_matrices(lam: Sequence[complex]):
    """(S_w0, S0_w0): Toda and spherical scattering phases at lambda."""
    n = len(lam)
    w0 = WeylPermutation.longest(n)
    ratio = c_function(lam) / c_function(w0.apply(lam))
    return ratio * m_function(w0, lam), ratio


def b_denominator(lam: Sequence[complex]) -> complex:
    """prod_{alpha in Delta_+} Gamma(<alpha, lambda>/i + 1/2)."""
    n = len(lam)
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(i + 1, n):
            total += log_gamma(-1j * (lam[i] - lam[j]) + 0.5)
    return cmath.exp(total)


def plancherel_density(lam: Sequence[float]) -> float:
    """1/|c|^2 on the unitary spectrum (c evaluated at i*lambda).

    Returns 0 at coincident entries, where the c-function has a pole, and
    raises OverflowError where 1/|c|^2 is past the largest double.
    """
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i] == lam[j]:
                return 0.0
    c2 = abs(c_function(1j * lam)) ** 2
    if c2 * sys.float_info.max < 1.0:    # also 0, where |c| underflowed
        raise OverflowError("the Plancherel density 1/|c|^2 exceeds the largest double")
    return 1.0 / c2


def m_b_compatibility(k: int, lam0: Sequence[float],
                      direction: Sequence[float],
                      ts: Sequence[float]) -> List[complex]:
    """Values of M(s_k, lam) b(lam)/b(s_k lam) along lam0 + t*direction.

    The quantity depends on lambda only through lambda_alpha, so it is
    constant along directions orthogonal to alpha = e_k - e_{k+1}; the
    returned list makes that testable and reports the constant.
    """
    d = np.asarray(direction, dtype=float).copy()
    # project out the alpha component so the line keeps lambda_alpha fixed
    alpha = np.zeros(len(lam0))
    alpha[k - 1], alpha[k] = 1.0, -1.0
    d -= alpha * (d @ alpha) / (alpha @ alpha)
    sk = WeylPermutation.simple(k, len(lam0))
    out = []
    for t in ts:
        lam = np.asarray(lam0, dtype=float) + t * d
        out.append(m_elementary(lam, k) * b_denominator(lam)
                   / b_denominator(sk.apply(lam)))
    return out
