"""Separated-variable representation of the open lattice wave functions.

The separated wave function is a pure product of Gamma factors, the
separation measure the inverse modulus-squared of a Gamma product, and both
satisfy first-order difference equations in imaginary directions.  All
analytic continuation under imaginary shifts is routed through the exact
factorial path ``gamma_shift_ratio``.

Shift/phase convention (fixed once by requiring the N=2 check to close
exactly): the lowering translation acts as

    (Lam_j^- f)(lambda) = i^N f(lambda_1, ..., lambda_j + i, ...)

under which  Lam_j^- phi_alpha = prod_k (lambda_j - alpha_k) phi_alpha
holds identically, and the measure satisfies

    mu(lambda + i e_j) = mu(lambda) * prod_{k != j} (lambda_k - lambda_j - i)
                                                    / (lambda_j - lambda_k).
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .report import VerificationReport
from .specfun import PoleError, gamma_shift_ratio, log_gamma

MIN_GAP = 1e-8


@dataclass(frozen=True)
class SpectralParams:
    """Eigenvalue parameters alpha_1..alpha_N."""

    alpha: tuple

    def __init__(self, alpha: Sequence[float]):
        object.__setattr__(self, "alpha", tuple(float(a) for a in alpha))

    @property
    def n(self) -> int:
        return len(self.alpha)

    def sigma1(self) -> float:
        return sum(self.alpha)


@dataclass(frozen=True)
class SeparatedPoint:
    """Total-momentum eigenvalue p plus the N-1 separated variables."""

    p: float
    lam: tuple

    def __init__(self, p: float, lam: Sequence[float]):
        object.__setattr__(self, "p", float(p))
        object.__setattr__(self, "lam", tuple(lam))


def sep_wavefunction(alpha: Sequence[float], lam: Sequence[complex]) -> complex:
    """prod_{j=1}^{N-1} prod_{k=1}^{N} Gamma((lambda_j - alpha_k)/i)."""
    total = 0.0 + 0.0j
    for lj in lam:
        for ak in alpha:
            total += log_gamma(-1j * (lj - ak))
    return cmath.exp(total)


def sep_measure(lam: Sequence[float]) -> float:
    """prod_{j<k} 1 / |Gamma((lambda_j - lambda_k)/i)|^2 on real points."""
    s = 0.0
    for j in range(len(lam)):
        for k in range(j + 1, len(lam)):
            s += 2.0 * log_gamma(-1j * (lam[j] - lam[k])).real
    return math.exp(-s)


def measure_shift_multiplier(lam: Sequence[float], j: int) -> complex:
    """mu(lambda + i e_j)/mu(lambda), continued through exact shift ratios."""
    out = 1.0 + 0.0j
    for k in range(len(lam)):
        if k == j:
            continue
        d = lam[j] - lam[k]
        if abs(d) < MIN_GAP:
            raise PoleError(f"coincident separated variables {j}, {k}")
        z = -1j * d
        # 1/(Gamma(z) Gamma(-z)) continued: z -> z+1, -z -> -z-1
        out /= gamma_shift_ratio(z, 1) * gamma_shift_ratio(-z, -1)
    return out


def check_measure_difference_eq(lam: Sequence[float], j: int) -> float:
    """Relative residual of the measure difference equation at one point."""
    got = measure_shift_multiplier(lam, j)
    want = 1.0 + 0.0j
    for k in range(len(lam)):
        if k == j:
            continue
        want *= (lam[k] - lam[j] - 1j) / (lam[j] - lam[k])
    if want == 0:
        raise PoleError("degenerate multiplier")
    return abs(got / want - 1.0)


def check_dif_equation(alpha: Sequence[float], lam: Sequence[float], j: int) -> float:
    """Relative residual of Lam_j^- phi = prod_k (lambda_j - alpha_k) phi.

    With the module's convention Lam_j^- shifts lambda_j by +i and carries
    the phase i^N; the ratio phi(lambda_j + i)/phi(lambda) is an exact
    factorial product, so the residual is pure rounding.
    """
    N = len(alpha)
    lhs = (1j) ** N
    rhs = 1.0 + 0.0j
    for ak in alpha:
        d = lam[j] - ak
        if abs(d) < MIN_GAP:
            raise PoleError(f"lambda_{j} collides with an alpha entry")
        lhs *= gamma_shift_ratio(-1j * d, 1)
        rhs *= d
    return abs(lhs - rhs) / abs(rhs)


def sep_full_wavefunction(alpha: Sequence[float], point: SeparatedPoint,
                          tol: float = 1e-9):
    """(momentum-match flag, separated wave-function value).

    The delta(P - sigma_1(alpha)) factor of the full wave function is an
    exact support constraint, represented by the boolean.
    """
    sp = SpectralParams(alpha)
    match = abs(point.p - sp.sigma1()) <= tol
    return match, sep_wavefunction(alpha, point.lam)


# ---------------------------------------------------------------------------
# Exact Lagrange interpolation identity
# ---------------------------------------------------------------------------


def _distinct_fractions(rng: random.Random, count: int) -> List[Fraction]:
    vals: List[Fraction] = []
    while len(vals) < count:
        f = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        if all(f != v for v in vals):
            vals.append(f)
    return vals


def check_lagrange_identity(N: int, trials: int = 50, seed: int = 42) -> VerificationReport:
    """Exact rational check of the interpolation identity behind A_N(u):

    (u - sigma_1(alpha) + sum_j lambda_j) prod_j (u - lambda_j)
      + sum_j [prod_{k!=j} (u - lambda_k)/(lambda_j - lambda_k)]
              prod_k (lambda_j - alpha_k)
      = prod_k (u - alpha_k)
    """
    rng = random.Random(seed)
    for t in range(trials):
        samples = _distinct_fractions(rng, 2 * N)
        u = samples[0]
        lam = samples[1:N]
        alpha = samples[N:2 * N]
        s1 = sum(alpha)
        lhs = (u - s1 + sum(lam)) * math.prod((u - l for l in lam), start=Fraction(1))
        for j in range(N - 1):
            term = Fraction(1)
            for k in range(N - 1):
                if k != j:
                    term *= (u - lam[k]) / (lam[j] - lam[k])
            for ak in alpha:
                term *= lam[j] - ak
            lhs += term
        rhs = math.prod((u - a for a in alpha), start=Fraction(1))
        if lhs != rhs:
            return VerificationReport(
                suite="separation", n=N, relation="lagrange", status="FAIL",
                seed=seed, witness=f"trial {t}: u={u}, lam={lam}, alpha={alpha}",
            )
    return VerificationReport(suite="separation", n=N, relation="lagrange",
                              status="PASS", seed=seed)


def separation_suite(N: int, trials: int = 100, seed: int = 42) -> List[VerificationReport]:
    """Difference-equation residuals and the exact Lagrange identity."""
    rng = random.Random(seed)

    def sample(count):
        while True:
            vals = [rng.uniform(-3.0, 3.0) for _ in range(count)]
            ok = all(abs(vals[a] - vals[b]) > 1e-2
                     for a in range(count) for b in range(a + 1, count))
            if ok:
                return vals

    worst_dif = 0.0
    for _ in range(trials):
        vals = sample(2 * N - 1)
        alpha, lam = vals[:N], vals[N:]
        for j in range(N - 1):
            worst_dif = max(worst_dif, check_dif_equation(alpha, lam, j))
    rep_dif = VerificationReport(
        suite="separation", n=N, relation="dif-equation",
        status="PASS" if worst_dif <= 1e-12 else "FAIL",
        residual=worst_dif, tolerance=1e-12, seed=seed,
    )

    worst_meas = 0.0
    if N >= 3:
        for _ in range(trials):
            lam = sample(N - 1)
            for j in range(N - 1):
                worst_meas = max(worst_meas, check_measure_difference_eq(lam, j))
    rep_meas = VerificationReport(
        suite="separation", n=N, relation="measure-difference-eq",
        status="PASS" if worst_meas <= 1e-10 else "FAIL",
        residual=worst_meas, tolerance=1e-10, seed=seed,
    )

    rep_lagr = check_lagrange_identity(N, min(trials, 50), seed)
    return [rep_dif, rep_meas, rep_lagr]
