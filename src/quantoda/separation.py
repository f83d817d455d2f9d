"""Separated-variable representation of the open lattice wave functions.

The separated wave function is a pure product of Gamma factors, the
separation measure the inverse modulus-squared of a Gamma product, and both
satisfy first-order difference equations in imaginary directions.  All
analytic continuation under imaginary shifts is routed through the exact
factorial path ``gamma_shift_ratio``.  The Lagrange interpolation identity
behind the separating transform is checked exactly at random points of
F_p[i], the field of the `gz` relation checks.

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
from typing import List, Sequence

from .gz import separated_uniforms
from .rationals import FpI, random_fp
from .report import VerificationReport, residual_report
from .specfun import PoleError, gamma_shift_ratio, log_gamma, log_gamma_array

MIN_GAP = 1e-8


def sep_wavefunction(alpha: Sequence[float], lam: Sequence[complex]) -> complex:
    """prod_{j=1}^{N-1} prod_{k=1}^{N} Gamma((lambda_j - alpha_k)/i).

    The log Gammas come from `log_gamma_array`, as in the recursive route's
    separated kernel, so the two agree to the last bit.
    """
    total = 0.0 + 0.0j
    for lg in log_gamma_array([-1j * (lj - ak) for lj in lam for ak in alpha]):
        total += lg
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


# ---------------------------------------------------------------------------
# Exact Lagrange interpolation identity
# ---------------------------------------------------------------------------


def _lagrange_lhs(u, lam, alpha):
    """Left side of the interpolation identity of `check_lagrange_identity`."""
    one = FpI(1)
    lhs = (u - sum(alpha) + sum(lam)) * math.prod((u - l for l in lam), start=one)
    for j, lj in enumerate(lam):
        others = lam[:j] + lam[j + 1:]
        num = math.prod([u - lk for lk in others] + [lj - ak for ak in alpha], start=one)
        lhs += num / math.prod((lj - lk for lk in others), start=one)
    return lhs


def check_lagrange_identity(N: int, trials: int = 50, seed: int = 42) -> VerificationReport:
    """Randomized exact check of the interpolation identity behind A_N(u):

    (u - sigma_1(alpha) + sum_j lambda_j) prod_j (u - lambda_j)
      + sum_j [prod_{k!=j} (u - lambda_k)/(lambda_j - lambda_k)]
              prod_k (lambda_j - alpha_k)
      = prod_k (u - alpha_k)

    u, the N-1 lambdas and the N alphas are drawn distinct and uniformly
    from F_p, p = 2^61 - 1 (`rationals.FpI`), so no denominator vanishes.
    Multiplied by prod_{j<k} (lambda_j - lambda_k), a false identity is a
    nonzero polynomial of total degree at most deg = (N-1)(N-2)/2 + N, and
    one trial passes it with probability at most deg/p (Schwartz 1980;
    Zippel 1979), or at most 1/(1 - 2N^2/p) times that once the draws are
    conditioned on being distinct.
    """
    rng = random.Random(seed)
    witness = None
    for t in range(trials):
        samples = random_fp(rng, 2 * N)
        u, lam, alpha = samples[0], samples[1:N], samples[N:2 * N]
        if _lagrange_lhs(u, lam, alpha) != math.prod((u - a for a in alpha), start=FpI(1)):
            witness = f"trial {t}: u={u}, lam={lam}, alpha={alpha}"
            break
    return VerificationReport(suite="separation", n=N, relation="lagrange",
                              status="FAIL" if witness else "PASS", seed=seed,
                              witness=witness)


def separation_suite(N: int, trials: int = 100, seed: int = 42) -> List[VerificationReport]:
    """Difference-equation residuals and the exact Lagrange identity."""
    rng = random.Random(seed)

    worst_dif = 0.0
    for _ in range(trials):
        vals = separated_uniforms(rng, 2 * N - 1, -3.0, 3.0, 1e-2)
        alpha, lam = vals[:N], vals[N:]
        for j in range(N - 1):
            worst_dif = max(worst_dif, check_dif_equation(alpha, lam, j))
    rep_dif = residual_report("separation", N, "dif-equation", worst_dif, 1e-12,
                              seed=seed)

    worst_meas = 0.0
    if N >= 3:
        for _ in range(trials):
            lam = separated_uniforms(rng, N - 1, -3.0, 3.0, 1e-2)
            for j in range(N - 1):
                worst_meas = max(worst_meas, check_measure_difference_eq(lam, j))
    rep_meas = residual_report("separation", N, "measure-difference-eq", worst_meas,
                               1e-10, seed=seed)

    rep_lagr = check_lagrange_identity(N, min(trials, 50), seed)
    return [rep_dif, rep_meas, rep_lagr]
