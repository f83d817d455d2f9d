"""Separated-variable representation of the open lattice wave functions.

The separated wave function is a pure product of Gamma factors, the
separation measure the inverse modulus-squared of a Gamma product, and both
satisfy first-order difference equations in imaginary directions.  All
analytic continuation under imaginary shifts is routed through the exact
factorial path ``gamma_shift_ratio``.  The residual checks take one point
or, elementwise, numpy arrays of points, so `separation_suite` checks all
its sampled points at once for each j.  The Lagrange interpolation identity
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

import numpy as np

from .gz import MIN_GAP, separated_block
from .rationals import FpLanes, check_trials, first_witnesses, random_lanes
from .report import VerificationReport, residual_report
from .specfun import PoleError, gamma_shift_ratio, log_gamma, log_gamma_array


def sep_wavefunction(alpha: Sequence[float], lam: Sequence[complex]) -> complex:
    """prod_{j=1}^{N-1} prod_{k=1}^{N} Gamma((lambda_j - alpha_k)/i).

    The log Gammas come from `log_gamma_array`, as in the quadrature's
    kernel: the tests take this product node by node as its reference.
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
    """mu(lambda + i e_j)/mu(lambda), continued through exact shift ratios;
    elementwise when the entries of lam are arrays of points."""
    out = 1.0 + 0.0j
    for k in range(len(lam)):
        if k == j:
            continue
        d = lam[j] - lam[k]
        if np.any(np.abs(d) < MIN_GAP):
            raise PoleError(f"coincident separated variables {j}, {k}")
        z = -1j * d
        # 1/(Gamma(z) Gamma(-z)) continued: z -> z+1, -z -> -z-1
        out = out / (gamma_shift_ratio(z, 1) * gamma_shift_ratio(-z, -1))
    return out


def check_measure_difference_eq(lam: Sequence[float], j: int) -> float:
    """Relative residual of the measure difference equation at one point, or
    the largest over the points when the entries of lam are arrays."""
    got = measure_shift_multiplier(lam, j)
    want = 1.0 + 0.0j
    for k in range(len(lam)):
        if k == j:
            continue
        want = want * ((lam[k] - lam[j] - 1j) / (lam[j] - lam[k]))
    return float(np.max(np.abs(got / want - 1.0), initial=0.0))


def check_dif_equation(alpha: Sequence[float], lam: Sequence[float], j: int) -> float:
    """Relative residual of Lam_j^- phi = prod_k (lambda_j - alpha_k) phi, or
    the largest over the points when the entries of alpha and lam are arrays.

    With the module's convention Lam_j^- shifts lambda_j by +i and carries
    the phase i^N; the ratio phi(lambda_j + i)/phi(lambda) is an exact
    factorial product, so the residual is pure rounding.
    """
    N = len(alpha)
    lhs = (1j) ** N
    rhs = 1.0 + 0.0j
    for ak in alpha:
        d = lam[j] - ak
        if np.any(np.abs(d) < MIN_GAP):
            raise PoleError(f"lambda_{j} collides with an alpha entry")
        lhs = lhs * gamma_shift_ratio(-1j * d, 1)
        rhs = rhs * d
    return float(np.max(np.abs(lhs - rhs) / np.abs(rhs), initial=0.0))


# ---------------------------------------------------------------------------
# Exact Lagrange interpolation identity
# ---------------------------------------------------------------------------


def _prod(factors):
    """Product of a nonempty list of lane values, with no product by 1."""
    return math.prod(factors[1:], start=factors[0])


def _lagrange_lhs(u, lam, alpha):
    """Left side of the interpolation identity of `check_lagrange_identity`
    times D = prod_j d_j, d_j = prod_{k!=j} (lambda_j - lambda_k), and D:
    the sum is kept as a numerator over the product of the d's taken so
    far.  At N <= 2 there is no d, D = 1, and None stands for it."""
    total, den = 0, None
    for j, lj in enumerate(lam):
        others = lam[:j] + lam[j + 1:]
        num = _prod([u - lk for lk in others] + [lj - ak for ak in alpha])
        dj = _prod([lj - lk for lk in others]) if others else None
        if den is None:
            total, den = num, dj
        else:
            total, den = total * dj + num * den, den * dj
    tail = [u - sum(alpha) + sum(lam)] + [u - lk for lk in lam]
    if den is not None:
        tail.append(den)
    return total + _prod(tail), den


def check_lagrange_identity(N: int, trials: int = 50, seed: int = 42) -> VerificationReport:
    """Randomized exact check of the interpolation identity behind A_N(u):

    (u - sigma_1(alpha) + sum_j lambda_j) prod_j (u - lambda_j)
      + sum_j [prod_{k!=j} (u - lambda_k)/(lambda_j - lambda_k)]
              prod_k (lambda_j - alpha_k)
      = prod_k (u - alpha_k)

    u, the N-1 lambdas and the N alphas are drawn distinct and uniformly
    from F_p, p = 2^31 - 1, on three lanes per trial (`rationals`), so
    D = prod_{j!=k} (lambda_j - lambda_k) is nonzero, and both sides are
    compared times D, which changes no lane's zero test.  Multiplied by
    prod_{j<k} (lambda_j - lambda_k), a false identity is a nonzero
    polynomial of total degree at most deg = (N-1)(N-2)/2 + N, and one trial
    passes it with probability at most (deg/p)^3 <= deg/(2^61 - 1) (Schwartz
    1980; Zippel 1979), or at most 1/(1 - 2N^2/p)^3 times that once the
    draws are conditioned on being distinct.  The witness is the first
    nonzero lane.  ValueError when trials is outside 1..MAX_TRIALS.
    """
    def block(rng, lanes):
        draws = [FpLanes(row) for row in random_lanes(rng, lanes, 2 * N)]
        u, lam, alpha = draws[0], draws[1:N], draws[N:]
        lhs, d = _lagrange_lhs(u, lam, alpha)
        rhs = _prod([u - a for a in alpha] + ([] if d is None else [d]))
        bad = ~(lhs - rhs).zeros()
        return [bad], lambda _, k: (f"u={u.lane(k)}, lam={[x.lane(k) for x in lam]}, "
                                    f"alpha={[x.lane(k) for x in alpha]}")

    witness, = first_witnesses(1, trials, seed, block)
    return VerificationReport(suite="separation", n=N, relation="lagrange",
                              status="FAIL" if witness else "PASS", seed=seed,
                              witness=witness)


def separation_suite(N: int, trials: int = 100, seed: int = 42) -> List[VerificationReport]:
    """Difference-equation residuals and the exact Lagrange identity, the
    latter on min(trials, 50) trials.

    The `trials` points of both residual checks are drawn as one block
    (`gz.separated_block`, one count per check); each check then runs once
    per j on its columns, one array per variable.  ValueError when trials
    is outside 1..MAX_TRIALS, before anything is drawn, and when the points
    do not fit, before the Lagrange identity runs.  It runs last, on its
    own generator, so the order moves no value.
    """
    check_trials(trials)
    cols, lam = (b.T for b in separated_block(random.Random(seed), trials,
                                              [2 * N - 1, N - 1], -3.0, 3.0, 1e-2))
    worst_dif = max((check_dif_equation(cols[:N], cols[N:], j) for j in range(N - 1)),
                    default=0.0)
    rep_dif = residual_report("separation", N, "dif-equation", worst_dif, 1e-12,
                              seed=seed)
    # at N = 2 the one variable has no partner: the residual is exactly 0
    worst_meas = max((check_measure_difference_eq(lam, j) for j in range(N - 1)),
                     default=0.0)
    rep_meas = residual_report("separation", N, "measure-difference-eq", worst_meas,
                               1e-10, seed=seed)

    return [rep_dif, rep_meas, check_lagrange_identity(N, min(trials, 50), seed)]
