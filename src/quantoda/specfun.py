"""Complex Gamma utilities.

`log_gamma` is the principal branch of log Gamma; `gamma_shift_ratio`
evaluates Gamma(z+k)/Gamma(z) exactly as a rising/falling factorial.  The
residual checks with integer shifts of the Gamma arguments route through it:
the separated difference equations and the Whittaker-vector equations.  One
check does not: the spherical-vector equations of `gz` shift the Gamma
arguments by half-integers, for which `gz.vector_shift_ratio` takes a
difference of two log-Gamma calls.
"""

from __future__ import annotations

import cmath

import numpy as np
from scipy.special import loggamma as _sc_loggamma

POLE_TOL = 1e-12

__all__ = ["PoleError", "log_gamma", "gamma", "gamma_shift_ratio"]


class PoleError(ValueError):
    """Argument of Gamma within POLE_TOL of a nonpositive integer."""


def _near_pole(z: complex) -> bool:
    z = complex(z)
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < POLE_TOL


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z).

    Raises PoleError when z is within 1e-12 of a nonpositive integer.
    """
    z = complex(z)
    if _near_pole(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return complex(_sc_loggamma(z))


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z)), with an overflow guard."""
    lg = log_gamma(z)
    if lg.real > 700.0:
        raise OverflowError(f"|Gamma({z})| exceeds double range")
    return cmath.exp(lg)


def gamma_shift_ratio(z, k: int) -> complex:
    """Gamma(z+k)/Gamma(z) as an exact factorial product.

    For k >= 0 this is z(z+1)...(z+k-1); for k < 0 it is
    1/((z-1)(z-2)...(z+k)).  Raises PoleError if a factor in the
    denominator vanishes (a Gamma pole is crossed).
    """
    z = complex(z)
    if k == 0:
        return 1.0 + 0.0j
    if k > 0:
        out = 1.0 + 0.0j
        for j in range(k):
            out *= z + j
        return out
    out = 1.0 + 0.0j
    for j in range(1, -k + 1):
        f = z - j
        if abs(f) < POLE_TOL:
            raise PoleError(f"gamma_shift_ratio pole: z={z}, k={k}")
        out *= f
    return 1.0 / out


def log_gamma_array(z):
    """Vectorized principal-branch log Gamma (no pole signalling)."""
    return _sc_loggamma(np.asarray(z, dtype=complex))
