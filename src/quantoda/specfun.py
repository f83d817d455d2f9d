"""Complex Gamma utilities, in numpy and the standard library alone.

`log_gamma` (one number) and `log_gamma_array` (elementwise) return log
Gamma(z), and `log_abs_gamma_array` its real part log |Gamma(z)| as float64,
from the same operations on Re z > 0.  `gamma_products` returns Gamma
values, not logs: per row of each block of arguments, the product of its
Gammas, as e^{sum S}/prod p from the same Stirling part S and shift product
p (below), for the kernels of `mellin_barnes`, which only exponentiate
them.  `gamma_shift_ratio` evaluates
Gamma(z+k)/Gamma(z) exactly as a rising/falling factorial.  The residual
checks with integer shifts of the Gamma arguments route through it: the
separated difference equations and the Whittaker-vector equations.  One
check does not: the spherical-vector equations of `gz` shift the Gamma
arguments by half-integers, for which `gz.vector_shift_ratio` takes
differences of `log_gamma_array` values, one call per shift for every moved
pair and every sampled array.

Algorithm.  For Re z >= 0, shift by 8: with w = z + 8 and
p = z (z+1) ... (z+7),

    log Gamma(z) = (w - 1/2)(log w - 1) + (log 2 pi - 1)/2
                   + sum_{k=1}^{7} B_{2k} / (2k (2k-1) w^{2k-1}) - log p
                 = S - log p.

|w| >= 8, so the first neglected Stirling term is below 8.4e-16.  p is the
product of the four pairs (z+k)(z+7-k) = q + k(7-k), q = z(z+7), k = 0..3.
Each pair has its argument in (-pi, pi), because each factor has Re >= 0,
so arg p is the plain sum of the four pair arguments: no branch correction.
The array form takes log |.| and arg from real `log`, `abs` and `arctan2`
(a complex `log` costs about 25 times more per element) and avoids in-place
complex products, whose rounding in numpy depends on the array length,
also where numpy would make one of a temporary: an element's value does
not depend on the array it arrives in.  Real z in the scalar form use
`math.lgamma`.

For Re z < 0, the reflection formula

    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z)
                   + 2 pi i sign(Im z) floor(Re z / 2 + 1/4)

with sin(pi z) taken after reducing Re z to [-1/4, 1/4] plus a multiple of
1/2, so pi never multiplies a large argument.  Above |Im z| = 20,
|sin(pi z)| = e^{pi |Im z|}/2 to within e^{-125}.

Error: against mpmath, |e^Delta - 1| <= 1e-13 on every argument family the
package uses (Re z = 1/4, 1/2, 1 up to |Im z| = 100, the `gz` and
`harish_chandra` arguments, Re z down to -40); the floor is the rounding of
a value of size |z| log |z|.  The 8-fold product stays finite for
|z| < 1e38.

Branch.  Both sides return the principal branch: continuous off the cut
(-inf, 0], real on the positive axis, log Gamma(conj z) = conj log Gamma(z),
and, on the cut, the limit from Im z = +0 (Im z = -0.0 takes the other
side).  No caller depends on the branch: each exponentiates the value or
takes its real part, so a 2 pi i difference would not show.
`mellin_barnes` takes the Whittaker kernels' Gamma values from
`gamma_products`, which has no branch, and exponentiates the spherical
kernel's sums of 2 log |Gamma(1/4 - i d/2)| from `log_abs_gamma_array`;
`harish_chandra.c_alpha_factor`, `m_elementary` and `b_denominator`
exponentiate; `gz._vector` exponentiates
its `log_gamma` sum and `gz.vector_shift_ratio` its sum of `log_gamma_array`
differences; `separation.sep_wavefunction` exponentiates and
`separation.sep_measure` takes real parts.

Poles: `log_gamma` raises PoleError within POLE_TOL of a nonpositive
integer; `log_gamma_array` and `log_abs_gamma_array` neither raise nor
warn, and their real part is +inf on an exact pole, 0 included
(`gz.vector_shift_ratio` applies the same POLE_TOL test to its arguments
before the call).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

POLE_TOL = 1e-12
# B_{2k} / (2k (2k - 1)), k = 7 down to 1 (Horner order)
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360,
            1 / 12)
_STIRLING_CONST = 0.5 * math.log(2.0 * math.pi) - 0.5
_INV_E = 1.0 / math.e
_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)
_SIN_ASYMPTOTIC = 20.0   # |Im z| above which |sin(pi z)| = e^{pi |Im z|}/2

__all__ = ["PoleError", "log_gamma", "log_gamma_array", "log_abs_gamma_array",
           "gamma_products", "gamma", "gamma_shift_ratio"]


class PoleError(ValueError):
    """Argument of Gamma within POLE_TOL of a nonpositive integer."""


def _near_pole(z: complex) -> bool:
    z = complex(z)
    if z.real > 0.5 or abs(z.imag) >= POLE_TOL:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < POLE_TOL


def _stirling_rest(w):
    """log Gamma(w) - (w - 1/2)(log w - 1) for |w| >= 8, number or array."""
    r = 1.0 / w
    r2 = r * r
    s = _STIRLING[0]
    for c in _STIRLING[1:]:
        s = s * r2 + c
    return s * r + _STIRLING_CONST


def _log_sin_pi(z: complex) -> complex:
    """Principal log sin(pi z), Re z reduced before the multiplication by pi."""
    x, y = z.real, z.imag
    n = round(2.0 * x)                 # x = n/2 + r, |r| <= 1/4, r exact
    r = math.pi * (x - 0.5 * n)
    s, c = math.sin(r), math.cos(r)
    for _ in range(n % 4):             # sin, cos of pi x: quarter turns
        s, c = c, -s
    if abs(y) < _SIN_ASYMPTOTIC:
        return cmath.log(complex(s * math.cosh(math.pi * y),
                                 c * math.sinh(math.pi * y)))
    return complex(math.pi * abs(y) - _LOG_2,
                   math.atan2(math.copysign(1.0, y) * c, s))


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) for one number, without pole signalling."""
    x, y = z.real, z.imag
    if y == 0.0:
        if x <= 0.0 and x == math.floor(x):
            return complex(math.inf, 0.0)
        # Gamma(x) < 0 on (-2k-1, -2k): the limit from Im z = +0 has
        # argument -pi per pole passed
        im = 0.0 if x > 0.0 else -math.copysign(math.pi, y) * math.ceil(-x)
        return complex(math.lgamma(x), im)
    if x < 0.0:
        return (complex(_LOG_PI, math.copysign(2.0 * math.pi, y)
                        * math.floor(0.5 * x + 0.25))
                - _log_sin_pi(z) - _log_gamma(1.0 - z))
    w = z + 8.0
    q = z * (z + 7.0)
    log_p = (cmath.log(q) + cmath.log(q + 6.0) + cmath.log(q + 10.0)
             + cmath.log(q + 12.0))
    return (w - 0.5) * (cmath.log(w) - 1.0) + _stirling_rest(w) - log_p


def _shift_by_8(z: np.ndarray):
    """For an array with Re z > 0 (see the module docstring): w = z + 8,
    log |w| - 1, arg w, the Stirling rest at w and the four pair products
    (z+k)(z+7-k), k = 0..3, whose product is p."""
    w = z + 8.0
    # named, so that numpy does not elide the temporary: above 256 KiB it
    # would compute (z + 7) * z in place, which rounds otherwise
    z7 = z + 7.0
    q = z * z7
    return (w, np.log(np.abs(w) * _INV_E), np.arctan2(w.imag, w.real),
            _stirling_rest(w), (q, q + 6.0, q + 10.0, q + 12.0))


def _log_gamma_right(z: np.ndarray, real: bool = False) -> np.ndarray:
    """log Gamma on an array with Re z > 0 (see the module docstring), or,
    when `real`, its real part alone: the same operations, stopped before
    the four arctan2 of arg p and the imaginary part's sum."""
    w, log_w1, theta, rest, pairs = _shift_by_8(z)
    log_p = np.log(np.abs(pairs[0] * pairs[1] * pairs[2] * pairs[3]))
    h = w.real - 0.5
    out = np.empty(z.shape, float if real else complex)   # a float's .real is itself
    # the two large products last, each rounded once into the sum
    np.subtract(h * log_w1 + (rest.real - log_p), w.imag * theta, out=out.real)
    if real:
        return out
    arg_p = np.arctan2(pairs[0].imag, pairs[0].real)
    for f in pairs[1:]:
        arg_p = arg_p + np.arctan2(f.imag, f.real)
    np.add(w.imag * log_w1, h * theta + (rest.imag - arg_p), out=out.imag)
    return out


def gamma_products(z, shapes):
    """prod_k Gamma(z_b[i, k]) for every row i of each block z_b, Re z > 0,
    as one complex array per block: the kernels' Gamma values.  The 1-D
    array z holds the blocks one after another, block b of shape shapes[b]
    = (rows, factors) in row order.

    All the arguments take one pass: per argument the Stirling part S =
    (w - 1/2)(log w - 1) + the Stirling rest, w = z + 8, and the shift
    product p, so Gamma(z) = e^S / p (see the module docstring).  A row is
    e^{sum_k S} / prod_k p: one exponential per row and no arg p or log |p|,
    which only feed an exponential.  The same operations as
    `log_gamma_array` up to S, and no in-place complex product, so a value
    does not depend on the block or array it arrives in.  Accuracy, on the
    kernels' arguments (Re z = 1/2 and 1, |Im z| <= 100, 1 to 3 factors):
    within 1e-13 relative while a row's imaginary parts sum to at most 100,
    then in proportion to that sum, the floor being the rounding of the
    row's phase sum_k Im S, as for exp(sum log_gamma_array).  No pole or
    Re z <= 0 path: the kernels' arguments have Re z >= 1/2.
    """
    w, log_w1, theta, rest, pairs = _shift_by_8(z)
    h = w.real - 0.5
    s = np.empty(z.shape, complex)
    np.subtract(h * log_w1 + rest.real, w.imag * theta, out=s.real)
    np.add(w.imag * log_w1, h * theta + rest.imag, out=s.imag)
    p = pairs[0] * pairs[1] * pairs[2] * pairs[3]
    out, start = [], 0
    for shape in shapes:
        rows = slice(start, start + shape[0] * shape[1])
        start = rows.stop
        s_b, p_b = s[rows].reshape(shape), p[rows].reshape(shape)
        total, prod = s_b[:, 0], p_b[:, 0]
        for k in range(1, shape[1]):       # column by column: a ufunc's
            total, prod = total + s_b[:, k], prod * p_b[:, k]   # reduce is slower
        out.append(np.exp(total) / prod)
    return out


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z) for one number.

    Raises PoleError when z is within 1e-12 of a nonpositive integer.
    """
    z = complex(z)
    if _near_pole(z):
        raise PoleError(f"log_gamma pole at z={z}")
    return _log_gamma(z)


def log_gamma_array(z):
    """Principal-branch log Gamma, elementwise (no pole signalling).

    Elements with Re z <= 0 go through `log_gamma`'s scalar path, the
    reflection formula below Re z = 0 and the pole at z = 0, one at a time;
    no caller in the package passes any.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real <= 0.0
    if not np.logical_or.reduce(left, axis=None):
        return _log_gamma_right(z)
    out = np.empty_like(z)
    out[~left] = _log_gamma_right(z[~left])
    out[left] = [_log_gamma(v) for v in z[left].tolist()]
    return out


def log_abs_gamma_array(z):
    """Re log Gamma(z) = log |Gamma(z)|, elementwise, as float64: the real
    part of `log_gamma_array(z)` bit for bit.  On Re z > 0 it skips the
    imaginary part's arctan2s; an array with any Re z <= 0 takes
    `log_gamma_array` whole."""
    z = np.asarray(z, dtype=complex)
    if np.logical_or.reduce(z.real <= 0.0, axis=None):
        return log_gamma_array(z).real
    return _log_gamma_right(z, real=True)


def gamma(z) -> complex:
    """Gamma(z) = exp(log_gamma(z)), with an overflow guard."""
    lg = log_gamma(z)
    if lg.real > 700.0:
        raise OverflowError(f"|Gamma({z})| exceeds double range")
    return cmath.exp(lg)


def gamma_shift_ratio(z, k: int):
    """Gamma(z+k)/Gamma(z) as an exact factorial product, elementwise for a
    numpy array z.

    For k >= 0 this is z(z+1)...(z+k-1); for k < 0 it is
    1/((z-1)(z-2)...(z+k)).  Raises PoleError if a factor in the
    denominator vanishes (a Gamma pole is crossed).
    """
    z = z + 0j                      # complex, elementwise for an array
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
        small = abs(f) < POLE_TOL       # a bool, or an array of them
        if small is True or (small is not False and small.any()):
            raise PoleError(f"gamma_shift_ratio pole: z={z}, k={k}")
        out *= f
    return 1.0 / out
