"""Iterated contour-integral evaluation of Whittaker and spherical functions.

The wave function is a multiple Fourier-type integral over a triangular
array of spectral variables: the kernel is a product over adjacent levels of
Gamma factors divided by within-level Gamma factors, times the exponential
carrying the coordinates.  Levels n = 1..N-1 are integrated, the top level
carries the spectral parameters.

Whittaker contours run parallel to the real axis with level offsets
h_n decreasing in n (level n strictly above level n+1), which keeps every
numerator Gamma argument at positive real part.  Spherical contours are
real; the kernel there pairs Gamma(d/(2i)+1/4) with its reflection, and
within-level coincidences annihilate the integrand through the denominator.

Quadrature is a truncated uniform grid per dimension (spectrally accurate
for these analytic, exponentially decaying integrands).  N <= 3.  One node
sum, `_node_sums`, serves the point values, sweeps, grids and the spherical
kernel; at N = 3 it contracts 1-D and 2-D pieces as matrix products and
never materializes a 3-D array.  `whittaker_recursive` orders the sum
differently, as an independent cross-check, and at N = 3 it does build an
M x M x M array (about 0.7 GB at tol 1e-8).

Normalization: 1/(2 pi) per integration variable, which makes N = 1 return
exactly e^{i alpha x}; all cross-checks against oracles are ratio-based.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .gz import TriangularArray
from .separation import sep_wavefunction
from .specfun import log_gamma, log_gamma_array

TWO_PI = 2.0 * math.pi
LEVEL_OFFSET_STEP = 0.5   # h_n = (N - n) * step
POLE_STRIP = 0.25         # distance heuristic for the node-spacing estimate
MIN_NODES = 64
COINCIDENT_TOL = 1e-6


class DimensionError(ValueError):
    """Requested lattice size outside the supported range."""


class ContourError(ValueError):
    """Contour violates the level-ordering condition or hits a pole."""


@dataclass(frozen=True)
class ContourSpec:
    """Per-level imaginary offsets h_n (level n integrates over t + i h_n)."""

    offsets: tuple
    half_width: float
    nodes_per_dim: int

    def __init__(self, offsets: Sequence[float], half_width: float,
                 nodes_per_dim: int):
        offs = tuple(float(h) for h in offsets)
        for n in range(len(offs) - 1):
            if offs[n] <= offs[n + 1]:
                raise ContourError(
                    f"offsets must strictly decrease: h_{n+1}={offs[n]} "
                    f"<= h_{n+2}={offs[n+1]}")
        if offs and offs[-1] != 0.0:
            raise ContourError("top-level offset must be 0")
        if half_width <= 0 or nodes_per_dim < 2:
            raise ContourError("invalid quadrature extents")
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "half_width", float(half_width))
        object.__setattr__(self, "nodes_per_dim", int(nodes_per_dim))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float


def default_contour(N: int, alpha: Sequence[float], tol: float) -> ContourSpec:
    """Offsets h_n = (N-n)/2; truncation and node count from decay estimates.

    Truncation: the kernel decays like e^{-pi |t|} in each variable, so T
    is set from e^{-pi T} < tol/10 plus a margin covering the spread of the
    spectral parameters.  Node spacing: the trapezoid error for a strip of
    analyticity of width d behaves like e^{-2 pi d / dt}.
    """
    amax = max((abs(float(a)) for a in alpha), default=1.0)
    budget = math.log(10.0 / tol)
    T = budget / math.pi + 2.0 + 2.0 * amax
    dt = TWO_PI * POLE_STRIP / budget
    nodes = max(MIN_NODES, int(math.ceil(2.0 * T / dt)))
    offsets = tuple((N - n) * LEVEL_OFFSET_STEP for n in range(1, N + 1))
    return ContourSpec(offsets, T, nodes)


# ---------------------------------------------------------------------------
# Scalar integrand (reference path, any N)
# ---------------------------------------------------------------------------


def mb_integrand(arr: TriangularArray, x: Sequence[float], which: str) -> complex:
    """Kernel times coordinate exponential at one point of the array.

    which = 'whittaker': numerator Gamma((lam_{nk}-lam_{n+1,m})/i) over
    adjacent levels; 'spherical': the paired Gamma(d/(2i)+1/4) factors.
    Both share the within-level denominator Gamma((lam_{ns}-lam_{np})/i).
    """
    if which not in ("whittaker", "spherical"):
        raise ValueError(f"unknown kernel {which!r}")
    N = arr.N
    if len(x) != N:
        raise ValueError("x must have one entry per level")
    total = 0.0 + 0.0j
    for n in range(1, N):
        for k in range(1, n + 1):
            for m in range(1, n + 2):
                d = complex(arr.get(n, k) - arr.get(n + 1, m))
                if which == "whittaker":
                    total += log_gamma(-1j * d)
                else:
                    total += log_gamma(d / 2j + 0.25) + log_gamma(-d / 2j + 0.25)
        for s in range(1, n + 1):
            for p in range(1, n + 1):
                if s != p:
                    total -= log_gamma(-1j * complex(arr.get(n, s) - arr.get(n, p)))
    for n in range(1, N + 1):
        rown = arr.level(n)
        prev = arr.level(n - 1) if n > 1 else ()
        total += 1j * x[n - 1] * (sum(rown) - sum(prev))
    return cmath.exp(total)


# ---------------------------------------------------------------------------
# Vectorized kernel pieces
# ---------------------------------------------------------------------------


def _adjacent_log(av, bv, which: str):
    """log of the adjacent-level factor linking one variable to another."""
    d = np.subtract.outer(av, bv)
    if which == "whittaker":
        return log_gamma_array(-1j * d)
    return log_gamma_array(d / 2j + 0.25) + log_gamma_array(-d / 2j + 0.25)


def _inv_denominator(sv):
    """exp(-logGamma(-i(s1-s2)) - logGamma(-i(s2-s1))); zero on the diagonal."""
    d = np.subtract.outer(sv, sv)
    with np.errstate(all="ignore"):
        lg = log_gamma_array(-1j * d) + log_gamma_array(1j * d)
        out = np.exp(-lg)
    np.fill_diagonal(out, 0.0)
    return out


def _node_sums(top, which: str, offsets, half_width: float, M: int,
               us: np.ndarray, vs: np.ndarray | None = None):
    """Trapezoid node sums of the kernel, without the carrier e^{i sigma1 x_N}.

    N = 2 when `vs` is None: arrays of shape (len(us),) over u = x1 - x2.
    N = 3 otherwise: arrays of shape (len(us), len(vs)) over u = x1 - x2 and
    v = x2 - x3, contracted as matrix products once per v.  Returns the sums
    on the full grid of M nodes and on its stride-2 subgrid (full, halved).
    """
    t = np.linspace(-half_width, half_width, M)
    dt = t[1] - t[0]
    a = t + 1j * offsets[0]          # level-1 variable
    if vs is None:
        kern = np.exp(sum(_adjacent_log(a, p, which).reshape(-1) for p in top))
    else:
        b = t + 1j * offsets[1]      # level-2 variables (both run over the same nodes)
        A = np.exp(_adjacent_log(a, b, which))
        wtop = np.exp(sum(_adjacent_log(b, p, which).reshape(-1) for p in top))
        D = _inv_denominator(b)
    sums = []
    for sl, fac in ((slice(None), 1.0), (slice(0, M, 2), 2.0)):
        # phases are built from the sliced nodes: a strided view of one
        # shared phase array changes the rounding of the halved N=3 sums
        phase_a = np.exp(np.multiply.outer(us, 1j * a[sl]))    # (nu, na)
        if vs is None:
            sums.append((phase_a @ kern[sl]) * (dt * fac) / TWO_PI)
            continue
        Asl, Dsl, wsl = A[sl][:, sl], D[sl][:, sl], wtop[sl]
        phase_b = np.exp(np.multiply.outer(1j * b[sl], vs))    # (nb, nv)
        vals = np.empty((len(us), len(vs)), dtype=complex)
        for iv in range(len(vs)):
            B = Asl * (wsl * phase_b[:, iv])[None, :]
            vals[:, iv] = phase_a @ np.einsum("ab,ab->a", B @ Dsl, B)
        sums.append(vals * (dt * fac) ** 3 / TWO_PI ** 3)
    return sums[0], sums[1]


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------


def _check_n(N: int):
    if not 1 <= N <= 3:
        raise DimensionError(f"N={N} unsupported (1 <= N <= 3)")


def _contour(N: int, params: Sequence[float], tol: float,
             contour: ContourSpec | None) -> ContourSpec:
    """The given contour, which must have N levels, or the default one."""
    contour = contour or default_contour(N, params, tol)
    if len(contour.offsets) != N:
        raise ContourError(
            f"contour has {len(contour.offsets)} levels, N={N} needs {N}")
    return contour


def _evaluate(which: str, N: int, params: Sequence[float],
              points: Sequence[Sequence[float]], tol: float,
              contour: ContourSpec | None = None) -> List[QuadratureResult]:
    """Values at a list of points x, all from one kernel build.

    The error estimate is |v - v_half|, where v_half is the stride-2 sum
    with the same carrier.  Spherical contours are real: offsets 0.
    """
    _check_n(N)
    params = [float(p) for p in params]
    if len(params) != N or any(len(x) != N for x in points):
        raise ValueError("parameters and x must have length N")
    if which == "spherical":
        for i in range(N):
            for j in range(i + 1, N):
                if abs(params[i] - params[j]) < COINCIDENT_TOL:
                    raise ContourError("coincident top-level spectral parameters")
    contour = _contour(N, params, tol, contour)
    if N == 1:
        return [QuadratureResult(cmath.exp(1j * params[0] * x[0]), 0.0)
                for x in points]
    offsets = contour.offsets if which == "whittaker" else (0.0, 0.0)
    xs = np.array(points, dtype=float).reshape(-1, N)
    uu, pick = np.unique(xs[:, 0] - xs[:, 1], return_inverse=True)
    vv = None
    if N == 3:
        vv, vinv = np.unique(xs[:, 1] - xs[:, 2], return_inverse=True)
        pick = (pick, vinv)
    full, half = _node_sums(params, which, offsets, contour.half_width,
                            contour.nodes_per_dim, uu, vv)
    sigma1 = float(sum(params))
    out = []
    for x, f, h in zip(points, full[pick], half[pick]):
        carrier = cmath.exp(1j * sigma1 * x[-1])
        v, vh = complex(f) * carrier, complex(h) * carrier
        out.append(QuadratureResult(v, abs(v - vh)))
    return out


def whittaker_eval(N: int, alpha: Sequence[float], x: Sequence[float],
                   tol: float = 1e-6, contour: ContourSpec | None = None) -> QuadratureResult:
    """Direct tensor-quadrature evaluation of the wave function at one x."""
    return _evaluate("whittaker", N, alpha, [x], tol, contour)[0]


def whittaker_on_grid(N: int, alpha: Sequence[float], axes: Sequence[np.ndarray],
                      tol: float = 1e-6, contour: ContourSpec | None = None) -> np.ndarray:
    """Wave function on a full tensor grid of coordinates.

    Exploits that the integrand depends on x only through the successive
    differences, so the quadrature is contracted once per distinct
    difference value rather than once per grid point.
    """
    _check_n(N)
    sigma1 = float(sum(alpha))
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    contour = _contour(N, alpha, tol, contour)
    if N == 1:
        return np.exp(1j * alpha[0] * axes[0])
    diffs, picks = [], []
    for k in range(N - 1):
        d = np.subtract.outer(axes[k], axes[k + 1])
        uniq, inv = np.unique(np.round(d.reshape(-1), 12), return_inverse=True)
        diffs.append(uniq)
        picks.append(inv.reshape(d.shape))
    F, _ = _node_sums(alpha, "whittaker", contour.offsets, contour.half_width,
                      contour.nodes_per_dim, *diffs)
    vals = F[picks[0]] if N == 2 else F[picks[0][:, :, None], picks[1][None, :, :]]
    return vals * np.exp(1j * sigma1 * axes[-1])


# ---------------------------------------------------------------------------
# Recursive evaluation (separation-kernel route)
# ---------------------------------------------------------------------------


def whittaker_recursive(N: int, alpha: Sequence[float], x: Sequence[float],
                        tol: float = 1e-6) -> QuadratureResult:
    """Level-by-level route: outer integral over the separated variables of
    the separation kernel and measure times the cached rank-(N-1) function.

    The total-momentum delta factor collapses the momentum integral, so the
    x_N dependence enters through e^{i(sigma1 - sum lam) x_N}.
    """
    _check_n(N)
    if N == 1:
        return whittaker_eval(N, alpha, x, tol)
    sigma1 = float(sum(alpha))
    contour = default_contour(N, alpha, tol)
    h = contour.offsets[0]
    t = np.linspace(-contour.half_width, contour.half_width, contour.nodes_per_dim)
    dt = t[1] - t[0]
    lam = t + 1j * h

    if N == 2:
        # inner function is the plane wave e^{i lam x1}
        inner = np.exp(1j * lam * x[0])
        kern = np.array([sep_wavefunction(alpha, [l]) for l in lam])
        mu = np.ones_like(lam)
    else:
        # inner rank-2 function cached on all (l1, l2) level-2 node pairs,
        # evaluated vectorized over its own contour, one offset step above
        # the separated variables so the Gamma arguments stay off the poles
        l1 = lam[:, None]
        l2 = lam[None, :]
        hin = h + LEVEL_OFFSET_STEP
        tin = np.linspace(-contour.half_width, contour.half_width,
                          contour.nodes_per_dim)
        mu_in = tin + 1j * hin
        lg = (log_gamma_array(-1j * (mu_in[:, None, None] - l1[None, :, :]))
              + log_gamma_array(-1j * (mu_in[:, None, None] - l2[None, :, :]))
              + 1j * (mu_in[:, None, None] * (x[0] - x[1])))
        dt_in = tin[1] - tin[0]
        inner = (np.exp(lg).sum(axis=0) * dt_in / TWO_PI
                 * np.exp(1j * (l1 + l2) * x[1]))
        kern = np.exp(
            log_gamma_array(-1j * np.subtract.outer(lam, np.asarray(alpha, float)))
            .sum(axis=1))
        kern = kern[:, None] * kern[None, :]
        with np.errstate(all="ignore"):
            mu = np.exp(-(log_gamma_array(-1j * (l1 - l2))
                          + log_gamma_array(-1j * (l2 - l1))))
        np.fill_diagonal(mu, 0.0)

    if N == 2:
        integ = kern * mu * inner * np.exp(1j * (sigma1 - lam) * x[1])
        full = integ.sum() * dt / TWO_PI
        halved = integ[::2].sum() * 2 * dt / TWO_PI
    else:
        lam_sum = lam[:, None] + lam[None, :]
        integ = kern * mu * inner * np.exp(1j * (sigma1 - lam_sum) * x[2])
        full = integ.sum() * dt ** 2 / TWO_PI ** 2
        halved = integ[::2, ::2].sum() * (2 * dt) ** 2 / TWO_PI ** 2
    return QuadratureResult(complex(full), abs(full - halved))


# ---------------------------------------------------------------------------
# Spherical functions
# ---------------------------------------------------------------------------


def spherical_eval(N: int, lam_top: Sequence[float], x: Sequence[float],
                   tol: float = 1e-6) -> QuadratureResult:
    """Spherical-kernel integral over real contours."""
    return _evaluate("spherical", N, lam_top, [x], tol)[0]


# ---------------------------------------------------------------------------
# Grid scan
# ---------------------------------------------------------------------------


def grid_scan(which: str, N: int, params: Sequence[float], axis: int,
              start: float, stop: float, steps: int,
              x_base: Sequence[float] | None = None,
              tol: float = 1e-6) -> List[dict]:
    """Sweep one coordinate; rows carry value, modulus and error estimate.

    One kernel build serves the whole sweep.
    """
    if not 0 <= axis < N:
        raise ValueError("axis out of range")
    if which not in ("whittaker", "spherical"):
        raise ValueError(f"unknown function {which!r}")
    x0 = list(x_base) if x_base is not None else [0.0] * N
    if len(x0) != N:
        raise ValueError("x_base must have length N")
    points = []
    for xv in np.linspace(start, stop, steps):
        x = list(x0)
        x[axis] = float(xv)
        points.append(x)
    rows = []
    for x, res in zip(points, _evaluate(which, N, params, points, tol)):
        row = {f"x{k+1}": x[k] for k in range(N)}
        row.update(re=res.value.real, im=res.value.imag,
                   abs=abs(res.value), error_estimate=res.error_estimate)
        rows.append(row)
    return rows
