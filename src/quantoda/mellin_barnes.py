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
kernel.  On a level's contour a within-level difference d is real, so the
denominator 1/(Gamma(-i d) Gamma(i d)) = d sinh(pi d)/pi (0 at d = 0) has
rank 4 as a matrix over the nodes: at N = 3 both routes run in O(M^2)
memory and build no 3-D array.  `whittaker_recursive` orders the sum
differently (separated variables outside, its inner rank-2 function one
matrix product), as an independent cross-check.

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


def value_row(res: QuadratureResult, x: Sequence[float]) -> dict:
    """Output row {x1.., re, im, abs, error_estimate} for the value at x."""
    row = {f"x{k+1}": float(v) for k, v in enumerate(x)}
    row.update(re=res.value.real, im=res.value.imag, abs=abs(res.value),
               error_estimate=res.error_estimate)
    return row


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


def _within_level(d):
    """1/(Gamma(-i d) Gamma(i d)) = d sinh(pi d)/pi for real d; 0 at d = 0."""
    with np.errstate(over="ignore"):
        return d * np.sinh(np.pi * d) / np.pi


def _node_sums(top, which: str, offsets, half_width: float, M: int,
               us: np.ndarray, vs: np.ndarray | None = None):
    """Trapezoid node sums of the kernel, without the carrier e^{i sigma1 x_N}.

    N = 2 when `vs` is None: arrays of shape (len(us),) over u = x1 - x2.
    N = 3 otherwise: arrays of shape (len(us), len(vs)) over u = x1 - x2 and
    v = x2 - x3.  Returns the sums on the full grid of M nodes and on its
    stride-2 subgrid (full, halved).

    At N = 3 the level-2 pair (b, c) carries D[b,c] = `_within_level`(t_b -
    t_c), as both level-2 variables lie on one line.  Expanding the sinh,
    sum_{b,c} B_b B_c D[b,c] = [(B.tE+)(B.E-) - (B.E+)(B.tE-)] / pi with
    E+- = e^{+-pi t}, so all v share one (M x M) @ (M x 4 len(vs)) product.
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
        ep, em = np.exp(np.pi * t), np.exp(-np.pi * t)
        rank4 = np.stack([t * ep, em, ep, t * em], axis=1)     # (nb, 4)
    sums = []
    for sl, fac in ((slice(None), 1.0), (slice(0, M, 2), 2.0)):
        # phases are built from the sliced nodes: a strided view of one
        # shared phase array changes the rounding of the halved N=3 sums
        phase_a = np.exp(np.multiply.outer(us, 1j * a[sl]))    # (nu, na)
        if vs is None:
            sums.append((phase_a @ kern[sl]) * (dt * fac) / TWO_PI)
            continue
        phase_b = np.exp(np.multiply.outer(1j * b[sl], vs))    # (nb, nv)
        w = wtop[sl, None] * phase_b                             # (nb, nv)
        weights = (rank4[sl, :, None] * w[:, None, :]).reshape(len(w), -1)
        P = (A[sl][:, sl] @ weights).reshape(len(w), 4, len(vs))  # (na, 4, nv)
        pairs = (P[:, 0] * P[:, 1] - P[:, 2] * P[:, 3]) / np.pi  # (na, nv)
        sums.append((phase_a @ pairs) * (dt * fac) ** 3 / TWO_PI ** 3)
    return sums[0], sums[1]


# ---------------------------------------------------------------------------
# Direct evaluation
# ---------------------------------------------------------------------------


def _validate(N: int, params: Sequence[float], points, tol: float) -> List[float]:
    """The parameters as floats, after checking N, lengths, finiteness and tol.

    A point holds one entry per coordinate x_1..x_N: a number or a grid axis.
    """
    if not 1 <= N <= 3:
        raise DimensionError(f"N={N} unsupported (1 <= N <= 3)")
    params = [float(p) for p in params]
    if len(params) != N or any(len(x) != N for x in points):
        raise ValueError("parameters and x must have length N")
    if not (all(map(math.isfinite, params))
            and all(np.isfinite(np.asarray(c, dtype=float)).all()
                    for c in zip(*points))):
        raise ValueError("parameters and x must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return params


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
    params = _validate(N, params, points, tol)
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
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    alpha = _validate(N, alpha, [axes], tol)
    sigma1 = float(sum(alpha))
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
    alpha = _validate(N, alpha, [x], tol)
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
        integ = kern * mu * inner * np.exp(1j * (sigma1 - lam) * x[1])
        full = integ.sum() * dt / TWO_PI
        halved = integ[::2].sum() * 2 * dt / TWO_PI
    else:
        # inner rank-2 function on all (l1, l2) level-2 node pairs, one GEMM
        # G^T diag(e^{i mu u}) G over its own contour, one offset step above
        # the separated variables so the Gamma arguments stay off the poles
        mu_in = t + 1j * (h + LEVEL_OFFSET_STEP)
        G = np.exp(_adjacent_log(mu_in, lam, "whittaker"))   # Gamma(-i(mu - l))
        lam_sum = np.add.outer(lam, lam)
        inner = (((G.T * np.exp(1j * mu_in * (x[0] - x[1]))) @ G) * dt / TWO_PI
                 * np.exp(1j * lam_sum * x[1]))
        kern = np.exp(_adjacent_log(lam, alpha, "whittaker").sum(axis=1))
        kern = kern[:, None] * kern[None, :]
        mu = _within_level(np.subtract.outer(t, t))
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
    return [value_row(res, x)
            for x, res in zip(points, _evaluate(which, N, params, points, tol))]
