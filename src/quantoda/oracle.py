"""Coordinate-space verification of the wave functions.

Independent of the contour-integral machinery: a finite-difference open
Toda Hamiltonian H = -Laplacian + sum_k e^{x_{k+1}-x_k}, the eigenvalue
predicted by the spectral parameters, and for N = 2 a direct ODE
integration of the center-of-mass-reduced eigenproblem.  For N <= 3 the
Givental integral gives pointwise values with no Mellin-Barnes kernel.

Convention bridge, fixed once by N = 2 calibration and frozen: the
contour-integral wave function psi satisfies

    (-1/2 Laplacian + sum_k e^{x_k - x_{k+1}}) psi = (1/2 sum alpha^2) psi

(reversed potential, half Laplacian).  The substitution
Psi(x) = psi(y), y_k = -x_k + k ln 2, reverses the potential and halves
its coefficient, so Psi is an eigenfunction of H above with eigenvalue
sum alpha^2 = 2 * eigenvalue_from_alpha(alpha).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .mellin_barnes import EXP_LIMIT, whittaker_on_grids
from .report import VerificationReport, residual_report

BOUNDARY_MARGIN = 2  # nodes invalidated per face by the stencil
QUAD_TOL = 1e-8      # quadrature tol of the wave function an oracle checks
ODE_RTOL = 1e-10     # relative tol of the N = 2 ODE integration
K_SERIES_TERMS = 16  # terms of the asymptotic series that starts the ODE


@dataclass(frozen=True)
class GridFunction:
    """Complex values over a uniform tensor grid."""

    axes: tuple
    values: np.ndarray

    def __init__(self, axes: Sequence[np.ndarray], values: np.ndarray):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        values = np.asarray(values, dtype=complex)
        if values.shape != tuple(len(a) for a in axes):
            raise ValueError("axes and value array shapes disagree")
        for a in axes:
            if len(a) < 2:
                raise ValueError("each axis needs at least two nodes")
            steps = np.diff(a)    # uniform as np.allclose(steps, steps[0]) reads it
            if not np.max(np.abs(steps - steps[0])) <= 1e-12 + 1e-10 * abs(steps[0]):
                raise ValueError("axes must be uniform")   # NaN included
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)

    @property
    def spacings(self) -> List[float]:
        return [float(a[1] - a[0]) for a in self.axes]

    def interior(self) -> tuple:
        """Slices excluding the boundary margin."""
        return tuple(slice(BOUNDARY_MARGIN, len(a) - BOUNDARY_MARGIN)
                     for a in self.axes)


def toda_apply(psi: GridFunction, N: int) -> GridFunction:
    """H psi with H = -Laplacian + sum_k e^{x_{k+1}-x_k}; margins set to NaN.

    The stencil runs on the interior slices (`GridFunction.interior`) and
    their neighbours one node over along each axis."""
    if len(psi.axes) != N:
        raise ValueError("grid dimension does not match N")
    v = psi.values
    inner = psi.interior()

    def shifted(k: int, s: int) -> np.ndarray:
        """The interior moved s nodes along axis k (empty with it: a
        negative stop would count from the end)."""
        sl = list(inner)
        sl[k] = slice(inner[k].start + s, max(inner[k].stop + s, 0))
        return v[tuple(sl)]

    c = v[inner]
    out = np.zeros_like(c)
    tmp = np.empty_like(c)      # in place, in the order of (s+ - 2c + s-)/h^2: same bits
    for k, h in enumerate(psi.spacings):
        np.subtract(shifted(k, 1), np.multiply(2.0, c, out=tmp), out=tmp)
        out -= np.divide(np.add(tmp, shifted(k, -1), out=tmp), h ** 2, out=tmp)
    axes = [a[sl] for a, sl in zip(psi.axes, inner)]
    pot = np.zeros(c.shape, dtype=float)
    for k in range(N - 1):
        xk = axes[k].reshape([-1 if i == k else 1 for i in range(N)])
        xk1 = axes[k + 1].reshape([-1 if i == k + 1 else 1 for i in range(N)])
        pot += np.exp(xk1 - xk)
    out += np.multiply(pot, c, out=tmp)
    full = np.full(v.shape, np.nan, dtype=complex)
    full[inner] = out
    return GridFunction(psi.axes, full)


def eigenvalue_from_alpha(alpha: Sequence[float]) -> float:
    """E = sigma_1^2/2 - sigma_2 = (1/2) sum alpha_k^2."""
    s1 = sum(alpha)
    s2 = sum(alpha[i] * alpha[j]
             for i in range(len(alpha)) for j in range(i + 1, len(alpha)))
    return 0.5 * s1 * s1 - s2


@dataclass(frozen=True)
class GridSpec:
    """Cube grid: points per axis, spacing, center point."""

    points: int
    spacing: float
    center: tuple = ()

    def axes(self, N: int) -> List[np.ndarray]:
        c = self.center or (0.0,) * N
        offs = (np.arange(self.points) - (self.points - 1) / 2.0) * self.spacing
        return [c[k] + offs for k in range(N)]


LN2 = math.log(2.0)


def max_grid_span(N: int) -> float:
    """Largest span D = max |x_k - x_{k+1}| of a grid `check_eigen` accepts.

    `toda_apply`'s potential e^{x_{k+1} - x_k} reaches e^D.  The node sums
    carry |e^{i sum_n u_n sum_j lambda_{nj}}| = e^{-sum_n n h_n u_n} (level
    n: n variables at height h_n = (N - n)/2), and the contour-integral
    differences u_n = -(x_n - x_{n+1}) - ln 2 reach -(D + ln 2), so they
    reach e^{S (D + ln 2)} with S = sum_n n h_n = N (N^2 - 1)/12.  Both stay
    below e^EXP_LIMIT for D <= min(EXP_LIMIT, EXP_LIMIT/S - ln 2): 700 at
    N = 2 and 349.3 at N = 3.  Unbounded, numpy overflowed first at
    D = 709.78 at N = 2 (the potential) and D = 359-367 at N = 3 (the last
    node-sum contraction) for alpha in [-5, 5].  N = 1 has no bound.
    """
    S = N * (N * N - 1) / 12.0
    return min(EXP_LIMIT, EXP_LIMIT / S - LN2) if S else math.inf


def check_eigen(N: int, alpha: Sequence[float], grid: GridSpec,
                tol: float = 1e-3, refine: bool = False) -> VerificationReport:
    """Relative residual ||H psi - E psi|| / ||psi|| over interior nodes.

    E is twice eigenvalue_from_alpha: the Hamiltonian here carries the full
    Laplacian while the spectral normalization of eigenvalue_from_alpha
    corresponds to the half-Laplacian form (see the module docstring).
    With refine=True the spacing is halved at fixed extent and the
    second-order stencil ratio (about 4) is reported in the witness; both
    grids are evaluated by one `whittaker_on_grids` call, the given grid
    first.  A grid (the halved one too, with refine) that spans more than
    `max_grid_span`(N) raises ValueError before anything is evaluated.
    """
    fine = GridSpec(2 * grid.points, grid.spacing / 2.0, grid.center)
    grids = [g.axes(N) for g in ((grid, fine) if refine else (grid,))]
    span = max((max(b.max() - a.min(), a.max() - b.min())
                for a, b in zip(grids[-1], grids[-1][1:])), default=0.0)
    if span > max_grid_span(N):
        raise ValueError(f"grid spans {span:.6g} in x_k - x_(k+1); above "
                         f"{max_grid_span(N):.6g} the N={N} evaluation overflows")
    # the wave function transplanted to the Hamiltonian's convention
    psis = whittaker_on_grids(
        N, alpha, [[-a + (k + 1) * LN2 for k, a in enumerate(axes)]
                   for axes in grids], QUAD_TOL)
    energy = 2.0 * eigenvalue_from_alpha(alpha)
    residuals = []
    for axes, psi in zip(grids, psis):
        gf = GridFunction(axes, psi)
        sl = gf.interior()
        resid = toda_apply(gf, N).values[sl] - energy * psi[sl]
        residuals.append(float(np.linalg.norm(resid) / np.linalg.norm(psi[sl])))
    rep = residual_report("eigen", N, "toda-eigenvalue", residuals[0], tol)
    if refine:
        ratio = residuals[0] / residuals[1]
        rep.witness = f"refinement ratio {ratio:.3f}"
        if not (3.5 <= ratio <= 4.5):
            rep.status = "FAIL"
    return rep


# ---------------------------------------------------------------------------
# N = 2 ODE oracle
# ---------------------------------------------------------------------------


def _k_series(mu2: float, z: float):
    """Asymptotic series S, S' of the exponentially decaying solution:
    phi ~ sqrt(pi/(2z)) e^{-z} S(z), S = sum_k a_k z^{-k}."""
    s = 1.0
    sp = 0.0
    a = 1.0
    for k in range(1, K_SERIES_TERMS):
        a *= (4.0 * mu2 - (2 * k - 1) ** 2) / (8.0 * k)
        s += a / z ** k
        sp -= k * a / z ** (k + 1)
    return s, sp


def bessel_oracle_n2(alpha: Sequence[float], r_grid: Sequence[float]) -> GridFunction:
    """Solution of -phi'' + e^r phi = E phi, E = ((a1-a2)/2)^2, decaying as
    r -> +infinity, on the given r grid (r is the coordinate difference of
    the two sites in the direction of growing potential).

    Integrates inward from a start point deep in the decay region where the
    truncated asymptotic series pins the solution to near double precision.
    """
    from scipy.integrate import solve_ivp  # here, so the CLI never loads it

    r = np.asarray(r_grid, dtype=float)
    if len(r) < 2:
        raise ValueError("need at least two grid points")
    energy = ((alpha[0] - alpha[1]) / 2.0) ** 2
    mu2 = -4.0 * energy
    r1 = max(float(r.max()) + 0.5, 8.0)
    z1 = 2.0 * math.exp(r1 / 2.0)
    s, sp = _k_series(mu2, z1)
    amp = math.sqrt(math.pi / (2.0 * z1)) * math.exp(-z1)
    phi1 = amp * s
    dphi1 = (z1 / 2.0) * (phi1 * (-1.0 - 1.0 / (2.0 * z1)) + amp * sp)

    def rhs(t, y):
        return [y[1], (math.exp(t) - energy) * y[0]]

    t_eval = np.sort(r)[::-1]
    sol = solve_ivp(rhs, (r1, float(r.min())), [phi1, dphi1],
                    t_eval=t_eval, method="DOP853", rtol=ODE_RTOL, atol=1e-280)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    vals = dict(zip(sol.t, sol.y[0]))
    return GridFunction([r], np.array([vals[t] for t in r]))


def whittaker_vs_ode_ratio(alpha: Sequence[float],
                           r_grid: Sequence[float]) -> VerificationReport:
    """Relative spread of psi(CoM line)/phi_ODE across the grid.

    The wave function is restricted to x = (r/2, -r/2), on which the
    reduced coordinate in the direction of growing potential is r.
    """
    r = np.asarray(r_grid, dtype=float)
    ode = bessel_oracle_n2(alpha, r).values.real
    mb = np.array([g.item() for g in whittaker_on_grids(
        2, alpha, [[[rv / 2.0], [-rv / 2.0]] for rv in r.tolist()], tol=QUAD_TOL)])
    ratio = mb / ode
    spread = float(np.std(ratio) / np.mean(np.abs(ratio)))
    return residual_report("oracle", 2, "ode-ratio", spread, 1e-5,
                           witness=f"alpha={tuple(alpha)}")


# ---------------------------------------------------------------------------
# Givental integral (N <= 3)
# ---------------------------------------------------------------------------


def givental(alpha: Sequence[float], x: Sequence[float]) -> complex:
    """The wave function at x from the Givental integral, for N <= 3.

    With y_{N,i} = -x_i and lambda = (-alpha_N, ..., -alpha_1),

        psi(x) = c_N int exp{i sum_k lambda_k (sum_i y_{k,i} - sum_i y_{k-1,i})
                 - sum_{k<N} sum_i (e^{y_{k,i} - y_{k+1,i}}
                                    + e^{y_{k+1,i+1} - y_{k,i}})} dy

    over the y_{k,i} with k < N (Givental 1997; Gerasimov, Kharchev,
    Lebedev and Oblezin, IMRN 2006).  c_2 = 1: Euler's integral, Fourier
    inverted, reads e^{-e^w} = int Gamma(-i mu) e^{i mu w} dmu/(2 pi) over
    Im mu > 0; taken for both walls, it turns the y_{1,1} integral into a
    2 pi delta and leaves the N = 2 Mellin-Barnes integral of
    `mellin_barnes`.  c_3 = 2: GKLO equate the Givental integral with the
    Mellin-Barnes one whose level k carries d^k gamma/((2 pi)^k k!);
    `mellin_barnes` integrates the symmetric level-2 integrand over all of
    R^2 without the 1/2!, so its value is 1! 2! = 2 times theirs.

    Up to a factor e^{-40} = e^{-e^{3.7}} the walls hold every level-(N-1)
    variable within 3.7 of [-max x, -min x] and a level-1 variable at N = 3
    within 7.4, so one uniform trapezoid window of half-width 8 + (max x -
    min x), centred at mean(y_N), serves every variable.  The step 0.1
    e^{-u/4} follows the walls' width e^{-u/4} at the largest difference
    u = x_k - x_{k+1} > 0.  At N = 3 the level-1 integral is one n x n
    product E1 @ E2, then a bilinear form with the two level-2 factors.
    """
    N = len(x)
    if not 1 <= N <= 3 or len(alpha) != N:
        raise ValueError("givental needs 1 <= N <= 3 and one alpha per x")
    y = -np.asarray(x, dtype=float)
    lam = [-float(a) for a in reversed(alpha)]
    top = cmath.exp(1j * lam[-1] * y.sum())
    if N == 1:
        return top
    u = max(0.0, max(x[k] - x[k + 1] for k in range(N - 1)))
    half = 8.0 + float(y.max() - y.min())
    steps = math.ceil(half / (0.1 * math.exp(-u / 4.0)))
    s = y.mean() + np.linspace(-half, half, 2 * steps + 1)
    ds = s[1] - s[0]
    with np.errstate(over="ignore"):
        # y_{N-1,i}: its phase and its two walls
        low = [np.exp(1j * (lam[-2] - lam[-1]) * s - np.exp(s - y[i])
                      - np.exp(y[i + 1] - s)) for i in range(N - 1)]
        if N == 2:
            return top * low[0].sum() * ds
        wall = np.exp(-np.exp(-np.subtract.outer(s, s)))   # e^{-e^{s_j - s_i}}
        level1 = (wall * np.exp(1j * (lam[0] - lam[1]) * s)) @ wall
    return 2.0 * top * (low[0] @ level1 @ low[1]) * ds ** 3
