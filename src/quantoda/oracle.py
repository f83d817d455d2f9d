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

The eigen check runs on the difference lattice.  The first Toda integral
is the total momentum: psi(y + s (1, ..., 1)) = e^{i sigma s} psi(y),
sigma = sum alpha (the carrier of `mellin_barnes`).  On the cube grid
x_k = (i_k - (P - 1)/2) h, the differences x_k - x_{k+1} take the
2 P - 1 values of d_k = i_k - i_{k+1}, and Psi = e^{i sigma y_p} G(d), where
G is psi on the pivot grid y_p = 0, p = max(N - 2, 0): y_{p-1} = u_{p-1}
and y_{p+1} = -u_p run over the lattice values u_k of y_k - y_{k+1}, a
tensor grid for N <= 3.  With p the coordinate before last, the values
of G carry the carrier e^{i sigma y_N}, so a wrong momentum shows in them;
with y_N = 0 at N = 2 it would be 1 on all of them.  Moving x_k by +-h
moves d_{k-1} by -+1 and d_k by +-1, and for k = p turns the carrier by
e^{-+i sigma h}; the potential sum_k e^{x_{k+1} - x_k} = sum_k e^{u_k + ln 2}
depends on d alone.  So at each node the residual H Psi - E Psi is that
carrier times a lattice residual R(d), and |Psi| = |G(d)|.  The interior
nodes with differences d differ only in i_N: with s_k = sum_{j >= k} d_j
(s_N = 0), i_k = i_N + s_k must lie in [m, P - 1 - m], m = BOUNDARY_MARGIN,
which leaves (P - 2m) - (max_k s_k - min_k s_k) of them, or none.  The
interior norms of the residual and of Psi are those of R and G weighted by
that multiplicity.  Interior nodes have |d_k| < P - 2m, and the stencil
reads one step further: (2 (P - 2m) + 1)^{N-1} lattice values instead of
P^N nodes, the 2 P - 1 values of each difference but the 2m - 1 at each
end.  A grid with half the spacing has the differences of the given grid
at even d.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mellin_barnes import EXP_LIMIT, difference_lattice, whittaker_on_grid
from .report import VerificationReport, residual_report

BOUNDARY_MARGIN = 2  # nodes invalidated per face by the stencil
QUAD_TOL = 1e-8      # quadrature tol of the wave function the ODE checks
ODE_RTOL = 1e-10     # relative tol of the N = 2 ODE integration
K_SERIES_TERMS = 16  # terms of the asymptotic series that starts the ODE


def toda_apply(axes: Sequence[np.ndarray], values: np.ndarray) -> np.ndarray:
    """H psi on the uniform tensor grid axes[0] x ... x axes[N-1], with
    H = -Laplacian + sum_k e^{x_{k+1}-x_k}; the BOUNDARY_MARGIN nodes of
    every face, where np.roll wraps the stencil around, set to NaN.

    `check_eigen` computes the same residual on the difference lattice;
    this N-D stencil is the reference the tests hold that lattice to."""
    v = np.asarray(values, dtype=complex)
    out = np.zeros_like(v)
    for k, a in enumerate(axes):
        h = a[1] - a[0]
        out -= (np.roll(v, -1, axis=k) - 2.0 * v + np.roll(v, 1, axis=k)) / h ** 2
    x = np.meshgrid(*axes, indexing="ij", sparse=True)
    out += sum((np.exp(q - p) for p, q in zip(x, x[1:])), np.zeros(v.shape)) * v
    inner = tuple(slice(BOUNDARY_MARGIN, n - BOUNDARY_MARGIN) for n in v.shape)
    full = np.full(v.shape, np.nan, dtype=complex)
    full[inner] = out[inner]
    return full


def eigenvalue_from_alpha(alpha: Sequence[float]) -> float:
    """E = sigma_1^2/2 - sigma_2 = (1/2) sum alpha_k^2."""
    s1 = sum(alpha)
    s2 = sum(alpha[i] * alpha[j]
             for i in range(len(alpha)) for j in range(i + 1, len(alpha)))
    return 0.5 * s1 * s1 - s2


@dataclass(frozen=True)
class GridSpec:
    """Cube grid centred at the origin: points per axis, spacing."""

    points: int
    spacing: float

    @property
    def axis(self) -> np.ndarray:
        """The coordinates of every axis: `points` values, `spacing` apart."""
        return (np.arange(self.points) - (self.points - 1) / 2.0) * self.spacing


LN2 = math.log(2.0)


def max_grid_span(N: int) -> float:
    """Largest span D = max |x_k - x_{k+1}| of a grid `check_eigen` accepts.

    `_lattice_residual`'s potential e^{x_{k+1} - x_k} reaches e^D.  The
    node sums carry |e^{i sum_n u_n sum_j lambda_{nj}}| = e^{-sum_n n h_n u_n}
    (level n: n variables at height h_n = (N - n)/2), and the contour-integral
    differences u_n = -(x_n - x_{n+1}) - ln 2 reach -(D + ln 2), so they
    reach e^{S (D + ln 2)} with S = sum_n n h_n = N (N^2 - 1)/12.  Both stay
    below e^EXP_LIMIT for D <= min(EXP_LIMIT, EXP_LIMIT/S - ln 2): 700 at
    N = 2 and 349.3 at N = 3.  Unbounded, numpy overflowed first at
    D = 709.78 at N = 2 (the potential) and D = 359-367 at N = 3 (the last
    node-sum contraction) for alpha in [-5, 5].  N = 1 has no bound.
    """
    S = N * (N * N - 1) / 12.0
    return min(EXP_LIMIT, EXP_LIMIT / S - LN2) if S else math.inf


def lattice_tol(h: float) -> float:
    """The quadrature tol at which `check_eigen` evaluates a lattice whose
    finest spacing is h: min(1e-6, 1e-3 h^2), and not below 1e-12.

    `default_contour` delivers far more than its tol: on the eigen lattices
    the values lie within about 1e-3 tol of a tol-1e-12 evaluation.  The
    residual is the stencil's O(h^2) truncation; with errors of about
    1e-6 h^2, 180 refined checks on grids from 8:0.003 to 12:0.2 kept the
    statuses they have at tol 1e-12, while a flat 1e-6 turned one N = 3
    check on 8:0.003 to PASS (ratio 3.73, against 3.36 at tol 1e-12).  Below
    h = 3.2e-5 the stencil's 1/h^2 lifts the values' rounding above the
    truncation, and a finer tol would only lengthen the contour, whose
    node count grows as log(1/tol)^2: at max |alpha| = 1, 516 per dimension
    at 1e-12 and 23105 at 1e-100.
    """
    return max(1e-12, min(1e-6, 1e-3 * h * h))


def _lattice_residual(G: np.ndarray, u: Sequence[np.ndarray], grid: GridSpec,
                      pivot: int, sigma: float, energy: float) -> float:
    """||H psi - E psi|| / ||psi|| over the interior of the cube grid, read
    off the wave function's values G on its difference lattice (see the
    module docstring).

    G has one axis per difference x_k - x_{k+1}, index d + P - 2 m for
    d = -(P - 2 m) .. P - 2 m (P = grid.points, m = BOUNDARY_MARGIN), and
    u[k] holds y_k - y_{k+1} there: the differences of interior nodes (the
    box, all of G but its outer ring) and the stencil's reach of one beyond
    them.  Psi is e^{i sigma y_pivot} G(d).
    """
    N = G.ndim + 1
    h = grid.spacing
    inner = grid.points - 2 * BOUNDARY_MARGIN   # interior nodes per axis
    box = tuple(slice(1, n - 1) for n in G.shape)
    at = np.indices(G[box].shape)               # d = at - (inner - 1)
    # interior nodes with these differences: the positions of x_N, inner
    # of them less the spread of the partial sums s_k = sum_{j >= k} d_j
    s = np.cumsum(at[::-1] - (inner - 1), axis=0)
    weight = inner - s.max(axis=0, initial=0) + s.min(axis=0, initial=0)
    keep = weight > 0

    def moved(delta):
        return G[tuple(slice(b.start + o, b.stop + o)
                       for o, b in zip(delta, box))][keep]

    c = G[box][keep]
    lap = np.zeros_like(c)
    # x_k + h: d_k + 1, d_(k-1) - 1, and e^{-i sigma h} on the pivot
    steps = np.eye(N, N - 1, dtype=int) - np.eye(N, N - 1, k=-1, dtype=int)
    for k, delta in enumerate(steps):
        turn = cmath.exp(-1j * sigma * h) if k == pivot else 1.0
        lap += (turn * moved(delta) - 2.0 * c
                + turn.conjugate() * moved(-delta)) / h ** 2
    # e^{x_(k+1) - x_k} = e^{u_k + ln 2}
    pot = sum(np.exp(uk[b] + LN2)[i[keep]] for uk, b, i in zip(u, box, at))
    root = np.sqrt(weight[keep])
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        resid = root * ((pot - energy) * c - lap)
        ratio = float(np.linalg.norm(resid) / np.linalg.norm(root * c))
        if math.isinf(ratio):        # a sum of squares past the largest double
            s = np.abs(resid).max()
            ratio = float(np.linalg.norm(resid / s) / np.linalg.norm(root * c)) * s
    if not math.isfinite(ratio):
        raise ValueError(f"the residual at E = {energy:.6g} overflows a double")
    return ratio


def check_eigen(N: int, alpha: Sequence[float], grid: GridSpec,
                tol: float = 1e-3, refine: bool = False) -> VerificationReport:
    """Relative residual ||H psi - E psi|| / ||psi|| over interior nodes.

    E is twice eigenvalue_from_alpha: the Hamiltonian here carries the full
    Laplacian while the spectral normalization of eigenvalue_from_alpha
    corresponds to the half-Laplacian form (see the module docstring).
    With refine=True the spacing is halved at fixed extent and the
    second-order stencil ratio (about 4) is reported in the witness; it is
    undefined, and the status that of the residual alone, when the halved
    grid's residual is 0.  A grid of fewer than 2 BOUNDARY_MARGIN + 1
    points, which has no interior node, a grid (the halved one too, with
    refine) that spans more than `max_grid_span`(N), and one whose spacing
    h makes the stencil's 1/h^2 exceed e^EXP_LIMIT raise ValueError before
    anything is evaluated; so does a residual past the largest double
    (E = inf or a ratio beyond 1.8e308), after.

    The residual is the second-order stencil's on the cube grid, with norms
    over its interior nodes, computed on its lattice of index differences
    d_k = i_k - i_(k+1) (see the module docstring for the reduction): one
    `whittaker_on_grid` call evaluates the pivot grid, y_p = 0 with
    p = max(N - 2, 0), whose y_(p-1) and y_(p+1) run over the differences
    of the (halved, with refine) grid that the stencil reads, at the
    quadrature tol `lattice_tol` of its spacing.  The given grid's lattice
    is the sub-lattice of even d.
    """
    m = BOUNDARY_MARGIN
    if grid.points < 2 * m + 1:
        raise ValueError(f"{grid.points} points: a grid needs {2 * m + 1} for an interior node")
    top = GridSpec(2 * grid.points, grid.spacing / 2.0) if refine else grid
    x = top.axis
    span = x[-1] - x[0]              # unbounded at N = 1: max_grid_span(1) = inf
    if span > max_grid_span(N):
        raise ValueError(f"grid spans {span:.6g} in x_k - x_(k+1); above "
                         f"{max_grid_span(N):.6g} the N={N} evaluation overflows")
    if top.spacing < math.exp(-EXP_LIMIT / 2.0):
        raise ValueError(f"grid spacing {top.spacing:.6g}: the stencil's 1/h^2 "
                         f"exceeds e^{EXP_LIMIT:g}")
    # the wave function transplanted to the Hamiltonian's convention
    y = [-x + k * LN2 for k in range(1, N + 1)]
    # the differences the stencil reads: 2m - 1 at each end are never read
    reach = slice(2 * m - 1, 2 * top.points - 2 * m)
    u = [difference_lattice(a, b)[reach] for a, b in zip(y, y[1:])]
    pivot = max(N - 2, 0)
    psi = whittaker_on_grid(N, alpha, [*u[:pivot], np.zeros(1),
                                       *(-uk for uk in u[pivot:])],
                            lattice_tol(top.spacing))
    G = psi.reshape([len(uk) for uk in u])
    sigma = sum(float(a) for a in alpha)
    energy = 2.0 * eigenvalue_from_alpha(alpha)
    even = slice(2 * m, -2 * m, 2)              # the given grid's differences
    lattices = [(G[(even,) * (N - 1)], [uk[even] for uk in u], grid)] if refine else []
    lattices.append((G, u, top))
    residuals = [_lattice_residual(g, v, spec, pivot, sigma, energy)
                 for g, v, spec in lattices]
    rep = residual_report("eigen", N, "toda-eigenvalue", residuals[0], tol)
    if refine and residuals[1] == 0.0:
        rep.witness = "refinement ratio undefined: the halved grid's residual is 0"
    elif refine:
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


def bessel_oracle_n2(alpha: Sequence[float], r_grid: Sequence[float]) -> np.ndarray:
    """Solution of -phi'' + e^r phi = E phi, E = ((a1-a2)/2)^2, decaying as
    r -> +infinity, on the given r grid (r is the coordinate difference of
    the two sites in the direction of growing potential).

    Integrates inward from a start point deep in the decay region where the
    truncated asymptotic series pins the solution to near double precision.
    Needs scipy, which the package declares only in its ``test`` extra: no
    CLI command calls this, and the import is here so that none loads it.
    """
    from scipy.integrate import solve_ivp

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
    return np.array([vals[t] for t in r])


def whittaker_vs_ode_ratio(alpha: Sequence[float],
                           r_grid: Sequence[float]) -> VerificationReport:
    """Relative spread of psi(CoM line)/phi_ODE across the grid.

    The wave function is restricted to x = (r/2, -r/2), on which the
    reduced coordinate in the direction of growing potential is r.  By the
    total momentum (module docstring) psi(r/2, -r/2) = e^{-i sigma r/2}
    psi(r, 0): one grid (r, 0) gives every value.
    """
    r = np.asarray(r_grid, dtype=float)
    ode = bessel_oracle_n2(alpha, r)
    mb = whittaker_on_grid(2, alpha, [r, [0.0]], tol=QUAD_TOL)[:, 0]
    ratio = mb * np.exp(-0.5j * sum(alpha) * r) / ode
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
