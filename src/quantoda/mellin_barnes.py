"""Iterated contour-integral evaluation of Whittaker and spherical functions.

The wave function is a multiple Fourier-type integral over a triangular
array of spectral variables: the kernel is a product over adjacent levels of
Gamma factors divided by within-level Gamma factors, times the exponential
carrying the coordinates.  Levels n = 1..N-1 are integrated, the top level
carries the spectral parameters.

Whittaker contours run parallel to the real axis with level offsets
h_n decreasing in n (level n strictly above level n+1), which keeps every
numerator Gamma argument at positive real part.  Only this module builds
contours (`default_contour`, raised at N = 3 by `_evaluate` for the
recursive route), so `ContourSpec` is a plain record whose builders keep
the ordering.  Spherical contours are real; the kernel there pairs
Gamma(d/(2i)+1/4) with its reflection, |Gamma(1/4 - i d/2)|^2, which is
real: its weight and Gamma matrix are float64, from one real-part log Gamma
call (`specfun.log_abs_gamma_array`), and its Toeplitz products real GEMMs.
Within-level coincidences annihilate the integrand through the denominator:
coincident parameters raise ContourError.

Quadrature is a truncated uniform grid per dimension (spectrally accurate
for these analytic, exponentially decaying integrands).  N <= 3.  One front
end, `_evaluate`, works on one tensor grid axes[0] x ... x axes[N-1]: a
point is a grid with one node per axis, a sweep one with a single varying
axis.  It returns one record, `QuadratureResult`, of the values and error
estimates on the grid: the point evaluators narrow it to a Python complex
and float, and `grid_scan` returns it with its axes.  No output column is
made here: `cli` alone turns records into rows.  The integrand sees x
only through the differences u_n = x_n - x_{n+1}, each level's node sums
running over its differences as given, and the carrier e^{i sigma1 x_N},
applied once to the node sums.  The stride-2 sums behind the error
estimate are computed only where the estimate is read: point values and
sweeps, not grids.  Level n holds n
variables at height h_n, so its phase e^{i lam u_n} reaches e^{n h_n
max(0, -u_n)}: a grid whose phase exponent sum_n n h_n max(0, -min u_n)
exceeds EXP_LIMIT would overflow and raises ValueError before any node
sum.  One builder, `_kernel`, makes the kernel of every route: the
top-level weight and, at N = 3, the level-1 x level-2 Gamma matrix A.
Both levels run over the same nodes, so A is Toeplitz and the build
returns its 2M - 1 values, of which it computes the M at differences
i - j >= 0 and mirrors the rest: A(-d) = conj A(d) for the Whittaker
factor Gamma(1/2 - i delta), A(-d) = A(d) for the spherical one.  So
every route passes O(M) arguments to Gamma, 2M at N = 2 and 4M at N = 3,
in one call per build: the Whittaker kernels (direct and recursive) take
Gamma values (`specfun.gamma_products`, one exponential per node and no
log), the spherical kernel real log Gammas.  In the node sum,
`_node_sums`, the phases of a level with more than one difference stay two
factors (`_phase`): about 2 sqrt(M) exponentials per difference, a coarse
factor over blocks of K nodes and a fine one within a block, K even.
Level 1 contracts them in
`_phase_sum`, one GEMM with the coarse factor and a product-sum with the
fine one, level 2 builds each block's phase columns from them, and the
stride-2 sums read the fine factor's even rows: no (n x M) phase array or
stride-2 copy of one is built.  A one-row phase, every point value's, is
one exponential per node.  A within-level difference d on a level's contour
is real, so the denominator 1/(Gamma(-i d) Gamma(i d)) = d sinh(pi d)/pi
(0 at d = 0) has rank 4 as a matrix over the nodes: at N = 3 the sum
takes O(M^2) time, builds no 3-D array and contracts V_BLOCK columns of v
at a time.  Every block multiplies by A in row blocks copied from a
read-only strided view of its 2M - 1 values (`_toeplitz_rows`,
`_toeplitz_product`; a real A takes the complex weights as float pairs,
one real GEMM per block), so no sum builds A and each holds O(M) memory: an
N = 3 point at tol 1e-10 (M = 383) traces a 0.42 MiB peak, not the 2.4 MiB
of a whole A.
A grid whose largest node array (M N at N = 2, M^2 at N = 3, M per
difference) or node-sum array (one sum per pair of differences at N = 3)
exceeds NODE_ARRAY_LIMIT elements raises ValueError before the kernel is
built, and so does N = 3 on a contour of
half-width T with pi T > EXP_LIMIT (e^{pi t} overflows).  N = 1 is the
carrier alone and builds no contour.  The recursive route (separation of
variables) is a contour, not a code path: the default one at N <= 2, and
at N = 3 the one raised 1/2 per integrated level.  So every value passes
one validation and one set of guards (`_evaluate`) and takes one `_kernel`
build and one `_node_sums` call.
Comparing the N = 3 recursive value with the direct one checks contour
independence (Cauchy), as acceptance criterion 09 does at one point;
`oracle.givental` is the reference without Mellin-Barnes kernels.  The
integrand is c_N times the Gelfand-Zetlin Whittaker vector, measure and
Cartan multiplier of `gz` (c_N derived in `gz.gz_measure`): the tests check
`_kernel` and the node sums against that product node by node, and this
module imports `specfun` alone, so the two stay independent codes.

Normalization: 1/(2 pi) per integration variable, which makes N = 1 return
exactly e^{i alpha x}; all cross-checks against oracles are ratio-based.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import specfun
from .specfun import gamma_products, log_abs_gamma_array

TWO_PI = 2.0 * math.pi
LEVEL_OFFSET_STEP = 0.5   # h_n = (N - n) * step
POLE_STRIP = 0.25         # distance heuristic for the node-spacing estimate
MIN_NODES = 64
COINCIDENT_TOL = 1e-6
EXP_LIMIT = 700.0         # ln 1e304: headroom e^9.8 below the largest double
# Largest node or node-sum array accepted, in elements.  Peak RSS per element
# of a node array (2 CPUs x86-64, numpy 2.4, OpenBLAS 1 thread): N = 2 point
# 221-229 B at 2e6-4e6 elements (log Gamma's temporaries), so 8e6 keeps every
# evaluation under 2 GB; a sweep keeps its phases factored, 3.2-4.6 B at
# 2e6-8e6 (N = 2 and N = 3 x_1 and x_3 sweeps at tol 1e-6, against 20-27 B
# with whole phase matrices).  No N = 3 sum builds an M^2 array: there
# the M^2 term bounds its Toeplitz work, for a point 0.08 s and 2.8 MB of RSS
# at M^2 = 7.9e6 (one OpenBLAS thread; a whole A took 0.23 s and 151 MB).
NODE_ARRAY_LIMIT = 8_000_000
# Columns of v per block of the N = 3 contraction.  A block's weights and
# product are 4 V_BLOCK columns of M values (280 kB each at 16 and M = 275),
# and every block multiplies by A's row blocks (`_toeplitz_product`), which
# repack the block's weights once per row block.  With a host probe before
# each call (2 CPUs x86-64, OpenBLAS 1 thread), 32 and 64 columns ran the
# refined N = 3 eigen check 4% and 16% slower than 16.
V_BLOCK = 16
# Rows of A per block of `_toeplitz_product`.  An N = 3 point at tol 1e-8 /
# 1e-10 (M = 275 / 383) takes 1.41 / 1.68 ms at 48 rows, within 4% of that
# at 32 or 64 and 1.80 / 2.84 ms in one block (2 CPUs x86-64, OpenBLAS 1
# thread, a host probe before each); a 48-row block of 383 complex values
# is 294 kB (147 kB real, for the spherical kernel), and the point faults on
# 40 fresh pages, against 541 in one.
ROW_BLOCK = 48
# perfbench's tracer test reads `mb.log_gamma_array`; the name stays for it.
log_gamma_array = specfun.log_gamma_array


class DimensionError(ValueError):
    """Requested lattice size outside the supported range."""


class ContourError(ValueError):
    """Coincident spherical spectral parameters: the spherical kernel's
    within-level denominator vanishes on its real contour."""


class ContourSpec(NamedTuple):
    """Per-level imaginary offsets h_n (level n integrates over t + i h_n),
    strictly decreasing to h_N = 0, on M nodes of [-T, T]."""

    offsets: tuple
    half_width: float
    nodes_per_dim: int


class QuadratureResult(NamedTuple):
    """Values and their error estimates: arrays over a grid (`_evaluate`,
    `grid_scan`), the estimate None when it was not computed, or a point
    evaluator's Python complex and float.  `cli` makes the output columns."""

    value: complex
    error_estimate: float | None


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
    if not math.isfinite(2.0 * T / dt):
        raise ValueError(f"max|alpha| = {amax:.6g} gives a contour half-width "
                         f"or node count that is not finite")
    nodes = max(MIN_NODES, int(math.ceil(2.0 * T / dt)))
    offsets = tuple((N - n) * LEVEL_OFFSET_STEP for n in range(1, N + 1))
    return ContourSpec(offsets, T, nodes)


# ---------------------------------------------------------------------------
# Vectorized kernel pieces
# ---------------------------------------------------------------------------


def difference_lattice(a, b):
    """a[i] - b[j] for two axes of n nodes, one per d = i - j at index
    d + n - 1: the first row reversed, a[0] - b[n-1 .. 1], then the first
    column a - b[0].  On evenly spaced axes the other pairs with that d
    differ by rounding alone: the difference lattice of `oracle.check_eigen`
    takes these values, and `_kernel`'s Toeplitz A the first column's."""
    return np.concatenate([a[0] - b[:0:-1], a - b[0]])


def _kernel(top, which: str, offsets, half_width: float, M: int):
    """Nodes t, top weight w and, at N = 3, the adjacent-level diagonals.

    `offsets` holds h_1..h_N, level n running over t + i h_n on the M nodes
    t of [-half_width, half_width].  w[i] is the product of the factors
    linking level-(N-1) node i to the top-level parameters `top`.  At N = 3
    A[i, j] links level-1 node i to level-2 node j; both levels run over the
    same nodes t, so A depends on i - j alone (Toeplitz) and is returned as
    its 2M - 1 values diag, entry i - j + M - 1: its first row and column.
    Only the M values with i - j >= 0 (`difference_lattice`'s first column)
    are computed; the first row is their mirror, A(-d) = conj A(d) for the
    Whittaker factor Gamma(1/2 - i delta) and A(-d) = A(d) for the spherical
    |Gamma(1/4 - i delta/2)|^2 (the node differences of -d are those of d
    negated, bit for bit).  So a build takes 4M Gamma arguments at N = 3 and
    2M at N = 2, all in one call: the Whittaker kernels take Gamma values
    (`specfun.gamma_products`, one exponential per node), the spherical one
    real log Gammas (`specfun.log_abs_gamma_array`), as its w and diag are
    real (float64).  The nodes are np.linspace(-half_width, half_width, M)
    bit for bit: the same step times arange, less half_width, and the last
    node pinned to half_width.  Returns (t, w, diag), diag None when N = 2.
    """
    t = np.arange(M, dtype=float)
    t *= 2.0 * half_width / (M - 1)
    t -= half_width
    t[-1] = half_width
    low = t + 1j * offsets[-2]       # level N-1
    d = np.subtract.outer(low, top).ravel()
    shapes = [(M, len(top))]
    if len(offsets) == 3:            # A's M differences i - j >= 0, one factor each
        d = np.concatenate([d, (t + 1j * offsets[0]) - low[0]])
        shapes.append((M, 1))
    if which == "spherical":
        # Gamma(1/4 - i d/2) Gamma(1/4 + i d/2) = |Gamma(1/4 - i d/2)|^2 at real d
        logs = 2.0 * log_abs_gamma_array(d / 2j + 0.25)
        n_top = M * len(top)
        values = [np.exp(np.add.reduce(logs[:n_top].reshape(M, len(top)), axis=1)),
                  np.exp(logs[n_top:])]
    else:                            # Gamma(-i d)
        values = gamma_products(-1j * d, shapes)
    if len(offsets) == 2:
        return t, values[0], None
    return t, values[0], np.concatenate([np.conj(values[1][:0:-1]), values[1]])


def _toeplitz_rows(diag):
    """The n x n Toeplitz matrix A[i, j] = diag[i - j + n - 1] of a
    contiguous diag of 2n - 1 values, as a read-only view of diag's buffer:
    it starts at diag[n - 1] with strides (s, -s), so row i is diag[i:i + n]
    reversed and rows overlap.  A[::2, ::2] is the Toeplitz matrix of
    diag[(n - 1) % 2::2], the one on every other node."""
    n = (len(diag) + 1) // 2
    s = diag.itemsize
    rows = np.ndarray((n, n), diag.dtype, diag, (n - 1) * s, (s, -s))
    rows.setflags(write=False)
    return rows


def _toeplitz_product(rows, x):
    """A @ x for A given as the view `rows` (`_toeplitz_rows`, or every
    other row and column of it), without a copy of A.

    The rows go in ceil(n / ROW_BLOCK) blocks of near-equal size, each
    copied from the view into one buffer and multiplied into its rows of
    the result.  A real A (the spherical kernel's) takes a complex,
    C-contiguous x as float pairs: one real GEMM per block on x viewed as
    n x 2k floats, a quarter of a complex GEMM's flops, from a buffer of
    half the bytes.  At one OpenBLAS thread a complex row block's GEMM
    gives the bytes of the whole product, unless the block is a single row
    (numpy sends a 1-row matmul down another path): near-equal blocks of
    n > 1 rows never are.  A real block's may round apart from the whole
    real product, as OpenBLAS picks its dgemm kernel by shape.
    """
    n = len(rows)
    blocks = -(-n // ROW_BLOCK)
    edges = [n * b // blocks for b in range(blocks + 1)]
    out = np.empty((n, x.shape[1]), np.result_type(rows, x))
    xs, outs = ((x.view(float), out.view(float)) if rows.dtype != out.dtype
                else (x, out))
    buf = np.empty((-(-n // blocks), n), rows.dtype)
    for r0, r1 in zip(edges, edges[1:]):
        buf[:r1 - r0] = rows[r0:r1]
        np.matmul(buf[:r1 - r0], xs, out=outs[r0:r1])
    return out


def _phase(c, t, h):
    """The phases e^{i c_k (t_j + i h)} over `_kernel`'s nodes t (np.linspace's
    bit for bit), as two factors (coarse, fine): `_phase_sum` contracts them.

    More than one row: the nodes factor as t_j = t_0 + (K q + r) dt, dt the
    linspace step 2T/(M - 1) and K = isqrt(M) rounded down to even, and
    entry (k, K q + r) is coarse[q, k] fine[r, k], with coarse the (Q, len(c))
    array e^{i c_k (t_0 + i h + K q dt)}, Q = ceil(M/K) (its last row may
    reach past t_{M-1}), and fine the (K, len(c)) array e^{i c_k r dt}: K + Q
    exponentials per row, and the (len(c), M) product is never built.  As K
    is even, node 2 j' = K q + r has r even, so coarse with fine's even rows
    gives the stride-2 phases, at j' = (K/2) q + r/2.  One row, every point
    value's, or none: coarse is None and fine the (M, len(c)) view of one
    exp per entry.
    """
    if len(c) < 2:                   # one row, or none (an empty sweep)
        return None, np.exp(np.multiply.outer(c, 1j * (t + 1j * h))).T
    M, K = len(t), math.isqrt(len(t)) & -2
    dt = (t[-1] - t[0]) / (M - 1)
    coarse = np.exp(np.multiply.outer(
        1j * (t[0] + 1j * h + K * dt * np.arange(-(-M // K))), c))  # (Q, nc)
    fine = np.exp(np.multiply.outer(1j * dt * np.arange(K), c))      # (K, nc)
    return coarse, fine


def _phase_sum(phase, x, step):
    """sum_j e^{i c_k (t_j + i h)} x[j // step] over the nodes j = 0, step,
    2 step, ... of `_phase`'s factors `phase` (step 1 or 2), for x of
    ceil(M/step) rows: an array of shape (len(c),) + x.shape[1:].

    One row: its every step-th exponential, copied contiguous, times x in
    one product, which gives the bytes of phases built on those nodes (a
    strided view rounds apart).  More rows: x, zero-padded to Q k rows, is
    read as a (Q, k cols) matrix and multiplied by the coarse factor in one
    GEMM; each row's k terms then take fine's every step-th row, k = K/step
    of them, and are summed.
    """
    coarse, fine = phase
    fine = fine[::step]
    if coarse is None:
        return np.ascontiguousarray(fine.T) @ x
    n, k = fine.shape[1], len(fine)
    padded = np.zeros((len(coarse) * k,) + x.shape[1:], complex)
    padded[:len(x)] = x
    g = (coarse.T @ padded.reshape(len(coarse), -1)).reshape(n, k, -1)
    return (fine.T[:, None, :] @ g).reshape((n,) + x.shape[1:])


def _node_sums(top, which: str, offsets, half_width: float, M: int,
               us: np.ndarray, vs: np.ndarray | None = None):
    """Trapezoid node sums of the kernel, without the carrier e^{i sigma1 x_N}.

    N = 2 when `vs` is None: arrays of shape (len(us),) over u = x1 - x2.
    N = 3 otherwise: arrays of shape (len(us), len(vs)) over u = x1 - x2 and
    v = x2 - x3.  Yields the sums on the full grid of M nodes, then those on
    its stride-2 subgrid, both from one pair of phase factors per level
    (`_phase`) built on all M nodes: a caller that reads no error estimate
    draws only the first and pays for no halved sum.  Level 1 contracts its
    factors with the node weights (N = 2) or pairs (N = 3) in `_phase_sum`;
    level 2 builds each block's M x V_BLOCK phase columns from its factors,
    so no level holds a (len(c), M) phase array or a stride-2 copy of one.

    At N = 3 the level-2 pair (b, c) carries D[b,c] = 1/(Gamma(-i d)
    Gamma(i d)) = d sinh(pi d)/pi at the real d = t_b - t_c (0 at d = 0), as
    both level-2 variables lie on one line.  Expanding the sinh,
    sum_{b,c} B_b B_c D[b,c] = [(B.tE+)(B.E-) - (B.E+)(B.tE-)] / pi with
    E+- = e^{+-pi t}: one (M x M) @ (M x 4 V_BLOCK) product per V_BLOCK
    columns of v, whose weights, product and pairs are never whole arrays.
    Each product takes A's row blocks (`_toeplitz_product`): A is never
    built.  The stride-2 sum's A is every other row and column of the view,
    the Toeplitz matrix of every other diagonal on ceil(M/2) nodes.
    """
    t, wtop, diag = _kernel(top, which, offsets, half_width, M)
    dt = t[1] - t[0]
    phase_a = _phase(us, t, offsets[0])
    if vs is not None:
        coarse_b, fine_b = _phase(vs, t, offsets[1])
        ep, em = np.exp(np.pi * t), np.exp(-np.pi * t)
        rank4 = np.empty((M, 4))                               # (nb, 4)
        rank4[:, 0], rank4[:, 1], rank4[:, 2], rank4[:, 3] = t * ep, em, ep, t * em
        rows = _toeplitz_rows(diag)
    for step in (1, 2):
        sl = slice(0, M, step)
        if vs is None:
            yield _phase_sum(phase_a, wtop[sl], step) * (dt * step) / TWO_PI
            continue
        sums = np.empty((len(us), len(vs)), complex)
        fine, nb = fine_b[::step], -(-M // step)
        for k in range(0, len(vs), V_BLOCK):
            cols = slice(k, k + V_BLOCK)
            phase_b = fine[:, cols]                            # one row: (nb, bv)
            if coarse_b is not None:                           # (Q k, bv), then nb rows
                phase_b = (coarse_b[:, None, cols] * phase_b).reshape(
                    -1, phase_b.shape[1])[:nb]
            w = wtop[sl, None] * phase_b                            # (nb, bv)
            weights = (rank4[sl, :, None] * w[:, None, :]).reshape(len(w), -1)
            P = _toeplitz_product(rows[sl, sl], weights).reshape(len(w), 4, -1)  # (na, 4, bv)
            pairs = (P[:, 0] * P[:, 1] - P[:, 2] * P[:, 3]) / np.pi  # (na, bv)
            sums[:, cols] = _phase_sum(phase_a, pairs, step) * (dt * step) ** 3 / TWO_PI ** 3
        yield sums


# ---------------------------------------------------------------------------
# Direct evaluation: the tensor-grid front end
# ---------------------------------------------------------------------------


def _validate(N: int, params: Sequence[float], axes, tol: float) -> List[float]:
    """The parameters as floats, after checking N, lengths, finiteness and tol.

    `axes` holds one number or grid axis per coordinate x_1..x_N."""
    if not 1 <= N <= 3:
        raise DimensionError(f"N={N} unsupported (1 <= N <= 3)")
    params = [float(p) for p in params]
    if len(params) != N or len(axes) != N:
        raise ValueError("parameters and x must have length N")
    if not (all(map(math.isfinite, params))
            and all(np.logical_and.reduce(np.isfinite(np.asarray(a, dtype=float)),
                                        axis=None) for a in axes)):
        raise ValueError("parameters and x must be finite")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    return params


@np.errstate(over="raise")
def _evaluate(which: str, N: int, params: Sequence[float], axes, tol: float,
              estimate: bool = True):
    """Values and error estimates on the grid axes[0] x ... x axes[N-1], from
    one kernel build and one node sum, after the one `_validate` of the
    inputs.  `which` is "whittaker", "recursive" (the Whittaker kernel on
    `default_contour` raised 1/2 per integrated level at N = 3; see
    `whittaker_recursive`) or "spherical".

    Returns a QuadratureResult of arrays of shape (len(axes[0]), ...,
    len(axes[N-1])), its estimate None when not `estimate`.  The node sums run
    over every difference of each level.  The error estimate is
    |v - v_half|, where v_half is the stride-2 sum with the same carrier,
    computed only when `estimate`.  Spherical contours are real: offsets 0.
    ValueError, before the kernel is built, when the phase exponent
    sum_n n h_n max(0, -min u_n) exceeds EXP_LIMIT, the largest node or
    node-sum array NODE_ARRAY_LIMIT elements, or, at N = 3, pi T exceeds
    EXP_LIMIT for the contour's half-width T (e^{pi T} would overflow).  An
    overflow anywhere, such as a difference or the carrier's phase
    sigma1 x_N past the largest double, raises FloatingPointError.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    params = _validate(N, params, axes, tol)
    if which == "spherical" and any(abs(p - q) < COINCIDENT_TOL for i, p in
                                    enumerate(params) for q in params[i + 1:]):
        raise ContourError("coincident top-level spectral parameters")
    if N == 1:                       # the carrier alone: no contour is built
        carrier = np.exp(1j * sum(params) * axes[-1])
        return QuadratureResult(carrier, np.zeros(carrier.shape) if estimate else None)
    contour = default_contour(N, params, tol)
    offsets = contour.offsets if which != "spherical" else (0.0,) * N
    if which == "recursive" and N == 3:
        offsets = (offsets[0] + LEVEL_OFFSET_STEP, offsets[0], 0.0)
    # per level n, the differences x_n - x_{n+1}
    diffs = [np.subtract.outer(axes[n], axes[n + 1]) for n in range(N - 1)]
    exponent = sum(n * h * -float(np.minimum.reduce(u, axis=None, initial=0.0))
                   for n, (h, u) in enumerate(zip(offsets, diffs), 1))
    if exponent > EXP_LIMIT:
        raise ValueError(f"coordinates too far apart: phase exponent "
                         f"{exponent:.6g} exceeds {EXP_LIMIT:g}")
    carrier = np.exp(1j * sum(params) * axes[-1])
    M = contour.nodes_per_dim
    # floats: the int M^2 for max|alpha| = 1e200 is too large for :.3g
    size, name = max(
        (float(M) * max(M if N == 3 else N, *(d.size for d in diffs)), "node array"),
        (float(math.prod(d.size for d in diffs)), "node-sum array"))
    if size > NODE_ARRAY_LIMIT:
        raise ValueError(f"M={M:.3g} nodes per level: the {name} needs {size:.3g} "
                         f"elements, above {NODE_ARRAY_LIMIT:.3g}")
    if N == 3 and math.pi * contour.half_width > EXP_LIMIT:
        raise ValueError(f"half-width T={contour.half_width:.6g}: the N=3 node "
                         f"sum's e^(pi T) exceeds e^{EXP_LIMIT:g}")
    sums = _node_sums(params, which, offsets, contour.half_width, M,
                      *(d.ravel() for d in diffs))
    full = next(sums)
    half = next(sums) if estimate else None
    sums.close()                     # frees the node-sum temporaries
    # v[i, j] = s[i n1 + j] at N = 2; at N = 3 v[i, j, k] = s[i n1 + j, j n2 + k],
    # entry [i, j (n1 + 1), k] of s as an (n0, n1 n1, n2) array
    n = [len(a) for a in axes]
    shape, step = (n, 1) if N == 2 else ((n[0], n[1] * n[1], n[2]), n[1] + 1)
    v = full.reshape(shape)[:, ::step] * carrier
    return QuadratureResult(
        v, np.abs(v - half.reshape(shape)[:, ::step] * carrier) if estimate else None)


def _point(which: str, N: int, params: Sequence[float], x: Sequence[float],
           tol: float) -> QuadratureResult:
    """Value and error estimate at the one point x, as a Python complex and
    float."""
    v, err = _evaluate(which, N, params, [[xk] for xk in x], tol)
    return QuadratureResult(v.item(), err.item())


def whittaker_eval(N: int, alpha: Sequence[float], x: Sequence[float],
                   tol: float = 1e-6) -> QuadratureResult:
    """Direct tensor-quadrature evaluation of the wave function at one x."""
    return _point("whittaker", N, alpha, x, tol)


def whittaker_on_grid(N: int, alpha: Sequence[float], axes: Sequence[np.ndarray],
                      tol: float = 1e-6) -> np.ndarray:
    """Wave function on a full tensor grid of coordinates, from one kernel
    build and one node sum per coordinate difference (`_evaluate`).  No
    error estimate is computed."""
    return _evaluate("whittaker", N, alpha, axes, tol, estimate=False).value


def spherical_eval(N: int, lam_top: Sequence[float], x: Sequence[float],
                   tol: float = 1e-6) -> QuadratureResult:
    """Spherical-kernel integral over real contours."""
    return _point("spherical", N, lam_top, x, tol)


def grid_scan(N: int, alpha: Sequence[float], axis: int,
              start: float, stop: float, steps: int,
              x_base: Sequence[float] | None = None,
              tol: float = 1e-6) -> Tuple[list, QuadratureResult]:
    """Sweep one coordinate of the wave function: its grid axes, one node
    per fixed coordinate, and the values and estimates on them.

    The sweep is the grid whose axis `axis` varies: one kernel build, whose
    arrays hold every step with no per-step object.  At N >= 2 a node array
    holds M >= MIN_NODES values per step, so at most NODE_ARRAY_LIMIT //
    MIN_NODES steps fit; at N = 1 each step still costs its values.  More
    steps raise ValueError at every N, before the axis is built.
    """
    if not 0 <= axis < N:
        raise ValueError("axis out of range")
    x0 = list(x_base) if x_base is not None else [0.0] * N
    if len(x0) != N:
        raise ValueError("x_base must have length N")
    axes = [[xk] for xk in x0]
    if steps > NODE_ARRAY_LIMIT // MIN_NODES:
        raise ValueError(f"steps={steps} exceeds {NODE_ARRAY_LIMIT // MIN_NODES}, "
                         f"the most a sweep takes")
    axes[axis] = np.linspace(start, stop, steps)
    return axes, _evaluate("whittaker", N, alpha, axes, tol)


# ---------------------------------------------------------------------------
# Recursive evaluation (separation-kernel route)
# ---------------------------------------------------------------------------


def whittaker_recursive(N: int, alpha: Sequence[float], x: Sequence[float],
                        tol: float = 1e-6) -> QuadratureResult:
    """Level-by-level route: outer integral over the separated variables of
    the separation kernel and measure times the rank-(N-1) function; x_N
    enters through the carrier e^{i sigma1 x_N} alone.  At every N it is the
    one node sum on a contour, under the direct route's guards (EXP_LIMIT,
    NODE_ARRAY_LIMIT).  At N = 2 the separated kernel prod_k Gamma(-i(lam -
    alpha_k)) times e^{i lam u} is the direct integrand on `default_contour`.
    At N = 3 the separated pair lam, at height h, carries the kernel
    prod_{k,m} Gamma(-i(lam_k - alpha_m)), the measure mu = 1/(Gamma(-i d)
    Gamma(i d)), d = lam_1 - lam_2, and e^{i(lam_1 + lam_2) v}, against the
    rank-2 function int Gamma(-i(nu - lam_1)) Gamma(-i(nu - lam_2)) e^{i nu u}
    dnu/(2 pi) over Im nu = h + 1/2.  Fubini over the pair makes this the
    direct integral on offsets (h + 1/2, h, 0), node for node, and the rank 4
    of mu = d sinh(pi d)/pi lets `_node_sums` sum the pair first: N = 3 is
    the one engine on that contour, and its estimate halves all three levels.
    """
    return _point("recursive", N, alpha, x, tol)
