import cmath
import inspect
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from test_cli import _fresh_python
from test_oracle import _bessel_k_n2

from quantoda import mellin_barnes as mb
from quantoda.cli import _value_table, dispatch
from quantoda.gz import (TriangularArray, cartan_multiplier, gz_measure,
                         spherical_vector, whittaker_vector)
from quantoda.mellin_barnes import (ContourError, ContourSpec, DimensionError,
                                    QuadratureResult, _evaluate, default_contour,
                                    grid_scan, spherical_eval,
                                    whittaker_eval, whittaker_on_grid,
                                    whittaker_recursive)
from quantoda.oracle import (GridSpec, check_eigen, givental,
                             whittaker_vs_ode_ratio)
from quantoda.separation import sep_wavefunction
from quantoda.specfun import log_gamma, log_gamma_array


def test_n1_is_plane_wave():
    res = whittaker_eval(1, [0.7], [1.3])
    assert res.error_estimate == 0.0
    assert abs(res.value - cmath.exp(1j * 0.7 * 1.3)) < 1e-15


def test_n1_builds_no_contour_and_a_non_finite_one_is_refused():
    # the carrier alone at N = 1, whatever contour max|alpha| would need
    assert whittaker_eval(1, [1e308], [0.0]).value == 1.0
    assert whittaker_recursive(1, [1e308], [0.0]).value == 1.0
    assert spherical_eval(1, [1e308], [0.0]).value == 1.0
    with pytest.raises(ValueError, match=r"^max\|alpha\| = 1e\+308 "):
        default_contour(2, [1e308, 1e308], 1e-6)
    # a finite half-width whose node count 2T/dt is not finite, and one
    # whose count is finite within 6% of the largest double
    with pytest.raises(ValueError, match=r"^max\|alpha\| = 1e\+307 "):
        default_contour(2, [1e307, 0.0], 1e-6)
    assert default_contour(2, [4.14e306, 0.0], 1e-6).nodes_per_dim > 1.6e308


@pytest.mark.parametrize("evaluate", [
    lambda **kw: whittaker_eval(3, _A3, [0.5, 0.0, -0.5], **kw),
    lambda **kw: whittaker_recursive(3, _A3, [0.5, 0.0, -0.5], **kw),
    lambda **kw: spherical_eval(3, _A3, [0.5, 0.0, -0.5], **kw),
    lambda **kw: whittaker_on_grid(2, _A2, [np.linspace(-1.0, 1.0, 3), [0.0]],
                                   **kw).tolist(),
    lambda **kw: [a.tolist() for a in grid_scan(2, _A2, 0, -1.0, 1.0, 3, **kw)[1]],
], ids=["eval", "recursive", "spherical", "on-grid", "grid-scan"])
def test_evaluators_default_to_tol_1e_6(evaluate):
    # at tol 1.1e-6 the contour has other nodes, and the values other bits
    assert evaluate() == evaluate(tol=1e-6) != evaluate(tol=1.1e-6)


def test_default_contour_offsets():
    c = default_contour(3, [0.5, 0.0, -0.5], 1e-8)
    assert c.offsets == (1.0, 0.5, 0.0)
    tighter = default_contour(3, [0.5, 0.0, -0.5], 1e-12)
    assert tighter.half_width > c.half_width
    assert tighter.nodes_per_dim > c.nodes_per_dim


class _Built(Exception):
    """Raised in place of a node sum, once its contour is recorded."""


def test_every_contour_the_package_builds_is_ordered(monkeypatch):
    # no caller passes a contour in, so ContourSpec checks nothing: its two
    # builders, `default_contour` and the raise `_evaluate` makes for
    # `whittaker_recursive` at N = 3, keep the offsets strictly decreasing
    # to 0, T > 0, M >= MIN_NODES.  The raised contour is read where the node
    # sum takes it, with the node-array bound lifted so that every case
    # reaches it and no sum runs
    raised = []

    def recording(top, which, offsets, half_width, M, *diffs):
        raised.append(ContourSpec(offsets, half_width, M))
        raise _Built

    monkeypatch.setattr(mb, "_node_sums", recording)
    monkeypatch.setattr(mb, "NODE_ARRAY_LIMIT", math.inf)
    rng = np.random.default_rng(39)
    cases = [(N, [0.0] * N, tol) for N in (1, 2, 3) for tol in (1e-3, 1e-12)]
    for _ in range(40):
        N = int(rng.integers(1, 4))
        alpha = rng.uniform(-1.0, 1.0, N)
        amax = 100.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 2.0)
        cases.append((N, (amax * alpha / np.abs(alpha).max()).tolist(),
                      10.0 ** -rng.uniform(3.0, 12.0)))
    contours = []
    for N, alpha, tol in cases:
        contours.append((N, default_contour(N, alpha, tol)))
        if N == 3:
            with pytest.raises(_Built):
                whittaker_recursive(3, alpha, [0.5, 0.0, -0.5], tol)
            contours.append((3, raised[-1]))
    assert len(raised) == sum(N == 3 for N, _, _ in cases) > 0
    assert max(max(map(abs, alpha)) for _, alpha, _ in cases) == 100.0
    for N, c in contours:
        assert len(c.offsets) == N and c.offsets[-1] == 0.0
        assert all(a > b for a, b in zip(c.offsets, c.offsets[1:]))
        assert c.half_width > 0 and c.nodes_per_dim >= mb.MIN_NODES


def test_dimension_guard():
    with pytest.raises(DimensionError):
        whittaker_eval(4, [1.0, 0.5, -0.5, -1.0], [0.0] * 4)
    with pytest.raises(DimensionError):
        spherical_eval(0, [], [])


def test_direct_vs_recursive():
    alpha2, x2 = [0.8, -0.3], [0.4, -0.6]
    d = whittaker_eval(2, alpha2, x2, tol=1e-8)
    r = whittaker_recursive(2, alpha2, x2, tol=1e-8)
    assert abs(d.value - r.value) < 1e-8 * max(1.0, abs(d.value))
    alpha3, x3 = [0.9, 0.1, -0.6], [0.5, 0.0, -0.5]
    d = whittaker_eval(3, alpha3, x3, tol=1e-8)
    r = whittaker_recursive(3, alpha3, x3, tol=1e-8)
    assert abs(d.value - r.value) < 1e-6 * max(1.0, abs(d.value))
    d = whittaker_eval(3, alpha3, x3, tol=1e-10)
    r = whittaker_recursive(3, alpha3, x3, tol=1e-10)
    assert abs(d.value - r.value) <= 1e-10 * abs(d.value)


N3_ROUTES = {
    "recursive": lambda a, x, tol: whittaker_recursive(3, a, x, tol),
    "whittaker_eval": lambda a, x, tol: whittaker_eval(3, a, x, tol),
    "spherical_eval": lambda a, x, tol: spherical_eval(3, a, x, tol),
    "grid_scan": lambda a, x, tol: grid_scan(3, a, 0, -1.5, 1.5, 61, x, tol),
}


@pytest.mark.parametrize("route", N3_ROUTES)
def test_n3_routes_take_log_gamma_on_o_of_m_values(monkeypatch, route):
    # every N = 3 Gamma matrix is Toeplitz: 2M - 1 log Gamma values, not M^2,
    # taken with the top weight's 3M in one call per kernel build (the
    # spherical kernel takes one real-part log Gamma per difference)
    calls = []
    for name in ("log_gamma_array", "log_abs_gamma_array"):
        def counting(z, name=name, real=getattr(mb, name)):
            calls.append((name, np.size(z)))
            return real(z)

        monkeypatch.setattr(mb, name, counting)
    alpha, x = [0.9, 0.1, -0.6], [0.5, 0.0, -0.5]
    N3_ROUTES[route](alpha, x, 1e-8)
    kind = "log_abs_gamma_array" if route == "spherical_eval" else "log_gamma_array"
    assert [name for name, _ in calls] == [kind]
    assert calls[0][1] <= 5 * default_contour(3, alpha, 1e-8).nodes_per_dim
    if route == "recursive":
        # and agrees with the other ordering well below the tolerance
        want = whittaker_eval(3, alpha, x, tol=1e-12).value
        got = whittaker_recursive(3, alpha, x, tol=1e-10).value
        assert abs(got - want) <= 1e-12 * abs(want)


def test_recursive_n2_matches_the_separated_wave_function_loop():
    # the node sum against the per-node Gamma product summed in order, to
    # the rounding of an M-term sum
    alpha, x, tol = [0.8, -0.3], [0.4, -0.6], 1e-8
    c = default_contour(2, alpha, tol)
    t = np.linspace(-c.half_width, c.half_width, c.nodes_per_dim)
    lam = t + 1j * c.offsets[0]
    kern = np.array([sep_wavefunction(alpha, [l]) for l in lam])
    integ = kern * np.exp(1j * lam * (x[0] - x[1]))
    scale = (t[1] - t[0]) / (2 * math.pi)
    want = integ.sum() * scale * cmath.exp(1j * sum(alpha) * x[1])
    rounding = len(t) * np.finfo(float).eps * np.abs(integ).sum() * scale
    assert abs(whittaker_recursive(2, alpha, x, tol).value - want) <= rounding


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_recursive_n2_is_the_direct_route(tol):
    # one integrated level: the separated integral is the direct one
    for alpha, x in (([0.8, -0.3], [0.4, -0.6]), ([1.0, -0.5], [-2.0, 1.5])):
        assert whittaker_recursive(2, alpha, x, tol) == whittaker_eval(2, alpha, x, tol)


RECURSIVE_N3_POINTS = [((0.9, 0.1, -0.6), (0.5, 0.0, -0.5)),
                       ((0.9, 0.1, -0.6), (1.0, 0.0, -1.5)),
                       ((0.9, 0.1, -0.6), (-2.0, 0.0, 2.0)),
                       ((0.4, -0.7, 0.2), (0.3, -0.2, 0.1)),
                       ((0.4, -0.7, 0.2), (2.0, 0.0, -2.0)),
                       ((1.0, 0.3, -0.6), (-1.0, 1.5, -0.5))]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_recursive_n3_matches_the_givental_integral(tol):
    # criterion 09's independent reference: no Mellin-Barnes kernel
    for alpha, x in RECURSIVE_N3_POINTS:
        want = givental(alpha, x)
        got = whittaker_recursive(3, alpha, x, tol).value
        assert abs(got - want) <= 10 * tol * abs(want), (alpha, x)


def test_recursive_n3_is_the_direct_node_sum_on_the_raised_contour(monkeypatch):
    for alpha, x in RECURSIVE_N3_POINTS:
        for tol in (1e-6, 1e-8):
            c = default_contour(3, alpha, tol)
            h = c.offsets[0]
            raised = c._replace(offsets=(h + 0.5, h, 0.0))
            want = whittaker_recursive(3, alpha, x, tol)
            with monkeypatch.context() as m:
                m.setattr(mb, "default_contour", lambda *args: raised)
                assert whittaker_eval(3, alpha, x, tol) == want


def test_weyl_symmetry_in_alpha():
    x = [0.3, -0.1, -0.4]
    base = whittaker_eval(3, [1.1, 0.2, -0.7], x, tol=1e-8)
    for perm in ([0.2, 1.1, -0.7], [-0.7, 0.2, 1.1]):
        other = whittaker_eval(3, perm, x, tol=1e-8)
        tol = 10.0 * max(base.error_estimate, other.error_estimate, 1e-12)
        assert abs(base.value - other.value) < tol


def test_contour_shift_independence(monkeypatch):
    alpha, x = [0.6, -0.4], [0.8, -0.2]
    base = default_contour(2, alpha, 1e-9)
    ref = None
    for h in (0.3, 0.5, 0.9):
        c = base._replace(offsets=(h, 0.0))
        monkeypatch.setattr(mb, "default_contour", lambda *args: c)
        v = whittaker_eval(2, alpha, x, 1e-9).value
        if ref is None:
            ref = v
        else:
            assert abs(v - ref) < 1e-8 * max(1.0, abs(ref))


def test_scalar_vs_grid():
    alpha = [0.7, -0.2]
    ax0 = np.linspace(-0.5, 0.5, 4)
    ax1 = np.linspace(-0.3, 0.3, 3)
    grid = whittaker_on_grid(2, alpha, [ax0, ax1], tol=1e-8)
    assert grid.shape == (4, 3)
    for i in (0, 3):
        for j in (0, 2):
            pt = whittaker_eval(2, alpha, [ax0[i], ax1[j]], tol=1e-8)
            assert abs(grid[i, j] - pt.value) < 1e-10 * max(1.0, abs(pt.value))
    alpha3 = [0.8, 0.0, -0.5]
    ax = [np.linspace(-0.2, 0.2, 3)] * 3
    grid3 = whittaker_on_grid(3, alpha3, ax, tol=1e-7)
    assert grid3.shape == (3, 3, 3)
    pt = whittaker_eval(3, alpha3, [ax[0][1], ax[1][2], ax[2][0]], tol=1e-7)
    assert abs(grid3[1, 2, 0] - pt.value) < 1e-9 * max(1.0, abs(pt.value))


@pytest.mark.parametrize("alpha, x", [
    ([0.7], [0.1 + 3e-13]),
    ([0.7, -0.2], [0.1 + 3e-13, 0.0]),
    ([0.8, 0.0, -0.5], [0.1 + 3e-13, 0.0, 0.2 - 7e-13]),
])
def test_one_node_grid_is_the_point_value(alpha, x):
    # differences that are not multiples of 1e-12: the grid evaluates at
    # the exact difference
    N = len(x)
    grid = whittaker_on_grid(N, alpha, [np.array([xk]) for xk in x], tol=1e-8)
    assert grid.shape == (1,) * N
    assert grid.item() == whittaker_eval(N, alpha, x, tol=1e-8).value


@pytest.mark.parametrize("axes", [
    [[0.1, 0.1 + 3e-13], [0.0]],
    [[0.0], [0.1, 0.1 + 3e-13], [0.0]],
])
def test_grid_differences_are_taken_as_given(axes):
    # differences 3e-13 apart, equal to 12 decimals: two values, each its
    # own point's
    N = len(axes)
    alpha = {2: [0.7, -0.2], 3: [0.8, 0.0, -0.5]}[N]
    v = whittaker_on_grid(N, alpha, [np.array(a) for a in axes], tol=1e-8).ravel()
    assert v[0] != v[1]
    for k, x in enumerate(itertools.product(*axes)):
        pt = whittaker_eval(N, alpha, x, tol=1e-8).value
        assert abs(v[k] - pt) < 5e-15 * abs(pt)


def test_whittaker_on_grid_refuses_a_sums_array_above_the_limit(monkeypatch):
    counts = _counting_kernel_and_sums(monkeypatch)
    with pytest.raises(ValueError) as exc:
        whittaker_on_grid(3, [0.8, 0.0, -0.5], [np.linspace(-0.5, 0.5, 64)] * 3)
    assert "node-sum array" in str(exc.value) and "\n" not in str(exc.value)
    assert counts["kernel"] == 0
    # M of a contour for max|alpha| = 1e200 in three significant digits
    with pytest.raises(ValueError, match=r"^M=\d\.\d+e\+201 nodes per level: "
                       r"the node array needs [^ ]+ elements, above 8e\+06$"):
        whittaker_eval(2, [1e200, -1e200], [0.0, 0.0])


def test_a_sweep_past_the_node_array_limit_is_refused_before_its_axis():
    # a contour has M >= MIN_NODES = 64 nodes, so above 8e6 // 64 = 125000
    # steps the node array is refused whatever M: 10^6 steps would build
    # 15 MiB of axis and differences first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^steps=1000000 exceeds 125000, the most "
                           r"a sweep takes$"):
            grid_scan(2, [0.5, -0.5], 0, -1.0, 1.0, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # at 125000 steps the evaluation's own guard judges the contour's M
    with pytest.raises(ValueError, match=r"^M=167 nodes per level: the node array"):
        grid_scan(2, [0.5, -0.5], 0, -1.0, 1.0, 125000)


def test_an_n1_sweep_is_held_to_the_same_steps_bound(monkeypatch):
    # N = 1 builds no contour, so only the steps bound stops a sweep there:
    # unbounded, 10^8 steps would build about 20 GB of axis, carrier and
    # columns.  An axis past the bound fails the test before it is built
    limit = mb.NODE_ARRAY_LIMIT // mb.MIN_NODES
    linspace = np.linspace

    def bounded(start, stop, num, **kw):
        assert num <= limit, f"built an axis of {num} steps"
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(mb.np, "linspace", bounded)
    axes, res = grid_scan(1, [0.5], 0, -1.0, 1.0, limit)
    assert res.value.shape == (limit,) and axes[0][-1] == 1.0
    with pytest.raises(ValueError, match=r"^steps=125001 exceeds 125000, "):
        grid_scan(1, [0.5], 0, -1.0, 1.0, limit + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^steps=100000000 exceeds 125000, "):
            grid_scan(1, [0.5], 0, -1.0, 1.0, 10 ** 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("M, T, n1, n2, refusal", [
    (2828, 10.0, 1, 1, None),                # M^2 = 7,997,584
    (2829, 10.0, 1, 1, "the node array"),    # M^2 = 8,003,241
    (64, 250.0, 125000, 1, "half-width"),    # M n1 = 8e6 exactly
    (64, 250.0, 125001, 1, "the node array"),
    (64, 250.0, 2000, 4000, "half-width"),   # n1 n2 = 8e6 exactly
    (64, 250.0, 2000, 4001, "the node-sum array"),
], ids=["m2-below", "m2-above", "difference-at", "difference-above",
        "node-sum-at", "node-sum-above"])
def test_node_array_guard_boundaries_at_n3(monkeypatch, M, T, n1, n2, refusal):
    # one case each side of NODE_ARRAY_LIMIT for the three terms of the
    # guard: M^2 of an N = 3 point, M times the differences of a level, and
    # the node sums.  At T = 250, pi T > 700: a grid the guard lets through
    # is refused next by the half-width check, before any node sum
    axes = [np.linspace(0.0, 1.0, n1), [0.0], np.linspace(-1.0, 0.0, n2)]
    monkeypatch.setattr(mb, "default_contour",
                        lambda *args: ContourSpec((1.0, 0.5, 0.0), T, M))
    if refusal is None:
        v, err = _evaluate("whittaker", 3, _A3, axes, 1e-6)
        assert np.isfinite(v).all() and np.isfinite(err).all()
        return
    with pytest.raises(ValueError, match=refusal):
        _evaluate("whittaker", 3, _A3, axes, 1e-6)


def test_eigen_lattice_is_one_node_sum_per_difference(monkeypatch):
    # the refinement 40:0.05 of the 20:0.1 grid at N = 3 has 79 differences
    # x_k - x_(k+1) per level on its lattice, and they are distinct
    seen = []

    def counting(top, which, offsets, half_width, M, us, vs=None):
        seen.append((len(us), len(vs)))
        return node_sums(top, which, offsets, half_width, M, us, vs)

    node_sums = mb._node_sums
    monkeypatch.setattr(mb, "_node_sums", counting)
    rep = check_eigen(3, [0.9, 0.1, -0.6], GridSpec(20, 0.1), tol=1e-2,
                      refine=True)
    assert rep.status == "PASS"
    assert seen == [(79, 79)]


def _counting_kernel_and_sums(monkeypatch):
    """Counts of `_kernel` builds, `_node_sums` calls and node sums drawn
    (the full sums, then the stride-2 ones of the error estimate)."""
    counts = {"kernel": 0, "node_sums": 0, "drawn": 0}
    kernel, node_sums = mb._kernel, mb._node_sums

    def counting_kernel(*args):
        counts["kernel"] += 1
        return kernel(*args)

    def counting_sums(*args):
        counts["node_sums"] += 1
        for sums in node_sums(*args):
            counts["drawn"] += 1
            yield sums

    monkeypatch.setattr(mb, "_kernel", counting_kernel)
    monkeypatch.setattr(mb, "_node_sums", counting_sums)
    return counts


@pytest.mark.parametrize("N, alpha, grid", [
    (2, [0.6, -0.6], GridSpec(24, 0.08)),
    (3, [0.9, 0.1, -0.6], GridSpec(20, 0.1)),
])
def test_refined_eigen_check_is_one_kernel_and_one_node_sum(monkeypatch, N,
                                                            alpha, grid):
    counts = _counting_kernel_and_sums(monkeypatch)
    check_eigen(N, alpha, grid, tol=1e-2, refine=True)
    assert counts == {"kernel": 1, "node_sums": 1, "drawn": 1}


def test_ode_comparison_is_one_kernel_and_one_node_sum(monkeypatch):
    counts = _counting_kernel_and_sums(monkeypatch)
    whittaker_vs_ode_ratio([0.8, -0.4], np.linspace(-4.0, 1.5, 12))
    assert counts == {"kernel": 1, "node_sums": 1, "drawn": 1}


def test_only_a_read_error_estimate_draws_the_stride_2_sums(monkeypatch):
    counts = _counting_kernel_and_sums(monkeypatch)
    whittaker_on_grid(3, [0.8, 0.0, -0.5], [np.linspace(-0.2, 0.2, 3)] * 3)
    assert counts == {"kernel": 1, "node_sums": 1, "drawn": 1}
    whittaker_eval(3, [0.8, 0.0, -0.5], [0.1, 0.0, -0.1])
    assert counts == {"kernel": 2, "node_sums": 2, "drawn": 3}


def _node_sums_on_sliced_nodes(top, which, offsets, half_width, M, us, vs=None):
    """`_node_sums` with each sum's phases built from its own (sliced) nodes:
    the reference for one phase matrix per level."""
    t, wtop, diag = mb._kernel(top, which, offsets, half_width, M)
    dt = t[1] - t[0]
    a = t + 1j * offsets[0]
    if vs is not None:
        b = t + 1j * offsets[1]
        ep, em = np.exp(np.pi * t), np.exp(-np.pi * t)
        rank4 = np.stack([t * ep, em, ep, t * em], axis=1)
    for sl, fac in ((slice(None), 1.0), (slice(0, M, 2), 2.0)):
        phase_a = np.exp(np.multiply.outer(us, 1j * a[sl]))
        if vs is None:
            yield (phase_a @ wtop[sl]) * (dt * fac) / mb.TWO_PI
            continue
        phase_b = np.exp(np.multiply.outer(1j * b[sl], vs))
        w = wtop[sl, None] * phase_b
        weights = (rank4[sl, :, None] * w[:, None, :]).reshape(len(w), -1)
        m = len(w)
        rows = mb._toeplitz_rows(diag if fac == 1.0 else
                                 np.ascontiguousarray(diag[(M - 1) % 2::2]))
        P = mb._toeplitz_product(rows, weights).reshape(m, 4, len(vs))
        pairs = (P[:, 0] * P[:, 1] - P[:, 2] * P[:, 3]) / np.pi
        yield (phase_a @ pairs) * (dt * fac) ** 3 / mb.TWO_PI ** 3


_A2, _A3 = [0.8, -0.3], [0.9, 0.1, -0.6]


def _node_sums_and_reference(monkeypatch, evaluate):
    """The node sums of the one `_node_sums` call that `evaluate` makes, and
    `_node_sums_on_sliced_nodes` on the same arguments."""
    calls = []
    node_sums = mb._node_sums

    def recording(*args):
        calls.append(args)
        return node_sums(*args)

    monkeypatch.setattr(mb, "_node_sums", recording)
    evaluate()
    assert len(calls) == 1
    return list(node_sums(*calls[0])), list(_node_sums_on_sliced_nodes(*calls[0]))


@pytest.mark.parametrize("evaluate", [
    lambda: whittaker_eval(2, _A2, [0.4, -0.6]),
    lambda: spherical_eval(2, _A2, [0.4, -0.6]),
    lambda: whittaker_eval(3, _A3, [0.5, 0.0, -0.5]),
    lambda: whittaker_recursive(3, _A3, [0.5, 0.0, -0.5], tol=1e-8),
    lambda: spherical_eval(3, _A3, [0.5, 0.0, -0.5]),
], ids=["n2-point", "n2-spherical", "n3-point", "n3-recursive", "n3-spherical"])
def test_one_phase_matrix_per_level_leaves_both_node_sums_bit_for_bit(
        monkeypatch, evaluate):
    # a point's phases are one exp per entry and its contraction one block:
    # both sums are the bytes of phases built on their own nodes
    got, want = _node_sums_and_reference(monkeypatch, evaluate)
    assert [s.tobytes() for s in got] == [s.tobytes() for s in want]


@pytest.mark.parametrize("evaluate", [
    *(lambda axis=axis: grid_scan(2, _A2, axis, -1.0, 1.5, 61,
                                  tol=1e-8) for axis in range(2)),
    *(lambda axis=axis: grid_scan(3, _A3, axis, -1.0, 1.5, 61,
                                  x_base=[0.3, -0.1, -0.4]) for axis in range(3)),
    lambda: check_eigen(3, _A3, GridSpec(20, 0.1), tol=1e-2, refine=True),
], ids=["n2-sweep-x1", "n2-sweep-x2", "n3-sweep-x1", "n3-sweep-x2",
        "n3-sweep-x3", "n3-refined-eigen"])
def test_factorised_phases_move_multi_row_node_sums_by_rounding_only(
        monkeypatch, evaluate):
    got, want = _node_sums_and_reference(monkeypatch, evaluate)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))


@pytest.mark.parametrize("M", [64, 131, 188, 280, 389])
@pytest.mark.parametrize("rows", [2, 61, 127])
def test_phase_is_the_exponential_entry_by_entry(rows, M):
    # coarse[q] fine[r] is the phase at node K q + r, and (q, r) over the
    # factors' Q x K rows reach every node once; K is even, so coarse and
    # fine's even rows, in the same order, are the stride-2 nodes' phases
    rng = np.random.default_rng(1000 * rows + M)
    c = np.concatenate([[-8.0, 8.0], rng.uniform(-8.0, 8.0, rows - 2)])
    for T in (1.5, 6.0, 12.1):
        t = np.linspace(-T, T, M)
        for h in (0.0, 0.5, 1.0):
            want = np.exp(np.multiply.outer(c, 1j * (t + 1j * h)))
            coarse, fine = mb._phase(c, t, h)
            (Q, n), (K, nf) = coarse.shape, fine.shape
            assert n == nf == rows and K % 2 == 0
            node = np.add.outer(K * np.arange(Q), np.arange(K)).ravel()
            assert np.array_equal(np.sort(node[node < M]), np.arange(M))
            assert (Q - 1) * K < M           # no coarse row lies wholly past t_{M-1}
            q, r = np.divmod(np.arange(M), K)
            # the reference's own rounding of c t is about eps |c| T
            bound = 8.0 * np.finfo(float).eps * (1.0 + np.abs(c)[:, None] * T)
            for got, ref in (((coarse[q] * fine[r]).T, want),
                             ((coarse[:, None] * fine[::2]).reshape(-1, rows)
                              [:(M + 1) // 2].T, want[:, ::2])):
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= bound * np.abs(ref))


@pytest.mark.parametrize("M", [12, 64, 280])
def test_toeplitz_window_is_the_gathered_matrix(M):
    # the kernel's diagonal, read through the row view and through the
    # blocked product with the identity, is the gathered Toeplitz matrix; so
    # is every other row and column of the view, the stride-2 sum's A, for
    # every other diagonal.  Both share the diagonal's memory (no M x M
    # copy) and are read-only, because their rows overlap.  The spherical
    # diagonal is real, and so are its view and its product with the real
    # identity
    for which, offsets, dtype in (("whittaker", (1.0, 0.5, 0.0), complex),
                                  ("spherical", (0.0, 0.0, 0.0), float)):
        _, _, diag = mb._kernel(_A3, which, offsets, 6.0, M)
        rows = mb._toeplitz_rows(diag)
        for d, view in ((diag, rows), (diag[(M - 1) % 2::2], rows[::2, ::2])):
            m = (len(d) + 1) // 2
            gathered = d[np.subtract.outer(np.arange(m), np.arange(m)) + (m - 1)]
            assert view.dtype == dtype and np.array_equal(view, gathered)
            assert np.shares_memory(view, diag) and not view.flags.writeable
            A = mb._toeplitz_product(view, np.eye(m))
            assert A.dtype == dtype
            assert A.flags.c_contiguous and np.array_equal(A, gathered)


def test_kernel_nodes_are_linspace_bit_for_bit():
    # arange times the step, less T, with the last node pinned to T: without
    # the pin t[-1] misses T by a rounding on some of these 256 cases
    for amax, tol, N in itertools.product(
            [0.0, 0.3, 1.0, 2.5, 4.0, 7.7, 12.0, 30.0],
            [1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14], (2, 3)):
        top = [amax] + [0.0] * (N - 1)
        c = default_contour(N, top, tol)
        T = c.half_width
        for M in (c.nodes_per_dim, (c.nodes_per_dim + 1) // 2):
            t = mb._kernel(top, "whittaker", c.offsets, T, M)[0]
            assert t.tobytes() == np.linspace(-T, T, M).tobytes()
            assert t[0] == -T and t[-1] == T


def _toeplitz_cases():
    """(rows, x, gathered A @ x) at nine sizes n from 1 to 389, the edges of
    48-row blocks included, and 1, 4 and 64 columns, on a full diagonal's
    view and on every other row and column of it, the stride-2 one's.  A
    complex diagonal, then its real part: a real A's reference is the one
    real GEMM of the gathered A on x as float pairs."""
    rng = np.random.default_rng(33)
    for n, cols in itertools.product([1, 2, 12, 47, 48, 49, 97, 280, 389],
                                     (1, 4, 64)):
        full = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
        for full in (full, full.real.copy()):
            view = mb._toeplitz_rows(full)
            for diag, rows in ((full, view), (full[(n - 1) % 2::2], view[::2, ::2])):
                m = (len(diag) + 1) // 2
                x = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
                A = diag[np.subtract.outer(np.arange(m), np.arange(m)) + m - 1]
                yield rows, x, (A @ x if A.dtype == complex
                                else (A @ x.view(float)).view(complex))


def test_toeplitz_product_is_the_gathered_product():
    # at the default BLAS thread count a row block and the whole product may
    # split their sums apart, so in process it is within rounding
    for rows, x, want in _toeplitz_cases():
        got = mb._toeplitz_product(rows, x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= (
            1e-15 * np.max(np.abs(want)))


def test_toeplitz_product_is_the_gathered_product_bit_for_bit_at_one_thread():
    # at one OpenBLAS thread complex row blocks give the bytes of the whole
    # product, which keeps every Whittaker point value's bytes.  A real A's
    # blocks need not: OpenBLAS takes another dgemm kernel for some block
    # shapes (5 of the 54 real cases here round apart, within 1e-15 of the
    # largest entry), so the spherical values keep their own bytes
    probe = _fresh_python("-c", "import itertools\nimport numpy as np\n"
                          "import quantoda.mellin_barnes as mb\n"
                          + inspect.getsource(_toeplitz_cases) + """
print(sum(mb._toeplitz_product(rows, x).tobytes() != want.tobytes()
          for rows, x, want in _toeplitz_cases() if rows.dtype == complex))
""", OPENBLAS_NUM_THREADS="1")
    assert (probe.returncode, probe.stdout) == (0, "0\n"), probe.stderr


@pytest.mark.parametrize("evaluate, mib", [
    (lambda: check_eigen(3, _A3, GridSpec(20, 0.1), tol=1e-2, refine=True), 4),
    (lambda: grid_scan(3, _A3, 1, -1.0, 1.5, 61,
                       x_base=[0.3, -0.1, -0.4], tol=1e-8), 4),
    (lambda: whittaker_eval(3, _A3, [0.5, 0.0, -0.5], tol=1e-10), 3),
], ids=["n3-refined-eigen", "n3-sweep-x2", "n3-point"])
def test_n3_contraction_temporaries_stay_below_the_whole_arrays(evaluate, mib):
    # blocks of V_BLOCK columns of v: no (M, 4 nv) weights or product, and
    # no M x M index array behind the Toeplitz matrix
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20


@pytest.mark.parametrize("evaluate", [
    lambda: check_eigen(3, _A3, GridSpec(20, 0.1), tol=1e-2, refine=True),
    lambda: grid_scan(3, _A3, 1, -1.0, 1.5, 61,
                      x_base=[0.3, -0.1, -0.4], tol=1e-8),
], ids=["n3-refined-eigen", "n3-sweep-x2"])
def test_n3_sums_of_several_v_blocks_build_no_toeplitz_matrix(evaluate):
    # every v-block multiplies by A in row blocks, as a point's one block
    # does; with a whole copy of A (M = 184 and 275 here) the peaks read
    # 3.2 and 3.0 MiB
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


@pytest.mark.parametrize("evaluate, mib", [
    (lambda: grid_scan(2, _A2, 0, -3.0, 3.0, 20_000, tol=1e-8), 32),
    (lambda: check_eigen(2, _A2, GridSpec(32, 0.05), refine=True), 0.3),
    (lambda: grid_scan(3, _A3, 0, -1.0, 1.5, 2000, x_base=[0.3, -0.1, -0.4],
                       tol=1e-8), 4),
], ids=["n2-sweep-20000", "n2-refined-eigen", "n3-sweep-x1-2000"])
def test_multi_row_phases_stay_factored(evaluate, mib):
    # the phases of a difference with many values are contracted as their
    # coarse and fine factors: with the (n x M) phase matrix and its
    # stride-2 copy the peaks read 125, 0.86 and 13 MiB
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mib * 2 ** 20


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_factored_n2_sweep_is_the_bessel_k_closed_form(tol):
    # 61 values of x1 - x2 in [-3, 3]: the level-1 sum contracts the phase
    # factors (measured worst error 0.0018 tol of the value's size)
    cols = _value_table(*grid_scan(2, _A2, 0, -3.4, 2.6, 61, x_base=[0.0, -0.4], tol=tol))
    got = np.array(cols["re"]) + 1j * np.array(cols["im"])
    want = np.array([_bessel_k_n2(_A2, x) for x in zip(cols["x1"], cols["x2"])])
    assert np.all(np.abs(got - want) <= tol * np.abs(want))


@pytest.mark.parametrize("evaluate", [
    lambda: whittaker_eval(3, _A3, [0.5, 0.0, -0.5], tol=1e-10),
    lambda: whittaker_recursive(3, _A3, [0.5, 0.0, -0.5], tol=1e-10),
    lambda: spherical_eval(3, _A3, [0.5, 0.0, -0.5], tol=1e-10),
], ids=["direct", "recursive", "spherical"])
def test_n3_point_builds_no_toeplitz_matrix(evaluate):
    # a point's one v-block multiplies by A in row blocks of its 2M - 1
    # values: at M = 383 the whole A would be 2.2 MiB
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("route", ["direct", "recursive", "spherical", "grid"])
@pytest.mark.parametrize("n, alpha, x", [(2, "0.8,-0.3", "0.4,-0.6"),
                                         (3, "0.9,0.1,-0.6", "0.5,0,-0.5")])
def test_every_evaluator_is_one_kernel_and_one_node_sum(monkeypatch, route, n,
                                                        alpha, x):
    argv = {"direct": ["whittaker", "eval", f"--alpha={alpha}", f"--x={x}"],
            "recursive": ["whittaker", "eval", f"--alpha={alpha}", f"--x={x}",
                          "--method=recursive"],
            "spherical": ["spherical", "eval", f"--lambda={alpha}", f"--x={x}"],
            "grid": ["whittaker", "grid", f"--alpha={alpha}", "--axis=0",
                     "--from=-1", "--to=1", "--steps=5"]}[route] + [f"--n={n}"]
    counts = _counting_kernel_and_sums(monkeypatch)
    assert dispatch(argv, out=io.StringIO()) == 0
    assert counts == {"kernel": 1, "node_sums": 1, "drawn": 2}


def test_grid_scan_rows():
    # the sweep is its axes and one record of arrays over them; `cli` makes
    # the columns, one list of Python floats per output key
    axes, res = grid_scan(2, [0.5, -0.5], axis=0,
                          start=-1.0, stop=1.0, steps=5, tol=1e-6)
    assert axes[1] == [0.0] and axes[0].tolist() == np.linspace(-1.0, 1.0, 5).tolist()
    assert res.value.shape == res.error_estimate.shape == (5, 1)
    cols = _value_table(axes, res)
    assert set(cols) == {"x1", "x2", "re", "im", "abs", "error_estimate"}
    assert all(len(c) == 5 and all(type(v) is float for v in c)
               for c in cols.values())
    assert cols["x1"][0] == -1.0 and cols["x1"][-1] == 1.0
    assert cols["x2"][2] == 0.0
    empty = _value_table(*grid_scan(3, [0.5, 0.0, -0.5], axis=1,
                                    start=0.0, stop=1.0, steps=0))
    assert len(empty) == 7 and all(c == [] for c in empty.values())
    with pytest.raises(ValueError):
        grid_scan(2, [0.5, -0.5], axis=2,
                  start=0.0, stop=1.0, steps=2)
    with pytest.raises(ValueError):
        grid_scan(3, [0.5, 0.0, -0.5], axis=2,
                  start=0.0, stop=1.0, steps=2, x_base=[0.0, 0.0])


def test_evaluators_return_one_record():
    # `_evaluate` returns one record of grid arrays, its estimate None when
    # not computed; `whittaker_on_grid` returns its values, and a point
    # evaluator narrows it to a Python complex and float
    axes = [np.linspace(-0.5, 0.5, 3), [0.1], [-0.2]]
    res = _evaluate("whittaker", 3, _A3, axes, 1e-6)
    assert type(res) is QuadratureResult
    assert res.value.shape == res.error_estimate.shape == (3, 1, 1)
    bare = _evaluate("whittaker", 3, _A3, axes, 1e-6, estimate=False)
    assert bare.error_estimate is None and bare.value.tobytes() == res.value.tobytes()
    assert whittaker_on_grid(3, _A3, axes).tobytes() == res.value.tobytes()
    assert _evaluate("whittaker", 1, [0.7], [[1.3]], 1e-6, estimate=False).error_estimate is None
    for point in (whittaker_eval, whittaker_recursive, spherical_eval):
        for n, x in ((1, [1.3]), (3, [0.5, 0.0, -0.5])):
            got = point(n, _A3[:n], x)
            assert type(got) is QuadratureResult
            assert type(got.value) is complex and type(got.error_estimate) is float


@pytest.mark.parametrize("which, params", [
    ("whittaker", [0.7, -0.2]),
    ("whittaker", [0.8, 0.0, -0.5]),
    ("spherical", [0.6, -0.3]),
    ("spherical", [0.6, 0.1, -0.4]),
])
def test_grid_scan_matches_point_evaluator(which, params):
    # one kernel build for the sweep gives each row's point value and
    # error estimate; the spherical sweep is the same grid through `_evaluate`
    N = len(params)
    point = whittaker_eval if which == "whittaker" else spherical_eval
    x_base = [0.3, -0.1, -0.4][:N]
    for axis in range(N):
        if which == "whittaker":
            cols = _value_table(*grid_scan(N, params, axis=axis, start=-0.6, stop=0.9,
                                           steps=4, x_base=x_base, tol=1e-6))
        else:
            axes = [[xk] for xk in x_base]
            axes[axis] = np.linspace(-0.6, 0.9, 4)
            cols = _value_table(axes, _evaluate("spherical", N, params, axes, 1e-6))
        for row in (dict(zip(cols, r)) for r in zip(*cols.values())):
            x = [row[f"x{k+1}"] for k in range(N)]
            pt = point(N, params, x, tol=1e-6)
            value = complex(row["re"], row["im"])
            assert abs(value - pt.value) <= 1e-12 * abs(pt.value)
            assert abs(row["error_estimate"] - pt.error_estimate) \
                <= 1e-12 * abs(pt.value)


def test_spherical_rejects_coincident_parameters():
    with pytest.raises(ContourError):
        spherical_eval(2, [0.3, 0.3], [0.1, -0.1])


def test_length_mismatch_is_a_value_error():
    with pytest.raises(ValueError):
        spherical_eval(2, [0.5, -0.5], [0.0])
    with pytest.raises(ValueError):
        whittaker_eval(3, [0.5, 0.0], [0.1, 0.0, -0.1])
    with pytest.raises(ValueError):
        whittaker_recursive(3, [1.0, 0.0], [0.5, 0.0, -0.5])
    with pytest.raises(ValueError):
        whittaker_recursive(2, [0.5, -0.5], [0.0])
    axes = [np.linspace(-0.2, 0.2, 3)] * 2
    with pytest.raises(ValueError):
        whittaker_on_grid(2, [1.0], axes)
    with pytest.raises(ValueError):
        whittaker_on_grid(3, [0.5, 0.0, -0.5], axes)


@pytest.mark.parametrize("call", [
    lambda: whittaker_eval(2, [0.5, -0.5], [math.inf, 0.0]),
    lambda: spherical_eval(2, [0.5, -0.5], [math.nan, 0.0]),
    lambda: whittaker_eval(2, [math.nan, -0.5], [0.0, 0.0]),
    lambda: whittaker_recursive(3, [0.9, 0.1, -0.6], [0.5, math.inf, -0.5]),
    lambda: whittaker_on_grid(2, [0.5, -0.5], [np.array([0.0, math.nan]),
                                                np.zeros(2)]),
    lambda: whittaker_eval(2, [0.5, -0.5], [0.0, 0.0], tol=0.0),
    lambda: whittaker_eval(2, [0.5, -0.5], [0.0, 0.0], tol=-1.0),
    lambda: whittaker_eval(2, [0.5, -0.5], [0.0, 0.0], tol=math.nan),
    lambda: spherical_eval(2, [0.5, -0.5], [0.0, 0.0], tol=math.inf),
    lambda: whittaker_recursive(2, [0.5, -0.5], [0.0, 0.0], tol=0.0),
    lambda: whittaker_on_grid(2, [0.5, -0.5], [np.zeros(2)] * 2, tol=-1.0),
])
def test_non_finite_input_or_bad_tol_is_a_value_error(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def _gz_vectors(which, lam):
    """w(lam) for the Whittaker kernel, phi(lam) phi(-lam) for the spherical one."""
    if which == "whittaker":
        return whittaker_vector(lam)
    return spherical_vector(lam) * spherical_vector(
        TriangularArray([[-v for v in row] for row in lam.levels]))


def _gz_integrand(which, lam, x):
    """The Mellin-Barnes integrand at the real array lam as the GZ product
    c_N (vectors) mu chi, Whittaker's at lam raised i(N-n)/2 on level n
    (derived in `gz.gz_measure`)."""
    N = lam.N
    c_N = math.prod((-2.0 * math.pi) ** -(n * (n - 1) // 2) for n in range(2, N))
    at = lam
    if which == "whittaker":
        at = TriangularArray([[v + 0.5j * (N - n) for v in row]
                              for n, row in enumerate(lam.levels, 1)])
    else:       # phi(lam) phi(-lam) has no prefactor to cancel the measure's
                # e^{pi(n-1) sum_j lam_nj}
        c_N *= math.exp(-math.pi * sum((n - 1) * lam.level_sum(n) for n in range(1, N)))
    return c_N * _gz_vectors(which, lam) * gz_measure(lam) * cartan_multiplier(x, at)


@pytest.mark.parametrize("which, params", [
    ("whittaker", [0.9, 0.1, -0.6]),
    ("spherical", [0.7, 0.2, -0.4]),
    ("whittaker", [0.8, -0.3]),
    ("spherical", [0.6, -0.3]),
])
def test_node_sum_is_the_plain_sum_of_the_gz_product(monkeypatch, which, params):
    # the contraction against the representation-theory integrand summed
    # over every node, the within-level coincidences included: gz_measure
    # is 0 there
    N = len(params)
    contour = ContourSpec((1.0, 0.5, 0.0)[3 - N:], 4.0, 16)
    monkeypatch.setattr(mb, "default_contour", lambda *args: contour)
    x = [0.5, 0.1, -0.4][:N]
    got = _evaluate(which, N, params, [[xk] for xk in x], 1e-6)[0].item()
    t = np.linspace(-contour.half_width, contour.half_width,
                    contour.nodes_per_dim)
    dims = N * (N - 1) // 2
    total = sum(_gz_integrand(which, TriangularArray([ts[:1], ts[1:3]][:N - 1]
                                                     + [params]), x)
                for ts in itertools.product(t.tolist(), repeat=dims))
    ref = total * ((t[1] - t[0]) / (2.0 * math.pi)) ** dims
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("which", ["whittaker", "spherical"])
def test_kernel_is_the_gz_vectors_node_by_node(which):
    # the kernel, built from O(M) log Gamma values, against the GZ vectors
    # at every node: w[j] at N = 2, and A[i,j1] A[i,j2] w[j1] w[j2] at N = 3,
    # times w's prefactor e^{-pi(t_j1 + t_j2)} for the Whittaker kernel
    for params in ([0.8, -0.3], [0.9, 0.1, -0.6]):
        N = len(params)
        offsets = (1.0, 0.5, 0.0)[3 - N:] if which == "whittaker" else (0.0,) * N
        t, w, diag = mb._kernel(params, which, offsets, 3.0, 12)
        if N == 2:
            got = w
            want = [_gz_vectors(which, TriangularArray([[ti], params])) for ti in t]
        else:
            A = diag[np.subtract.outer(np.arange(12), np.arange(12)) + 11]
            got = np.einsum("ij,ik,j,k->ijk", A, A, w, w)
            if which == "whittaker":
                got = got * np.exp(-np.pi * np.add.outer(t, t))
            want = [[[_gz_vectors(which, TriangularArray([[ti], [t1, t2], params]))
                      for t2 in t] for t1 in t] for ti in t]
        want = np.array(want)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def _complex_spherical_kernel(top, which, offsets, half_width, M):
    """The spherical `_kernel` kept complex: 2 Re log Gamma(1/4 - i d/2)
    from the complex `log_gamma_array`, plus 0j, and complex exponentials,
    so that the Toeplitz products are complex GEMMs."""
    assert which == "spherical" and not any(offsets)
    t = np.linspace(-half_width, half_width, M) + 0j
    d = np.subtract.outer(t, top).ravel()
    if len(offsets) == 3:
        d = np.concatenate([d, mb.difference_lattice(t, t)])
    logs = 2.0 * log_gamma_array(d / 2j + 0.25).real + 0j
    n_top = M * len(top)
    w = np.exp(logs[:n_top].reshape(M, len(top)).sum(axis=1))
    return t.real, w, (np.exp(logs[n_top:]) if len(offsets) == 3 else None)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("lam, x", [([0.6, -0.3], [0.4, -0.6]),
                                    ([0.9, 0.1, -0.6], [0.5, 0.0, -0.5])])
def test_spherical_kernel_is_real_and_its_node_sums_the_complex_ones(
        monkeypatch, lam, x, tol):
    # the spherical weight and Gamma diagonal are float64 (the Whittaker
    # ones complex), and both node sums, the real GEMMs included, equal the
    # sums on the complex kernel to rounding
    N = len(lam)
    args = []
    node_sums = mb._node_sums
    monkeypatch.setattr(mb, "_node_sums", lambda *a: args.append(a) or node_sums(*a))
    spherical_eval(N, lam, x, tol)
    _, w, diag = mb._kernel(*args[0][:5])
    assert w.dtype == np.float64 and (diag is None) == (N == 2)
    assert N == 2 or (diag.dtype == np.float64 and diag.flags.c_contiguous)
    offsets = (1.0, 0.5, 0.0)[3 - N:]
    _, w, diag = mb._kernel(lam, "whittaker", offsets, 3.0, 12)
    assert w.dtype == complex and (N == 2 or diag.dtype == complex)
    got = list(node_sums(*args[0]))
    monkeypatch.setattr(mb, "_kernel", _complex_spherical_kernel)
    want = list(node_sums(*args[0]))
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


def test_recursive_n3_memory_stays_quadratic():
    tracemalloc.start()
    try:
        whittaker_recursive(3, [0.9, 0.1, -0.6], [0.5, 0.0, -0.5], tol=1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def _spherical_n2_reference(lam, x, T):
    # independent adaptive quadrature of the explicit rank-one integrand
    l1, l2 = lam

    def f(t):
        z = (log_gamma((t - l1) / 2j + 0.25) + log_gamma(-(t - l1) / 2j + 0.25)
             + log_gamma((t - l2) / 2j + 0.25) + log_gamma(-(t - l2) / 2j + 0.25))
        return cmath.exp(z + 1j * t * (x[0] - x[1]))

    re, _ = quad(lambda t: f(t).real, -T, T, limit=400)
    im, _ = quad(lambda t: f(t).imag, -T, T, limit=400)
    return (re + 1j * im) / (2.0 * math.pi) * cmath.exp(1j * (l1 + l2) * x[1])


def test_spherical_n2_against_adaptive_quadrature():
    lam, x = [0.6, -0.3], [0.7, -0.4]
    got = spherical_eval(2, lam, x, tol=1e-9)
    ref = _spherical_n2_reference(lam, x, T=30.0)
    assert abs(got.value - ref) < 1e-8 * max(1.0, abs(ref))


def _spherical_at_origin(lam):
    """C_N prod_{j<k} pi / cosh(pi (lam_j - lam_k)/2): the spherical integral
    at x = 0.  At N = 2 this is Barnes' first lemma, C_2 = 2 pi.  C_3 =
    128 pi^3 is measured (13 digits), not derived."""
    out = {2: 2.0 * math.pi, 3: 128.0 * math.pi ** 3}[len(lam)]
    for a, b in itertools.combinations(lam, 2):
        out *= math.pi / math.cosh(math.pi * (a - b) / 2.0)
    return out


@pytest.mark.parametrize("tol", ["1e-6", "1e-8", "1e-10"])
@pytest.mark.parametrize("lam", [(0.5, -0.5), (1.0, -1.0), (0.9, 0.1, -0.6),
                                 (3.0, 0.2, -4.0), (14.0, 0.0, -14.0)])
def test_spherical_eval_at_the_origin_is_the_closed_form(lam, tol):
    # `spherical eval` prints this integral, not Harish-Chandra's phi_lambda
    # with phi_lambda(0) = 1
    out = io.StringIO()
    argv = ["spherical", "eval", f"--n={len(lam)}", f"--lambda={','.join(map(str, lam))}",
            f"--x={','.join(['0'] * len(lam))}", f"--tol={tol}", "--format=json"]
    assert dispatch(argv, out=out) == 0
    row = json.loads(out.getvalue())[0]
    want = _spherical_at_origin(lam)
    assert abs(complex(row["re"], row["im"]) - want) <= 1e-11 * want


def test_error_estimate_is_honest():
    alpha, x = [0.9, -0.4], [0.3, -0.5]
    coarse = whittaker_eval(2, alpha, x, tol=1e-4)
    fine = whittaker_eval(2, alpha, x, tol=1e-10)
    assert abs(coarse.value - fine.value) \
        <= 10.0 * max(coarse.error_estimate, 1e-12)
    assert fine.error_estimate < max(coarse.error_estimate, 1e-12)
    # the distance to the stride-2 value, below each tol here: not |v + v_half|
    assert coarse.error_estimate < 1e-4 and fine.error_estimate < 1e-10
