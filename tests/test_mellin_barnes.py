import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import loggamma

from quantoda.gz import TriangularArray
from quantoda.mellin_barnes import (ContourError, ContourSpec, DimensionError,
                                    _evaluate, _within_level, default_contour,
                                    grid_scan, mb_integrand, spherical_eval,
                                    whittaker_eval, whittaker_on_grid,
                                    whittaker_recursive)
from quantoda.specfun import gamma, log_gamma


def test_n1_is_plane_wave():
    res = whittaker_eval(1, [0.7], [1.3])
    assert res.error_estimate == 0.0
    assert abs(res.value - cmath.exp(1j * 0.7 * 1.3)) < 1e-15


def test_integrand_n2_explicit():
    lam, a1, a2 = 0.4 + 0.5j, 0.9, -0.3
    arr = TriangularArray([[lam], [a1, a2]])
    x = [0.6, -0.2]
    expect = (gamma(-1j * (lam - a1)) * gamma(-1j * (lam - a2))
              * cmath.exp(1j * lam * x[0])
              * cmath.exp(1j * (a1 + a2 - lam) * x[1]))
    got = mb_integrand(arr, x, "whittaker")
    assert abs(got - expect) < 1e-13 * abs(expect)
    with pytest.raises(ValueError):
        mb_integrand(arr, x, "nope")


def test_contour_level_count_must_match_n():
    two_levels = ContourSpec((0.5, 0.0), 5.0, 64)
    with pytest.raises(ContourError):
        whittaker_eval(3, [0.5, 0.0, -0.5], [0.1, 0.0, -0.1], contour=two_levels)
    with pytest.raises(ContourError):
        whittaker_on_grid(3, [0.5, 0.0, -0.5], [np.zeros(2)] * 3,
                          contour=two_levels)
    with pytest.raises(ContourError):
        whittaker_eval(1, [0.5], [0.1], contour=two_levels)
    with pytest.raises(ContourError):
        whittaker_on_grid(1, [0.5], [np.zeros(2)], contour=two_levels)


def test_contour_spec_validation():
    ContourSpec((0.5, 0.0), 5.0, 64)
    with pytest.raises(ContourError):
        ContourSpec((0.0, 0.5), 5.0, 64)  # not decreasing
    with pytest.raises(ContourError):
        ContourSpec((0.5, 0.1), 5.0, 64)  # last offset nonzero
    with pytest.raises(ContourError):
        ContourSpec((0.5, 0.0), -1.0, 64)
    with pytest.raises(ContourError):
        ContourSpec((0.5, 0.0), 5.0, 1)


def test_default_contour_offsets():
    c = default_contour(3, [0.5, 0.0, -0.5], 1e-8)
    assert c.offsets == (1.0, 0.5, 0.0)
    tighter = default_contour(3, [0.5, 0.0, -0.5], 1e-12)
    assert tighter.half_width > c.half_width
    assert tighter.nodes_per_dim > c.nodes_per_dim


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


def test_weyl_symmetry_in_alpha():
    x = [0.3, -0.1, -0.4]
    base = whittaker_eval(3, [1.1, 0.2, -0.7], x, tol=1e-8)
    for perm in ([0.2, 1.1, -0.7], [-0.7, 0.2, 1.1]):
        other = whittaker_eval(3, perm, x, tol=1e-8)
        tol = 10.0 * max(base.error_estimate, other.error_estimate, 1e-12)
        assert abs(base.value - other.value) < tol


def test_contour_shift_independence():
    alpha, x = [0.6, -0.4], [0.8, -0.2]
    ref = None
    for h in (0.3, 0.5, 0.9):
        base = default_contour(2, alpha, 1e-9)
        c = ContourSpec((h, 0.0), base.half_width, base.nodes_per_dim)
        v = whittaker_eval(2, alpha, x, contour=c).value
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


def test_grid_scan_rows():
    rows = grid_scan("whittaker", 2, [0.5, -0.5], axis=0,
                     start=-1.0, stop=1.0, steps=5, tol=1e-6)
    assert len(rows) == 5
    assert set(rows[0]) == {"x1", "x2", "re", "im", "abs", "error_estimate"}
    assert rows[0]["x1"] == -1.0 and rows[-1]["x1"] == 1.0
    assert rows[2]["x2"] == 0.0
    assert grid_scan("whittaker", 3, [0.5, 0.0, -0.5], axis=1,
                     start=0.0, stop=1.0, steps=0) == []
    with pytest.raises(ValueError):
        grid_scan("whittaker", 2, [0.5, -0.5], axis=2,
                  start=0.0, stop=1.0, steps=2)
    with pytest.raises(ValueError):
        grid_scan("bogus", 2, [0.5, -0.5], axis=0,
                  start=0.0, stop=1.0, steps=2)
    with pytest.raises(ValueError):
        grid_scan("whittaker", 3, [0.5, 0.0, -0.5], axis=2,
                  start=0.0, stop=1.0, steps=2, x_base=[0.0, 0.0])


@pytest.mark.parametrize("which, params", [
    ("whittaker", [0.7, -0.2]),
    ("whittaker", [0.8, 0.0, -0.5]),
    ("spherical", [0.6, -0.3]),
    ("spherical", [0.6, 0.1, -0.4]),
])
def test_grid_scan_matches_point_evaluator(which, params):
    # one kernel build for the sweep gives each row's point value and
    # error estimate
    N = len(params)
    point = whittaker_eval if which == "whittaker" else spherical_eval
    x_base = [0.3, -0.1, -0.4][:N]
    for axis in range(N):
        rows = grid_scan(which, N, params, axis=axis, start=-0.6, stop=0.9,
                         steps=4, x_base=x_base, tol=1e-6)
        for row in rows:
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


def test_within_level_closed_form():
    # 1/(Gamma(-i d) Gamma(i d)) on a real difference d, from log-Gamma;
    # at d = 0 the Gamma poles make it 0
    d = np.linspace(-20.0, 20.0, 4001)
    d = d[d != 0.0]
    ref = np.exp(-(loggamma(-1j * d) + loggamma(1j * d)))
    assert np.all(np.abs(_within_level(d) - ref) <= 1e-12 * np.abs(ref))
    assert _within_level(np.zeros(1)).tolist() == [0.0]


@pytest.mark.parametrize("which, params", [
    ("whittaker", [0.9, 0.1, -0.6]),
    ("spherical", [0.7, 0.2, -0.4]),
])
def test_n3_node_sum_is_the_plain_triple_sum(which, params):
    # the contraction against the integrand summed node by node, with the
    # within-level coincidences b1 = b2 (where the kernel vanishes) left out
    contour = ContourSpec((1.0, 0.5, 0.0), 4.0, 16)
    x = [0.5, 0.1, -0.4]
    got = _evaluate(which, 3, params, [x], 1e-6, contour)[0].value
    h1, h2 = contour.offsets[:2] if which == "whittaker" else (0.0, 0.0)
    t = np.linspace(-contour.half_width, contour.half_width,
                    contour.nodes_per_dim)
    total = 0.0
    for ta in t:
        for i1, t1 in enumerate(t):
            for i2, t2 in enumerate(t):
                if i1 != i2:
                    arr = TriangularArray([[ta + 1j * h1],
                                           [t1 + 1j * h2, t2 + 1j * h2],
                                           params])
                    total += mb_integrand(arr, x, which)
    ref = total * ((t[1] - t[0]) / (2.0 * math.pi)) ** 3
    assert abs(got - ref) <= 1e-12 * abs(ref)


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


def test_error_estimate_is_honest():
    alpha, x = [0.9, -0.4], [0.3, -0.5]
    coarse = whittaker_eval(2, alpha, x, tol=1e-4)
    fine = whittaker_eval(2, alpha, x, tol=1e-10)
    assert abs(coarse.value - fine.value) \
        <= 10.0 * max(coarse.error_estimate, 1e-12)
    assert fine.error_estimate < max(coarse.error_estimate, 1e-12)
