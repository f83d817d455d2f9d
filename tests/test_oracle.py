import cmath
import math
import tracemalloc

import mpmath

import numpy as np
import pytest

from quantoda import oracle
from quantoda.mellin_barnes import whittaker_eval, whittaker_on_grid
from quantoda.oracle import (BOUNDARY_MARGIN, GridSpec, bessel_oracle_n2,
                             check_eigen, eigenvalue_from_alpha, givental,
                             max_grid_span, toda_apply, whittaker_vs_ode_ratio)


def test_eigenvalue_examples():
    assert eigenvalue_from_alpha([1.0, -1.0]) == 1.0
    assert eigenvalue_from_alpha([0.0, 0.0, 0.0]) == 0.0
    a = [0.7, -0.2, 0.4]
    assert abs(eigenvalue_from_alpha(a) - 0.5 * sum(v * v for v in a)) < 1e-15
    # symmetric in the entries
    assert eigenvalue_from_alpha([0.3, -0.9]) == eigenvalue_from_alpha([-0.9, 0.3])


def test_grid_spec_axes():
    assert np.allclose(GridSpec(5, 0.1).axis, [-0.2, -0.1, 0.0, 0.1, 0.2])


def test_toda_apply_constant_gives_potential():
    axes = [GridSpec(9, 0.2).axis] * 2
    ones = np.ones((9, 9), dtype=complex)
    out = toda_apply(axes, ones)
    sl = (slice(BOUNDARY_MARGIN, -BOUNDARY_MARGIN),) * 2
    expect = np.exp(np.subtract.outer(-axes[0], -axes[1]))[sl]
    assert np.allclose(out[sl], expect)
    # margins are invalidated
    assert np.isnan(out[0, 0]) and np.isnan(out[-1, 4])


def test_toda_apply_n1_plane_wave():
    x = [GridSpec(41, 0.05).axis]
    k = 1.3
    psi = np.exp(1j * k * x[0])
    out = toda_apply(x, psi)
    sl = slice(BOUNDARY_MARGIN, -BOUNDARY_MARGIN)
    # second-order stencil: -psi'' = k^2 psi up to O(h^2)
    assert np.allclose(out[sl], k * k * psi[sl], rtol=1e-3)


@pytest.mark.parametrize("shape, spacings", [
    ((11,), (0.07,)),
    ((7, 10), (0.1, 0.06)),
    ((6, 9, 8), (0.11, 0.05, 0.08)),
    ((4, 9), (0.1, 0.2)),            # no interior along x1
])
def test_toda_apply_sets_the_margins_to_nan(shape, spacings):
    rng = np.random.default_rng(len(shape) + sum(shape))
    axes = [0.3 * k - 0.2 + h * np.arange(n)
            for k, (n, h) in enumerate(zip(shape, spacings))]
    out = toda_apply(axes, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    inner = tuple(slice(BOUNDARY_MARGIN, n - BOUNDARY_MARGIN) for n in shape)
    margins = np.ones(shape, dtype=bool)
    margins[inner] = False
    assert np.isnan(out[margins]).all() and np.isfinite(out[inner]).all()
    assert out[inner].size == np.prod([max(n - 2 * BOUNDARY_MARGIN, 0) for n in shape])


def test_bessel_oracle_decay_and_oscillation():
    r = np.linspace(-6.0, 2.0, 81)
    alpha = [1.0, -1.0]
    phi = bessel_oracle_n2(alpha, r)
    # decays under the barrier on the right
    right = phi[r > 1.0]
    assert all(abs(v) > 0 for v in right)
    assert abs(phi[-1]) < abs(phi[r > 0.5][0])
    # oscillates on the far left with wavenumber sqrt(E): count sign changes
    left = phi[r < -3.0]
    changes = int(np.sum(np.abs(np.diff(np.sign(left))) > 0))
    E = ((alpha[0] - alpha[1]) / 2.0) ** 2
    span = (-3.0) - r.min()
    expect = math.sqrt(E) * span / math.pi
    assert abs(changes - expect) <= 1.5


@pytest.mark.parametrize("alpha", [(0.5, -0.5), (1.3, 0.2)])
def test_bessel_oracle_is_the_bessel_k_function(alpha):
    # phi(r) = K_{i(a1 - a2)}(2 e^{r/2}), the decaying solution in the
    # normalisation of its starting series `_k_series` (1.2e-9 measured)
    r = np.linspace(-5.0, 2.0, 50)
    want = np.array([float(mpmath.besselk(1j * (alpha[0] - alpha[1]),
                                          2.0 * mpmath.exp(v / 2.0)).real) for v in r])
    assert np.max(np.abs(bessel_oracle_n2(alpha, r) - want)) <= 1e-8 * np.max(np.abs(want))


def test_whittaker_matches_ode_solution():
    r = np.linspace(-4.0, 1.5, 12)
    rep = whittaker_vs_ode_ratio([0.8, -0.4], r)
    assert rep.passed
    assert rep.residual < 1e-5


def test_ode_comparison_on_a_non_uniform_grid():
    # the ODE values came wrapped in a uniform-grid type, which refused
    # this grid after the ODE was solved
    assert bessel_oracle_n2([0.5, -0.5], [0.0, 0.1, 0.3]).shape == (3,)
    rep = whittaker_vs_ode_ratio([0.5, -0.5], [-2.0, -1.7, -0.9, 0.0, 0.1, 0.3])
    assert rep.passed and rep.residual <= 1e-5


@pytest.mark.parametrize("r", [[0.2], []], ids=["one-point", "empty"])
def test_ode_oracle_needs_two_grid_points(r):
    with pytest.raises(ValueError, match="two grid points"):
        bessel_oracle_n2([0.5, -0.5], r)


def test_ode_comparison_grid_times_carrier_is_the_point_value():
    # psi(r/2, -r/2) = e^{-i sigma r/2} psi(r, 0): the one grid (r, 0)
    alpha, r = [0.8, -0.4], np.linspace(-4.0, 1.5, 12)
    grid = whittaker_on_grid(2, alpha, [r, [0.0]], tol=oracle.QUAD_TOL)[:, 0]
    got = grid * np.exp(-0.5j * sum(alpha) * r)
    for g, rv in zip(got, r.tolist()):
        want = whittaker_eval(2, alpha, [rv / 2.0, -rv / 2.0],
                              tol=oracle.QUAD_TOL).value
        assert abs(g - want) <= 1e-13 * abs(want)


def test_check_eigen_n2_with_refinement():
    rep = check_eigen(2, [0.6, -0.6], GridSpec(24, 0.08), tol=3e-3,
                      refine=True)
    assert rep.passed
    assert "refinement ratio" in rep.witness


def test_check_eigen_rejects_a_grid_that_would_overflow(monkeypatch):
    assert max_grid_span(1) == math.inf
    assert max_grid_span(2) == 700.0
    assert abs(max_grid_span(3) - (350.0 - math.log(2.0))) < 1e-12

    def evaluate(*args):
        raise AssertionError("evaluated a grid above the bound")

    monkeypatch.setattr(oracle, "whittaker_on_grid", evaluate)
    for N, grid, refine in ((2, GridSpec(5, 1000.0), False),
                            (2, GridSpec(5, 170.0), True),     # coarse 680, fine 765
                            (3, GridSpec(5, 100.0), False),
                            (3, GridSpec(64, 6.0), False)):
        with pytest.raises(ValueError, match="overflows"):
            check_eigen(N, [0.5, -0.5, 0.1][:N], grid, refine=refine)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("points", [1, 2, 3, 4])
@pytest.mark.parametrize("refine", [False, True])
def test_check_eigen_refuses_a_grid_with_no_interior_node(monkeypatch, N, points, refine):
    # the interior norms were 0/0, reported as a residual overflowing a double
    def evaluate(*args):
        raise AssertionError("evaluated a grid with no interior node")

    monkeypatch.setattr(oracle, "whittaker_on_grid", evaluate)
    with pytest.raises(ValueError, match=f"^{points} points: a grid needs "
                                         f"{2 * BOUNDARY_MARGIN + 1} for an interior node$"):
        check_eigen(N, [0.5, -0.5, 0.1][:N], GridSpec(points, 0.1), refine=refine)


def test_check_eigen_reports_a_residual_whose_square_overflows():
    # |H psi - E psi| = 1e200 per node: its square, not its norm, is past
    # the largest double; an infinite E still raises
    rep = check_eigen(1, [1e100], GridSpec(5, 0.1))
    assert rep.status == "FAIL" and rep.residual == pytest.approx(1e200, rel=1e-12)
    with pytest.raises(ValueError, match="overflows a double"):
        check_eigen(1, [1e300], GridSpec(5, 0.1))


def _check_eigen_on_grids(N, alpha, grid, tol=1e-3, refine=False):
    """The eigen check on the cube grids themselves: both grids evaluated
    node by node, at the quadrature tol of the finest spacing, `toda_apply`,
    and norms over the nodes it leaves finite."""
    fine = GridSpec(2 * grid.points, grid.spacing / 2.0)
    grids = [[g.axis] * N for g in ((grid, fine) if refine else (grid,))]
    quad_tol = oracle.lattice_tol(fine.spacing if refine else grid.spacing)
    energy = 2.0 * oracle.eigenvalue_from_alpha(alpha)
    residuals = []
    for axes in grids:
        psi = oracle.whittaker_on_grid(
            N, alpha, [-a + (k + 1) * oracle.LN2 for k, a in enumerate(axes)],
            quad_tol)
        Hpsi = toda_apply(axes, psi)
        inner = ~np.isnan(Hpsi)
        resid = Hpsi[inner] - energy * psi[inner]
        residuals.append(float(np.linalg.norm(resid) / np.linalg.norm(psi[inner])))
    status = "PASS" if residuals[0] <= tol else "FAIL"
    witness = None
    if refine:
        ratio = residuals[0] / residuals[1]
        witness = f"refinement ratio {ratio:.3f}"
        if not 3.5 <= ratio <= 4.5:
            status = "FAIL"
    return residuals[0], status, witness


_ALPHAS = {1: [0.9], 2: [0.6, -0.6], 3: [0.9, 0.1, -0.6]}


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("N, grid", [
    (1, GridSpec(9, 0.1)), (1, GridSpec(10, 0.1)),
    (2, GridSpec(16, 0.08)), (2, GridSpec(15, 0.08)),
    (3, GridSpec(12, 0.1)), (3, GridSpec(11, 0.1)),
    (2, GridSpec(5, 0.1)),                      # one interior node
    (3, GridSpec(5, 0.1)),
])
def test_lattice_residual_is_the_residual_on_the_cube_grid(N, grid, refine):
    rep = check_eigen(N, _ALPHAS[N], grid, tol=1e-2, refine=refine)
    residual, status, witness = _check_eigen_on_grids(N, _ALPHAS[N], grid,
                                                      tol=1e-2, refine=refine)
    assert abs(rep.residual - residual) <= 1e-8 * residual
    assert (rep.status, rep.witness) == (status, witness)


def _wrong_momentum(monkeypatch):
    evaluate = oracle.whittaker_on_grid

    def shifted(N, alpha, axes, *args):
        return evaluate(N, alpha, axes, *args) * np.exp(0.5j * axes[-1])

    monkeypatch.setattr(oracle, "whittaker_on_grid", shifted)


def _wrong_eigenvalue(monkeypatch):
    eigenvalue = oracle.eigenvalue_from_alpha
    monkeypatch.setattr(oracle, "eigenvalue_from_alpha",
                        lambda alpha: 1.05 * eigenvalue(alpha))


@pytest.mark.parametrize("inject", [_wrong_momentum, _wrong_eigenvalue])
@pytest.mark.parametrize("N, grid", [(2, GridSpec(16, 0.08)),
                                     (3, GridSpec(12, 0.1))])
def test_eigen_check_fails_a_wrong_wave_function(monkeypatch, N, grid, inject):
    assert check_eigen(N, _ALPHAS[N], grid, tol=1e-2).status == "PASS"
    inject(monkeypatch)
    assert check_eigen(N, _ALPHAS[N], grid, tol=1e-2).status == "FAIL"
    assert _check_eigen_on_grids(N, _ALPHAS[N], grid, tol=1e-2)[1] == "FAIL"


def test_refined_eigen_check_with_zero_residuals_has_no_ratio():
    # the plane wave of alpha = 0 is a constant: every stencil sum is 0
    rep = check_eigen(1, [0.0], GridSpec(5, 0.1), refine=True)
    assert (rep.status, rep.residual) == ("PASS", 0.0)
    assert rep.witness == "refinement ratio undefined: the halved grid's residual is 0"


def _evaluations(monkeypatch):
    """The (tol, axes, values) of every `whittaker_on_grid` call of oracle."""
    calls = []
    evaluate = oracle.whittaker_on_grid

    def recording(N, alpha, axes, tol):
        values = evaluate(N, alpha, axes, tol)
        calls.append((tol, axes, values))
        return values

    monkeypatch.setattr(oracle, "whittaker_on_grid", recording)
    return calls


@pytest.mark.parametrize("N, grid, refine, quad_tol", [
    (3, GridSpec(20, 0.1), True, 1e-6),         # 1e-3 (h/2)^2 = 2.5e-6: the cap
    (3, GridSpec(8, 0.003), True, 2.25e-9),     # 1e-3 (h/2)^2
    (3, GridSpec(8, 0.003), False, 9e-9),       # 1e-3 h^2
    (2, GridSpec(32, 0.05), True, 6.25e-7),
    (2, GridSpec(6, 1e-5), False, 1e-12),       # the floor
])
def test_eigen_quadrature_tol_follows_the_finest_spacing(monkeypatch, N, grid,
                                                         refine, quad_tol):
    calls = _evaluations(monkeypatch)
    check_eigen(N, _ALPHAS[N], grid, tol=1e-2, refine=refine)
    assert [tol for tol, *_ in calls] == [pytest.approx(quad_tol, rel=1e-12, abs=0)]


def test_fine_grid_eigen_status_is_that_of_a_tol_1e_12_evaluation(monkeypatch):
    # the refinement ratio of this N = 3 check on 8:0.003 reads 3.41, 3.36
    # at quadrature tol 1e-12 and 3.73, a PASS, at a flat tol 1e-6
    alpha, grid = [0.865032, 0.156747, -1.0], GridSpec(8, 0.003)
    statuses = [check_eigen(3, alpha, grid, refine=True).status]
    for quad_tol in (1e-12, 1e-6):
        monkeypatch.setattr(oracle, "lattice_tol", lambda h, t=quad_tol: t)
        statuses.append(check_eigen(3, alpha, grid, refine=True).status)
    assert statuses == ["FAIL", "FAIL", "PASS"]


@pytest.mark.parametrize("N, grid, tol", [(2, GridSpec(32, 0.05), 1e-3),
                                          (3, GridSpec(20, 0.1), 1e-2)])
def test_eigen_lattice_values_are_those_of_tol_1e_12(monkeypatch, N, grid, tol):
    # the refined checks of the workload grids: every value the stencil
    # reads within 1e-8 relative of a tol-1e-12 one, and the same report
    calls = _evaluations(monkeypatch)
    rng = np.random.default_rng(50 + N)
    for _ in range(3):
        alpha = rng.uniform(-1.0, 1.0, N).round(6).tolist()
        rep = check_eigen(N, alpha, grid, tol=tol, refine=True)
        with monkeypatch.context() as m:
            m.setattr(oracle, "lattice_tol", lambda h: 1e-12)
            want = check_eigen(N, alpha, grid, tol=tol, refine=True)
        (_, axes, got), (_, ref_axes, exact) = calls
        calls.clear()
        assert all(np.array_equal(a, b) for a, b in zip(axes, ref_axes))
        assert np.all(np.abs(got - exact) <= 1e-8 * np.abs(exact)), alpha
        assert (rep.status, rep.witness) == (want.status, want.witness), alpha


def test_refined_n3_eigen_check_memory_stays_on_the_lattice():
    tracemalloc.start()
    try:
        check_eigen(3, [0.7, 0.0, -0.7], GridSpec(64, 0.05), refine=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def _bessel_k_n2(alpha, x):
    # psi = 2 K_{i(a1 - a2)}(2 e^{u/2}) e^{i(a1 + a2)(x1 + x2)/2}
    with mpmath.workdps(30):
        k = mpmath.besselk(1j * (alpha[0] - alpha[1]),
                           2 * mpmath.exp(mpmath.mpf(x[0] - x[1]) / 2))
    return 2 * complex(k) * cmath.exp(0.5j * sum(alpha) * (x[0] + x[1]))


@pytest.mark.parametrize("alpha", [(0.8, -0.3), (0.5, -0.5), (1.3, 0.2)])
def test_givental_n2_is_the_bessel_k_closed_form(alpha):
    # free region, ordinary points and the decay region down to 1e-130
    for u in (-40.0, -24.0, -8.0, -2.0, 0.0, 2.5, 5.0, 8.0, 10.0):
        x = (u / 2 + 0.3, -u / 2 + 0.3)
        want = _bessel_k_n2(alpha, x)
        assert abs(givental(alpha, x) - want) <= 1e-12 * abs(want), u


@pytest.mark.parametrize("alpha", [(0.9, 0.1, -0.6), (0.4, -0.7, 0.2)])
def test_givental_n3_matches_the_mellin_barnes_integral(alpha):
    # ordinary points; c_3 = 2 is what makes the two agree
    for x in [(0.3, -0.2, 0.1), (0.5, 0.0, -0.5), (1.0, 0.0, -1.5),
              (2.0, 0.0, -2.0), (-2.0, 0.0, 2.0), (-1.0, 1.5, -0.5)]:
        want = whittaker_eval(3, alpha, x, tol=1e-12).value
        assert abs(givental(alpha, x) - want) <= 1e-10 * abs(want), x


def test_givental_n1_is_the_plane_wave_and_n4_is_refused():
    assert abs(givental([0.7], [1.5]) - cmath.exp(1.05j)) <= 1e-15
    with pytest.raises(ValueError):
        givental([0.1] * 4, [0.0] * 4)
    with pytest.raises(ValueError):
        givental([0.1, 0.2], [0.0] * 3)
