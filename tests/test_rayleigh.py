"""Sobolev-quotient minimum and eigenvalue bounds against closed forms."""
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize

from masskit import elliptic, metrics, radial, rayleigh
from masskit.errors import (ConfigError, DegenerateMetricError,
                             EstimationError)
from masskit.grids import (SphericalGrid, grid_operators, radial_mesh,
                           sphere_area)


def apply_stiffness(mesh, v):
    """K v for the Neumann-natural stiffness (energy form v^T K v >= 0)."""
    c = mesh.kappa_face / mesh.dcoord
    dv = np.diff(v)
    out = np.zeros_like(v)
    out[:-1] -= c * dv
    out[1:] += c * dv
    return out


def sobolev_quotient(mesh, zeta, n):
    """Q evaluated on one grid function (boundary values must vanish)."""
    p = 2.0 * n / (n - 2.0)
    energy = sphere_area(n) * float(zeta @ apply_stiffness(mesh, zeta))
    denom = elliptic.lp_norm(mesh.wbar, zeta, p, n) ** 2
    if denom <= 0.0:
        raise ConfigError("test function vanishes identically")
    return energy / denom


def flat_domain(R, num=900, cylinder=()):
    return elliptic.DomainModel(n=3, truncation_radii=(R,),
                                cylinder_lengths=cylinder, annulus_nodes=num)


@functools.lru_cache(maxsize=None)
def flat_estimate(R):
    return rayleigh.sobolev_estimate(flat_domain(R), metrics.euclidean(3))


def test_sharp_flat_constant_value():
    assert rayleigh.SHARP_FLAT_3D == pytest.approx(5.4779040895, abs=1e-9)


def test_flat_ladder_decreases_toward_sharp():
    values = [flat_estimate(R).c_S for R in (16.0, 64.0, 256.0)]
    assert values[0] == pytest.approx(11.5552283130, abs=1e-4)
    assert values[1] == pytest.approx(8.0229488590, abs=1e-4)
    assert values[2] == pytest.approx(6.6690898716, abs=1e-4)
    assert values[0] > values[1] > values[2] > rayleigh.SHARP_FLAT_3D
    for R in (16.0, 64.0, 256.0):
        rep = flat_estimate(R)
        assert rep.converged and rep.iterations <= 50
        assert rep.kind == "upper-estimate"


def test_anchored_bubble_brackets_descent():
    rep = flat_estimate(256.0)
    mesh = flat_domain(256.0).mesh(metrics.euclidean(3), 256.0)
    best = min(sobolev_quotient(mesh, rayleigh.anchored_bubble(mesh, lam), 3)
               for lam in np.geomspace(4.0, 64.0, 25))
    # the descent minimum sits just below the best explicit profile
    assert rep.c_S <= best
    assert best <= 1.05 * rep.c_S


def test_anchored_bubble_is_admissible():
    mesh = flat_domain(64.0, num=500).mesh(metrics.euclidean(3), 64.0)
    z = rayleigh.anchored_bubble(mesh, 8.0)
    assert z[0] == 0.0 and z[-1] == 0.0
    assert z.min() >= 0.0
    assert z.max() > 0.1


def test_quotient_rejects_zero_function():
    mesh = flat_domain(16.0, num=200).mesh(metrics.euclidean(3), 16.0)
    with pytest.raises(ConfigError):
        sobolev_quotient(mesh, np.zeros(mesh.num_nodes), 3)


def test_dilation_invariance():
    d1 = elliptic.DomainModel(n=3, truncation_radii=(64.0,),
                              annulus_nodes=700)
    d2 = elliptic.DomainModel(n=3, truncation_radii=(192.0,),
                              annulus_nodes=700)
    r1 = rayleigh.sobolev_estimate(d1, metrics.euclidean(3))
    r2 = rayleigh.sobolev_estimate(
        d2, dataclasses.replace(metrics.euclidean(3), r_min=3.0))
    assert abs(r1.c_S - r2.c_S) <= 1e-12 * r1.c_S


def test_near_flat_metric_barely_moves_estimate():
    d1 = elliptic.DomainModel(n=3, truncation_radii=(64.0,), annulus_nodes=700)
    r1 = rayleigh.sobolev_estimate(d1, metrics.euclidean(3))
    rn = rayleigh.sobolev_estimate(d1, metrics.schwarzschild(0.004, 3))
    assert abs(rn.c_S - r1.c_S) <= 1e-6 * r1.c_S


def test_attached_cylinder_only_lowers_the_constant():
    plain = flat_estimate(64.0)
    with_cyl = rayleigh.sobolev_estimate(flat_domain(64.0, cylinder=(3.0,)),
                                         metrics.euclidean(3))
    assert with_cyl.c_S <= plain.c_S
    assert with_cyl.domain_label.endswith("+cyl[3]")


def test_dimension_four_descent_converges():
    vals = []
    for R in (16.0, 64.0):
        dom = elliptic.DomainModel(n=4, truncation_radii=(R,),
                                   annulus_nodes=900)
        rep = rayleigh.sobolev_estimate(dom, metrics.euclidean(4))
        assert rep.converged
        vals.append(rep.c_S)
    assert vals[0] == pytest.approx(13.41312289, abs=1e-4)
    assert vals[1] == pytest.approx(11.09519577, abs=1e-4)
    assert vals[0] > vals[1] > 0.0


def test_descent_budget_raises_with_iterate():
    with pytest.raises(EstimationError) as err:
        rayleigh.sobolev_estimate(flat_domain(16.0, num=300),
                                  metrics.euclidean(3), max_iters=1)
    assert isinstance(err.value.last_iterate, np.ndarray)


def sharp_constant(n):
    """Aubin-Talenti constant S_n = n(n-2)/4 |S^n|^{2/n} of flat R^n."""
    area = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    return n * (n - 2) / 4.0 * area ** (2.0 / n)


# default-domain estimates of the projected descent the L-BFGS minimizer
# replaced; the descent did not settle at n = 7
DESCENT_VALUES = {3: 8.02295524787, 4: 11.0951947248, 5: 15.0748940283,
                  6: 19.3385662377}


@functools.lru_cache(maxsize=None)
def default_estimate(n):
    dom = elliptic.DomainModel(n=n)
    return dom, rayleigh.sobolev_estimate(dom, metrics.euclidean(n))


def test_sharp_constant_matches_the_three_dimensional_value():
    assert sharp_constant(3) == pytest.approx(rayleigh.SHARP_FLAT_3D,
                                              rel=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_estimate_converges_above_sharp_constant_at_every_dimension(n):
    dom, rep = default_estimate(n)
    assert rep.converged
    assert rep.c_S > sharp_constant(n)
    assert rep.profile[0] == 0.0 and rep.profile[-1] == 0.0
    mesh = dom.mesh(metrics.euclidean(n), dom.truncation_radii[-1])
    q = sobolev_quotient(mesh, rep.profile, n)
    assert abs(q - rep.c_S) <= 1e-12 * rep.c_S


def scipy_lbfgs(fun, x, max_iters):
    """The scipy L-BFGS-B call that `rayleigh._lbfgs` replaced."""
    res = minimize(fun, x, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iters, "ftol": 1e-11,
                            "gtol": 1e-9, "maxcor": 20})
    return res.x, res.fun, res.nit, None if res.success else res.message


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_lbfgs_matches_scipy_lbfgsb_from_the_same_start(monkeypatch, n):
    dom, rep = default_estimate(n)
    monkeypatch.setattr(rayleigh, "_lbfgs", scipy_lbfgs)
    ref = rayleigh.sobolev_estimate(dom, metrics.euclidean(n))
    assert abs(rep.c_S - ref.c_S) <= 1e-10 * ref.c_S
    assert abs(rep.iterations - ref.iterations) <= 1


@pytest.mark.parametrize("n", sorted(DESCENT_VALUES))
def test_estimate_matches_the_descent_values(n):
    _, rep = default_estimate(n)
    assert abs(rep.c_S - DESCENT_VALUES[n]) <= 1e-8 * DESCENT_VALUES[n]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(n=st.integers(3, 7), log2_ratio=st.floats(3.0, 9.0),
       nodes=st.integers(200, 2000), r_min=st.sampled_from([0.5, 1.0, 2.0]),
       neck=st.sampled_from([0.0, 1.0, 3.0]),
       family=st.sampled_from(["euclidean", "schwarzschild", "bubble"]),
       amplitude=st.floats(-0.4, 0.4))
def test_estimate_converges_across_domain_families(n, log2_ratio, nodes, r_min,
                                                   neck, family, amplitude):
    metric = dataclasses.replace(
        {"euclidean": metrics.euclidean(n),
         "schwarzschild": metrics.schwarzschild(0.5, n),
         "bubble": metrics.conformally_flat(
             radial.const(1.0) + radial.bubble(amplitude), n)}[family],
        r_min=r_min)
    dom = elliptic.DomainModel(
        n=n, truncation_radii=(r_min * 2.0 ** log2_ratio,),
        cylinder_lengths=(neck * r_min,) if neck else (),
        annulus_nodes=nodes)
    rep = rayleigh.sobolev_estimate(dom, metric)
    assert rep.converged
    # for g = u^{4/(n-2)} delta with R(g) <= 0, Q_g(zeta) >= Q_flat(u zeta)
    # >= S_n; positive R or an attached cylinder (Q ~ (r_min/L)^{2(n-1)/n}
    # on profiles living in it) can take the constant below S_n
    if neck == 0.0 and (family != "bubble" or amplitude <= 0.0):
        assert rep.c_S > sharp_constant(n)


def test_annulus_eigenvalue_matches_transcendental_root():
    # radial mode sin(k (r - 1) + phi) / r with zero slope at r = 1 and a
    # zero at r = rho forces k (rho - 1) + arctan k = pi
    rho = 2.0
    k = brentq(lambda t: t * (rho - 1.0) + np.arctan(t) - np.pi, 1e-3, 50.0)
    rep = rayleigh.eigenvalue_lower_bound(metrics.euclidean(3), rho, 0.0,
                                          num=4096)
    assert abs(rep.value - k * k) <= 1e-7 * k * k


def test_constant_potential_shifts_value_exactly():
    flat = metrics.euclidean(3)
    base = rayleigh.eigenvalue_lower_bound(flat, 2.0, 0.0, num=1024)
    shifted = rayleigh.eigenvalue_lower_bound(flat, 2.0, -11.25, num=1024)
    assert abs((base.value - 11.25) - shifted.value) <= 1e-9
    assert shifted.shift == -12.25
    assert shifted.value < 0.0


def test_varying_potential_on_curved_annulus():
    met = metrics.schwarzschild(0.5, 3)
    rep = rayleigh.eigenvalue_lower_bound(met, 8.0, 0.0, num=2048)
    assert rep.value == pytest.approx(0.1098678951, rel=1e-6)
    assert rep.value > 0.0


def _dense_pencil_reference(metric, rho, c, num):
    # smallest eigenvalue of the same radial pencil A x = lam M x on the
    # solver's mesh, assembled densely and solved as a generalized problem
    # without any mass scaling
    from scipy.linalg import eigh

    mesh = radial_mesh(metric, rho, num)
    M = mesh.num_nodes - 1             # the node at rho is Dirichlet
    cond = (mesh.kappa_face / mesh.dcoord)[:M]
    wbar = mesh.wbar[:M]
    i = np.arange(M - 1)
    A = np.diag(cond + c * wbar)
    A[i + 1, i + 1] += cond[:-1]
    A[i, i + 1] = A[i + 1, i] = -cond[:-1]
    return eigh(A, np.diag(wbar), eigvals_only=True,
                subset_by_index=[0, 0])[0]


@pytest.mark.parametrize("metric, rho, c, num", [
    (metrics.euclidean(3), 2.0, 0.0, 2048),
    (metrics.schwarzschild(1.0, 3), 8.0, 0.005, 4096)],
    ids=["flat-annulus", "schwarzschild"])
def test_radial_eigenvalue_matches_dense_generalized_eigh(metric, rho, c, num):
    rep = rayleigh.eigenvalue_lower_bound(metric, rho, c, num=num)
    ref = _dense_pencil_reference(metric, rho, c, num)
    assert abs(rep.value - ref) <= 1e-8 * abs(ref)
    assert rep.iterations == 0
    assert rep.mode[-1] == 0.0
    assert rep.mode[:-1].min() > 0.0


def test_full3d_sobolev_matches_radial_anchor():
    rep = rayleigh.sobolev_estimate_full3d(metrics.euclidean(3), 64.0)
    assert rep.c_S == pytest.approx(8.3719503696, abs=1e-8)
    # the 3D-assembled quotient of the same bubble family stays within 5%
    # of the radial-mesh value at R = 64
    assert abs(rep.c_S - 8.0229488590) <= 0.05 * 8.0229488590
    assert rep.c_S >= rayleigh.SHARP_FLAT_3D
    assert rep.kind == "upper-estimate"
    assert rep.converged
    assert rep.domain_label == "annulus3d[1,64]x40x10x20"


def test_full3d_sobolev_curved_chart():
    rep = rayleigh.sobolev_estimate_full3d(metrics.schwarzschild(0.8, 3), 64.0)
    assert rep.c_S == pytest.approx(8.5378869990, abs=1e-8)
    assert rep.c_S > 0.0


def test_full3d_sobolev_rejects_wrong_dimension():
    with pytest.raises(ConfigError, match="n=3"):
        rayleigh.sobolev_estimate_full3d(metrics.euclidean(4), 64.0)


def test_full3d_eigenvalue_converges_to_radial():
    radial = rayleigh.eigenvalue_lower_bound(metrics.euclidean(3), 8.0, 0.0,
                                             num=4096)
    coarse = rayleigh.eigenvalue_bound_full3d(metrics.euclidean(3), 8.0, 0.0,
                                              shape=(20, 6, 12))
    fine = rayleigh.eigenvalue_bound_full3d(metrics.euclidean(3), 8.0, 0.0,
                                            shape=(40, 10, 20))
    assert fine.value == pytest.approx(0.1595326178, abs=1e-7)
    # ground state of the annulus is radial; the 3D bound approaches it
    # from above under refinement
    err_c = abs(coarse.value - radial.value) / radial.value
    err_f = abs(fine.value - radial.value) / radial.value
    assert err_f < err_c < 0.05
    assert err_f <= 0.03
    assert fine.value > radial.value


def test_radial_eigenvalue_radii_are_the_full3d_rings():
    """At equal radial node count the radial bound's mesh is the full-3D
    grid's log-radius rings, bit for bit."""
    metric = metrics.schwarzschild(1.0, 3)
    grid = SphericalGrid(r_min=metric.r_min, r_max=8.0, shape=(40, 10, 20))
    rep = rayleigh.eigenvalue_lower_bound(metric, 8.0, 0.0, num=40)
    assert np.array_equal(rep.radii, np.exp(grid.sigma))


def _full3d_pencil(metric, rho, c, shape):
    # interior mask, A = K + c diag(vol) and the lumped mass of the 3D bound
    from scipy.sparse import diags

    from masskit.grids import grid_operators

    grid = SphericalGrid(r_min=metric.r_min, r_max=rho, shape=shape)
    vol, K = grid_operators(grid, metric)
    interior = np.arange(grid.num_nodes) < grid.num_nodes - shape[1] * shape[2]
    mass = vol[interior]
    return interior, K[interior][:, interior] + diags(c * mass), mass


def _shift_invert_reference(metric, rho, c, shape):
    # smallest eigenvalue of the same pencil, by sparse LU shift-invert on
    # the symmetrically mass-scaled operator
    from scipy.sparse import diags
    from scipy.sparse.linalg import eigsh

    _, A, mass = _full3d_pencil(metric, rho, c, shape)
    s = diags(1.0 / np.sqrt(mass))
    return eigsh((s @ A @ s).tocsc(), k=1, sigma=0,
                 return_eigenvectors=False)[0]


def quadrupole_chart():
    # Euclidean plus 0.05 (x1^2 - x2^2) / r^3 delta: a non-radial chart whose
    # ground state leaves the span of the radial grid functions
    def h(X):
        r2 = (X ** 2).sum(axis=1)
        s = 0.05 * (X[:, 0] ** 2 - X[:, 1] ** 2) / r2 ** 1.5
        return s[:, None, None] * np.eye(3)[None]

    return metrics.perturbed(metrics.euclidean(3), h)


@pytest.mark.parametrize("metric, c", [(metrics.euclidean(3), 0.0),
                                       (metrics.schwarzschild(1.0, 3), 0.005)])
def test_full3d_eigenvalue_matches_shift_invert_reference(metric, c):
    rep = rayleigh.eigenvalue_bound_full3d(metric, 8.0, c, shape=(20, 6, 12))
    ref = _shift_invert_reference(metric, 8.0, c, (20, 6, 12))
    assert abs(rep.value - ref) <= 1e-10 * abs(ref)
    assert rep.mode[-1] == 0.0
    assert rep.mode.min() >= 0.0


@pytest.mark.parametrize("metric, c", [(metrics.euclidean(3), 0.0),
                                       (metrics.schwarzschild(1.0, 3), 0.005)],
                         ids=["euclidean", "schwarzschild"])
@pytest.mark.parametrize("shape", [(20, 6, 12), (40, 10, 20)])
def test_full3d_radial_ritz_start_is_converged(metric, c, shape):
    rep = rayleigh.eigenvalue_bound_full3d(metric, 8.0, c, shape=shape)
    assert rep.iterations == 0
    interior, A, mass = _full3d_pencil(metric, 8.0, c, shape)
    x = rep.mode[interior]
    assert np.all(rep.mode[~interior] == 0.0)
    x = x / np.sqrt(x @ (mass * x))
    assert np.linalg.norm(A @ x - rep.value * mass * x) <= 1e-10


def test_full3d_eigenvalue_non_radial_chart_matches_shift_invert():
    chart = quadrupole_chart()
    rep = rayleigh.eigenvalue_bound_full3d(chart, 8.0, 0.0, shape=(40, 10, 20))
    ref = _shift_invert_reference(chart, 8.0, 0.0, (40, 10, 20))
    assert rep.iterations > 0
    assert abs(rep.value - ref) <= 1e-10 * abs(ref)


def test_full3d_eigenvalue_converges_at_fine_radial_spacing():
    # halving the radial spacing moves the bound down toward the radial value
    flat = metrics.euclidean(3)
    radial = rayleigh.eigenvalue_lower_bound(flat, 8.0, 0.0, num=4096)
    mid = rayleigh.eigenvalue_bound_full3d(flat, 8.0, 0.0, shape=(40, 10, 20))
    fine = rayleigh.eigenvalue_bound_full3d(flat, 8.0, 0.0, shape=(80, 10, 20))
    assert radial.value < fine.value < mid.value


def test_full3d_eigenvalue_budget_raises_with_iterate():
    with pytest.raises(EstimationError) as err:
        rayleigh.eigenvalue_bound_full3d(quadrupole_chart(), 8.0, 0.0,
                                         shape=(40, 10, 20), max_iters=3)
    assert isinstance(err.value.last_iterate, np.ndarray)


def test_full3d_eigenvalue_budget_reports_iterations_run():
    # lobpcg trims its residual history to the best iterate, so the count
    # comes from the iterations that ran: a spent budget reports all of them
    with pytest.raises(EstimationError) as err:
        rayleigh.eigenvalue_bound_full3d(quadrupole_chart(), 8.0, 0.0,
                                         shape=(20, 6, 12), max_iters=60)
    ran = re.search(r"in (\d+) iterations", str(err.value))
    assert ran is not None and int(ran.group(1)) >= 60


@pytest.mark.parametrize("budget", [1, 3])
def test_full3d_eigenvalue_runs_at_most_max_iters_updates(budget):
    # lobpcg's maxiter allows one update more than it names
    with pytest.raises(EstimationError) as err:
        rayleigh.eigenvalue_bound_full3d(quadrupole_chart(), 8.0, 0.0,
                                         shape=(20, 6, 12), max_iters=budget)
    assert "in %d iterations" % budget in str(err.value)


def test_full3d_refuses_a_metric_not_positive_definite_on_the_grid():
    # flat minus 1.5 exp(-(r - 3)^2) delta is negative definite on the
    # shell |r - 3| < sqrt(log 1.5); each call names the first ring there
    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        return -1.5 * np.exp(-(r - 3.0) ** 2)[:, None, None] * np.eye(3)

    metric = metrics.perturbed(metrics.euclidean(3), h)
    small = SphericalGrid(r_min=1.0, r_max=8.0, shape=(20, 6, 12))
    calls = [
        (small, lambda: grid_operators(small, metric)),
        (small, lambda: rayleigh.eigenvalue_bound_full3d(metric, 8.0, 0.0,
                                                         shape=(20, 6, 12))),
        (SphericalGrid(r_min=1.0, r_max=8.0, shape=rayleigh.FULL3D_SHAPE),
         lambda: rayleigh.sobolev_estimate_full3d(metric, 8.0))]
    for grid, call in calls:
        rings = np.exp(grid.sigma)
        first = rings[np.abs(rings - 3.0) < np.sqrt(np.log(1.5))][0]
        with pytest.raises(DegenerateMetricError,
                           match=re.escape("r = %.6g" % first)):
            call()
