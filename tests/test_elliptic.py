"""Exhaustion solver: oracle agreement, toy-end exactness, regime gating."""
import functools

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from masskit import elliptic, grids, metrics, oracles, radial, rigidity
from masskit.errors import ConfigError, RegimeError, SolverError

C_SOB = 3.0        # certified below the flat sharp constant for these metrics


def shoot_truncated(metric, f, support_radius, R):
    """Reference v on [r_min, R] with v(R) = 0 and zero inner slope.

    Superposes a particular outward solution, from (v, kappa v') = (0, 0)
    with source f w, and the homogeneous one from (1, 0); both inherit the
    Neumann inner condition, so one scalar match at R pins the combination.
    Both come from one DOP853 integration in r, whose dense output carries
    v between steps: an integrator independent of the oracle's panels.
    """
    r0, R = float(metric.r_min), float(R)
    if R <= max(r0, float(support_radius)):
        raise ConfigError("truncation radius %.3g too small" % R)

    def rhs(r, y):
        kap, w = grids.radial_kappa_w(metric, [r])
        fw = np.asarray(f(np.array([r])), dtype=float)[0] * w[0]
        return [y[1] / kap[0], fw * (y[0] + 1.0), y[3] / kap[0], fw * y[2]]

    sol = solve_ivp(rhs, (r0, R), [0.0, 0.0, 1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise SolverError("outward integration failed: %s" % sol.message)
    v_p, v_h = sol.y[0, -1], sol.y[2, -1]
    if abs(v_h) < 1e-14:
        raise SolverError("homogeneous solution vanishes at R; cannot match")
    c = -v_p / v_h

    def v(r):
        y = sol.sol(np.atleast_1d(np.asarray(r, dtype=float)))
        return y[0] + c * y[2]

    return v


def end_metric():
    return metrics.schwarzschild(0.8, 3)


def bump():
    return radial.gaussian(0.15, 3.0, 0.7)


@functools.lru_cache(maxsize=None)
def oracle_A(n=3):
    sh = oracles.shoot_conformal_factor(metrics.schwarzschild(0.8, n),
                                        bump(), 6.5)
    return sh.A


@functools.lru_cache(maxsize=None)
def solved_gaussian():
    dom = elliptic.DomainModel(
        n=3, truncation_radii=(16.0, 32.0, 64.0, 128.0, 256.0),
        annulus_nodes=1200)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    return prob, elliptic.solve_conformal_factor(prob)


@functools.lru_cache(maxsize=None)
def solved_window(with_cylinder):
    f = radial.window(1.5, 2.0, 3.5, 4.5) * radial.const(0.2)
    lengths = (2.0, 4.0) if with_cylinder else ()
    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0, 64.0),
                               cylinder_lengths=lengths, annulus_nodes=900)
    prob = elliptic.EllipticProblem(end_metric(), f, 4.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    return elliptic.solve_conformal_factor(prob)


def test_profile_bound_value_and_plain_function_solve_alike():
    """A potential is any function of r: the profile, its bound value and a
    plain numpy function of the same formula give bitwise-equal solves and
    oracle coefficients."""
    def plain(r):
        x = (np.asarray(r, dtype=float) - 3.0) / 0.7
        return 0.15 * np.exp(-x * x)

    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0),
                               annulus_nodes=400)
    solves, shots = [], []
    for f in (bump(), bump().value, plain):
        prob = elliptic.EllipticProblem(end_metric(), f, 6.5, dom)
        elliptic.check_smallness(prob, C_SOB)
        solves.append(elliptic.solve_conformal_factor(prob))
        shots.append(oracles.shoot_conformal_factor(end_metric(), f, 6.5).A)
    ref = solves[0]
    for sol in solves[1:]:
        assert np.array_equal(sol.u, ref.u)
        assert (sol.A_integral, sol.A_fit, sol.flux_grad) \
            == (ref.A_integral, ref.A_fit, ref.flux_grad)
    assert shots[1] == shots[0] and shots[2] == shots[0]


def test_domain_schedules_validated():
    # a truncation inside the metric's cut at r_min = 1
    with pytest.raises(ConfigError):
        elliptic.DomainModel(n=3, truncation_radii=(0.5,)).mesh(
            metrics.euclidean(3), 0.5)
    with pytest.raises(ConfigError):
        elliptic.DomainModel(n=3, truncation_radii=(16.0, 16.0))
    with pytest.raises(ConfigError):
        elliptic.DomainModel(n=3, cylinder_lengths=(-1.0,))
    with pytest.raises(ConfigError):
        elliptic.DomainModel(n=3, cylinder_lengths=(4.0, 2.0))


def test_mesh_keeps_first_rung_spacing():
    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0, 64.0),
                               annulus_nodes=800)
    m0 = dom.mesh(end_metric(), 16.0)
    m2 = dom.mesh(end_metric(), 64.0)
    d0 = m0.coord[1] - m0.coord[0]
    d2 = m2.coord[1] - m2.coord[0]
    assert abs(d0 - d2) <= 1e-3 * d0


def test_problem_validation():
    dom = elliptic.DomainModel(n=3)
    with pytest.raises(ConfigError):
        elliptic.EllipticProblem(metrics.euclidean(4), bump(), 6.5, dom)
    with pytest.raises(ConfigError):
        # support must end below half the first truncation radius
        elliptic.EllipticProblem(end_metric(), bump(), 9.0, dom)


def test_f_values_cut_beyond_support():
    dom = elliptic.DomainModel(n=3)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    r = np.array([2.0, 6.5, 6.6, 30.0])
    vals = prob.f_values(r)
    assert vals[0] > 0.0 and vals[1] > 0.0
    assert vals[2] == 0.0 and vals[3] == 0.0


def test_solve_requires_smallness_check():
    dom = elliptic.DomainModel(n=3)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    with pytest.raises(RegimeError):
        elliptic.solve_truncated(prob)
    with pytest.raises(RegimeError):
        elliptic.solve_conformal_factor(prob)


def test_smallness_scaling_and_threshold():
    # the size functional is homogeneous of degree one in the amplitude
    dom = elliptic.DomainModel(n=3, annulus_nodes=900)
    p1 = elliptic.EllipticProblem(end_metric(),
                                  radial.gaussian(-0.0345, 3.0, 0.7), 6.5, dom)
    r1 = elliptic.check_smallness(p1, C_SOB)
    assert r1.passed
    assert r1.ratio == pytest.approx(0.9005626794, rel=1e-6)

    p2 = elliptic.EllipticProblem(end_metric(),
                                  radial.gaussian(-0.069, 3.0, 0.7), 6.5, dom)
    r2 = elliptic.check_smallness(p2, C_SOB)
    assert not r2.passed
    assert r2.lhs == pytest.approx(2.0 * r1.lhs, rel=1e-12)
    with pytest.raises(RegimeError):
        elliptic.solve_conformal_factor(p2)

    keys = set(r1.to_json_dict())
    assert keys == {"lhs", "threshold", "ratio", "passed", "c_S"}


def test_smallness_ignores_the_toy_end():
    """The gate weights f by wsrc, so a toy end, junction half cell
    included, adds nothing even for a potential nonzero at the cut."""
    f = radial.gaussian(-0.03, 1.0, 1.5)
    lhs = []
    for lengths in ((), (2.0, 4.0, 8.0)):
        dom = elliptic.DomainModel(n=3, cylinder_lengths=lengths,
                                   annulus_nodes=900)
        prob = elliptic.EllipticProblem(end_metric(), f, 6.5, dom)
        assert prob.f_values(end_metric().r_min) < 0.0
        lhs.append(elliptic.check_smallness(prob, C_SOB).lhs)
    assert lhs[0] > 0.0
    assert lhs[1] == pytest.approx(lhs[0], rel=1e-14, abs=0.0)


def test_smallness_rejects_bad_constant():
    dom = elliptic.DomainModel(n=3)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    with pytest.raises(ConfigError):
        elliptic.check_smallness(prob, 0.0)


def test_positive_potential_passes_trivially():
    dom = elliptic.DomainModel(n=3)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    rep = elliptic.check_smallness(prob, C_SOB)
    assert rep.lhs == 0.0 and rep.passed


def test_truncated_matches_shooting_oracle():
    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0, 64.0),
                               annulus_nodes=1600)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    sol = elliptic.solve_truncated(prob)
    vref = shoot_truncated(end_metric(), bump(), 6.5, 64.0)
    r = np.geomspace(1.01, 63.0, 400)
    assert np.abs(sol.interp(r) - vref(r)).max() <= 1e-6
    assert sol.residual <= prob.tol
    assert sol.energy > 0.0
    # positive potential pushes the factor down: v <= 0 with v(R) = 0
    assert sol.v.max() <= 1e-14
    assert sol.v[-1] == 0.0


def test_conformal_factor_expansion_against_oracle():
    prob, full = solved_gaussian()
    assert abs(full.A_integral - oracle_A(3)) <= 1e-4
    assert full.A_integral == pytest.approx(-1.83716233585, rel=1e-9)
    # independent tail fit agrees with the integral value of the coefficient
    assert abs(full.A_fit - full.A_integral) <= 1e-2 * abs(full.A_integral)
    assert full.min_u == pytest.approx(0.469258873523, rel=1e-9)
    assert full.min_u > 0.0
    assert full.remainder_bound >= 0.0


def test_dimension_four_expansion_against_oracle():
    met = metrics.schwarzschild(0.8, 4)
    dom = elliptic.DomainModel(n=4, truncation_radii=(16.0, 32.0, 64.0),
                               annulus_nodes=1200)
    prob = elliptic.EllipticProblem(met, bump(), 6.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    full = elliptic.solve_conformal_factor(prob)
    assert abs(full.A_integral - oracle_A(4)) <= 1e-5
    assert full.robin_gap <= 3.0 * max(1.0, abs(full.A_integral)) * 64.0 ** -2


def test_exhaustion_diffs_decay_at_expansion_rate():
    prob, full = solved_gaussian()
    diffs = full.exhaustion_diffs
    assert len(diffs) == 4
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    # doubling R changes the retained region by about |A| R^{2-n}
    A = abs(full.A_integral)
    for d, R_prev in zip(diffs, (16.0, 32.0, 64.0, 128.0)):
        assert d <= 3.0 * max(1.0, A) / R_prev


def test_robin_closure_agrees_on_retained_region():
    prob, full = solved_gaussian()
    bound = 3.0 * max(1.0, abs(full.A_integral)) / 256.0
    assert full.robin_gap <= bound
    assert full.robin_gap == pytest.approx(0.00639053, rel=1e-4)


def test_homogeneous_problem_is_identically_one():
    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0),
                               annulus_nodes=600)
    prob = elliptic.EllipticProblem(end_metric(), radial.const(0.0), 4.0, dom)
    elliptic.check_smallness(prob, C_SOB)
    full = elliptic.solve_conformal_factor(prob)
    assert np.abs(full.v).max() == 0.0
    assert full.A_integral == 0.0
    assert full.min_u == 1.0


def test_toy_end_carries_no_flux():
    sol = solved_window(True)
    cyl = sol.mesh.is_cyl
    assert int(cyl.sum()) == 256
    # nothing is sourced below the support, so the section flux vanishes
    # identically and the factor is constant along the attached cylinder
    assert sol.flux_grad == 0.0
    assert sol.flux_u_grad == 0.0
    assert np.abs(sol.u[cyl] - sol.u[0]).max() == 0.0


def test_toy_end_leaves_expansion_unchanged():
    with_cyl = solved_window(True)
    without = solved_window(False)
    assert abs(with_cyl.A_integral - without.A_integral) <= 1e-12
    assert abs(with_cyl.A_fit - without.A_fit) <= 1e-10


def test_toy_end_junction_carries_no_potential():
    """f = gaussian(0.05, 3, 1) is nonzero at the cut r_min = 1.  The toy
    end, the junction's cylinder half cell included, carries none of it, so
    the cylinder schedule leaves A as it is (weighting f(r_min) by the whole
    junction cell moved A by 6.5e-6 relative)."""
    A = []
    for lengths in ((2.0, 4.0, 8.0), ()):
        dom = elliptic.DomainModel(n=3, cylinder_lengths=lengths)
        prob = elliptic.EllipticProblem(metrics.euclidean(3),
                                        radial.gaussian(0.05, 3.0, 1.0), 8.0,
                                        dom)
        elliptic.check_smallness(prob, C_SOB)
        sol = elliptic.solve_conformal_factor(prob)
        A.append(sol.A_integral)
    assert abs(A[0] - A[1]) <= 1e-12 * abs(A[1])
    # without a cylinder the source weight is the volume weight, bitwise
    assert np.array_equal(sol.mesh.wsrc, sol.mesh.wbar)


def energy_norm_bound(problem, solution, c_S):
    # numerical form of the a-priori bound on v against the source norm
    n = problem.domain.n
    mesh = solution.mesh
    fvals = np.where(mesh.is_cyl, 0.0, problem.f_values(mesh.r))
    p_crit = 2.0 * n / (n - 2.0)
    p_dual = 2.0 * n / (n + 2.0)
    lhs = elliptic.lp_norm(mesh.wbar, solution.v, p_crit, n)
    rhs = 2.0 / c_S * elliptic.lp_norm(mesh.wbar, fvals, p_dual, n)
    return {"lhs": lhs, "rhs": rhs, "passed": lhs <= rhs}


def test_energy_norm_bound_with_valid_constant():
    prob, full = solved_gaussian()
    out = energy_norm_bound(prob, full, C_SOB)
    assert out["passed"]
    assert out["lhs"] == pytest.approx(1.512135177, rel=1e-6)
    assert out["rhs"] == pytest.approx(10.76924784, rel=1e-6)
    # the report is an inequality check, not a formality: an overlarge
    # constant shrinks the right side until it fails
    assert not energy_norm_bound(prob, full, 30.0)["passed"]


def test_interp_reproduces_annulus_nodes():
    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0,),
                               annulus_nodes=400)
    prob = elliptic.EllipticProblem(end_metric(), bump(), 6.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    sol = elliptic.solve_truncated(prob)
    got = sol.interp(sol.mesh.r)
    assert np.abs(got - sol.v).max() <= 1e-14


def test_solution_json_keys():
    _, full = solved_gaussian()
    d = full.to_json_dict()
    for key in ("A_integral", "A_fit", "B_fit", "remainder_bound",
                "flux_grad", "min_u", "robin_gap", "exhaustion_diffs"):
        assert key in d


def flat_profile(k, r):
    """v = r u for flat n=3 and f = k^2: v'' = k^2 v, v(1) = v'(1) = 1."""
    s = k * (r - 1.0)
    return np.cosh(s) + np.sinh(s) / k, k * np.sinh(s) + np.cosh(s)


@pytest.mark.parametrize("k,rf", [(0.3, 4.0), (0.8, 6.0), (1.5, 3.0)])
def test_shooting_oracle_closed_form_flat(k, rf):
    sh = oracles.shoot_conformal_factor(metrics.euclidean(3),
                                        radial.const(k * k), rf)
    v, dv = flat_profile(k, rf)
    assert sh.c_inf == pytest.approx(dv, rel=1e-10)
    assert sh.A == pytest.approx((v - rf * dv) / dv, rel=1e-10)


@pytest.mark.parametrize("k,rf,R", [(0.3, 4.0, 16.0), (0.8, 6.0, 8.0),
                                    (1.5, 3.0, 5.0)])
def test_truncated_oracle_closed_form_flat(k, rf, R):
    vref = shoot_truncated(metrics.euclidean(3), radial.const(k * k),
                                   rf, R)
    r = np.linspace(1.0, R, 300)
    exact = (flat_profile(k, r)[0] / r) / (flat_profile(k, R)[0] / R) - 1.0
    assert np.abs(vref(r) - exact).max() <= 1e-9 * np.abs(exact).max()


def test_shooting_oracle_resolves_a_jump_in_the_potential():
    """f = k^2 on [1, 2.3) and 0 beyond: v = r u is flat_profile up to the
    jump and linear after it, so A = (v - 2.3 v') / v' there."""
    def f(r):
        return np.where(np.asarray(r) < 2.3, 0.64, 0.0)

    sh = oracles.shoot_conformal_factor(metrics.euclidean(3), f, 4.0)
    v, dv = flat_profile(0.8, 2.3)
    assert sh.A == pytest.approx((v - 2.3 * dv) / dv, rel=1e-6)


def test_shooting_oracle_caps_its_panels():
    def f(r):
        return 0.01 * np.sin(1e9 * np.asarray(r))

    with pytest.raises(SolverError, match="%d panels" % oracles._MAX_PANELS):
        oracles.shoot_conformal_factor(metrics.euclidean(3), f, 4.0)


@pytest.mark.parametrize("panels", [1, 64])
def test_oracle_panel_count_moves_results_at_roundoff(monkeypatch, panels):
    """One panel is a single outward system; any count must agree with the
    default to far below the oracle's use as a reference."""
    g, f, rf, R = end_metric(), bump(), 6.5, 64.0
    r = np.linspace(g.r_min, R, 641)
    A = oracles.shoot_conformal_factor(g, f, rf).A
    v = shoot_truncated(g, f, rf, R)(r)
    monkeypatch.setattr(oracles, "_PANELS", panels)
    assert oracles.shoot_conformal_factor(g, f, rf).A == pytest.approx(
        A, rel=1e-9)
    v_p = shoot_truncated(g, f, rf, R)(r)
    assert np.abs(v_p - v).max() <= 1e-9 * np.abs(v).max()


def conformal_end(gauss):
    """u = 1 + 0.5/r + c exp(-((r - r0)/w)^2) at n = 3, gauss = (c, r0, w)."""
    return metrics.conformally_flat(radial.const(1.0) + radial.power(0.5, -1.0)
                                    + radial.gaussian(*gauss), 3)


@pytest.mark.parametrize("n", range(3, 8))
@pytest.mark.parametrize("m", [1.0, 2.0])
@pytest.mark.parametrize("R", [4.0, 64.0])
def test_harmonic_tail_on_schwarzschild_closed_form(n, m, R):
    """kappa = u^2 r^{n-1} with u = 1 + m X / 2 in X = r^{2-n}, so the tail
    is X / ((n - 2)(1 + m X / 2)) at X = R^{2-n}.  At n = 7, R = 64 it is
    about 2e-10, which an absolute quadrature tolerance would swamp."""
    X = R ** (2.0 - n)
    exact = X / ((n - 2.0) * (1.0 + 0.5 * m * X))
    tail = grids.harmonic_tail(metrics.schwarzschild(m, n), R)
    assert tail == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("metric", [
    conformal_end((0.05, 20.0, 2.0)), conformal_end((0.05, 12.0, 1.0)),
    conformal_end((0.2, 9.0, 0.5)),
    metrics.conformally_flat(radial.const(1.0) + radial.power(0.5, -1.0)
                             + radial.power(0.005, -2.0), 3),
    metrics.conformally_flat(radial.const(1.0) + radial.bubble(0.4), 3,
                             q=5.0),
], ids=["gauss-20", "gauss-12", "gauss-9", "toy", "bubble"])
def test_harmonic_tail_against_adaptive_quad(metric):
    """Far-field Gaussian terms, which a 16-point Gauss-Legendre rule in
    R/s misses by up to 2e-3, against QUADPACK with no absolute
    tolerance."""
    R = 8.0
    ref, err = quad(lambda s: 1.0 / grids.radial_kappa_w(metric, [s])[0][0],
                    R, np.inf, limit=500, epsabs=0.0, epsrel=1e-13)
    assert err <= 1e-13 * ref
    assert grids.harmonic_tail(metric, R) == pytest.approx(ref, rel=1e-13,
                                                           abs=0.0)


def test_harmonic_tail_refuses_a_non_finite_coefficient():
    def a(at, k):
        jet = radial.const(1.0).jet(at.r, k)
        return np.where(at.r > 50.0, np.nan, jet)

    metric = metrics.radial_metric(radial.RProfile(a), None, 3)
    with pytest.raises(SolverError, match="tail quadrature"):
        grids.harmonic_tail(metric, 8.0)


def count_mesh_builds(monkeypatch):
    """Patch the mesh builder the domains call; the list of radii built."""
    built = []

    def counted(metric, r_max, *args, **kwargs):
        built.append(float(r_max))
        return grids.radial_mesh(metric, r_max, *args, **kwargs)

    monkeypatch.setattr(elliptic, "radial_mesh", counted)
    return built


def test_conformal_solve_builds_each_mesh_and_samples_f_once(monkeypatch):
    """Three Dirichlet rungs and the Robin solve on the last one's mesh:
    three meshes, and f sampled once per mesh, the first rung reusing the
    smallness check's samples."""
    built = count_mesh_builds(monkeypatch)
    calls = []

    def f(r):
        calls.append(np.size(r))
        return bump()(r)

    dom = elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0, 64.0),
                               annulus_nodes=400)
    prob = elliptic.EllipticProblem(end_metric(), f, 6.5, dom)
    elliptic.check_smallness(prob, C_SOB)
    elliptic.solve_conformal_factor(prob)
    assert built == [16.0, 32.0, 64.0]
    assert len(calls) == 3


def test_ricci_probe_builds_three_meshes_for_its_delta_ladder(monkeypatch):
    built = count_mesh_builds(monkeypatch)
    spec = rigidity.RigidityProbeSpec(
        eta=radial.window(1.5, 2.0, 3.0, 3.5), bump=(1.5, 3.5),
        eta_tilde=radial.window(1.2, 1.8, 3.2, 4.0), bump_tilde=(1.2, 4.0),
        delta_ladder=(1e-2, 1e-3, 1e-4, 1e-5))
    rep = rigidity.rigidity_probe_ricci(metrics.schwarzschild(1.0, 3), spec)
    assert len(rep.A_values) == 4
    # sixteen solves (four rungs of three Dirichlet radii and a Robin
    # solve) on the meshes of the three truncation radii
    assert built == [16.0, 32.0, 64.0]


def test_shared_domain_solves_bitwise_like_fresh_domains():
    def domain():
        return elliptic.DomainModel(n=3, truncation_radii=(16.0, 32.0, 64.0),
                                    cylinder_lengths=(2.0, 4.0),
                                    annulus_nodes=400)

    g = end_metric()
    potentials = [bump(), radial.window(1.5, 2.0, 3.5, 4.5)
                  * radial.const(0.2), bump()]
    shared = domain()
    for f in potentials:
        solved = []
        for dom in (shared, domain()):
            prob = elliptic.EllipticProblem(g, f, 6.5, dom)
            elliptic.check_smallness(prob, C_SOB)
            solved.append(elliptic.solve_conformal_factor(prob))
        got, ref = solved
        assert np.array_equal(got.u, ref.u) and np.array_equal(got.v, ref.v)
        assert (got.A_integral, got.A_fit) == (ref.A_integral, ref.A_fit)
    # one mesh per truncation radius and cylinder length, all shared
    assert len(shared._meshes) == 6
