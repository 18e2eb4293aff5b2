"""Deformation ladder: split audits, delta/tau selection, mass-shift decay."""
import functools
import json
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline

from masskit import curvature, density, elliptic, grids, metrics, radial, \
    tolerances
from masskit.adm import DEFAULT_LADDER
from masskit.errors import ConfigError, RegimeError
from masskit.grids import radial_kappa_w, sphere_area
from test_adm import residual_flux, trend_slope

C_SOB = 3.0


def toy_metric():
    # mass-1 end with an r^-2 remainder kept small enough for R >= 0
    u = metrics.schwarzschild_factor(1.0, 3) + radial.power(-0.1, -2.0)
    return metrics.conformally_flat(u, 3, family="toy")


@functools.lru_cache(maxsize=None)
def toy_split():
    return density.split_schwarzschild(toy_metric(), 1.0)


@functools.lru_cache(maxsize=None)
def sch_split():
    return density.split_schwarzschild(metrics.schwarzschild(1.0, 3), 1.0)


def rung_domain(interp):
    """The domain `deform_rung` solves interp's rung on."""
    s = interp.s
    return elliptic.DomainModel(n=interp.n,
                                truncation_radii=(8.0 * s, 16.0 * s, 32.0 * s),
                                annulus_nodes=density.ANNULUS_NODES)


def rung_mesh(interp):
    """The rung's first-truncation mesh, where choose_delta bisects."""
    return rung_domain(interp).mesh(interp.metric, 8.0 * interp.s)


def simpson_norm(v, w, r, p, n):
    """(|S^{n-1}| integral |v|^p w dr)^{1/p} by scipy's Simpson rule over
    radii r, w the radial volume weight at r: a reference off the mesh."""
    return float((sphere_area(n) * simpson(np.abs(v) ** p * w, x=r))
                 ** (1.0 / p))


@functools.lru_cache(maxsize=None)
def toy_rung():
    return density.deform_rung(toy_split(), 8.0, C_SOB)


@functools.lru_cache(maxsize=None)
def toy_ladder(eps):
    return density.density_deform(toy_metric(), eps, c_S=C_SOB, m=1.0)


def split_residual_report(split):
    """Flux and sup-decay of the remainder on the default mass ladder; the
    flux limit vanishes exactly when the split mass matches the input mass."""
    n = split.n
    radii = np.asarray(DEFAULT_LADDER, dtype=float)
    remainder = metrics.radial_metric(1.0 + split.rem_a, split.rem_b, n,
                                      family="split-remainder",
                                      r_min=split.metric.r_min)
    fluxes = residual_flux(remainder, radii)
    # componentwise sup of the remainder on spheres, exact for radial forms
    sup = np.abs(split.rem_a.value(radii))
    if split.rem_b is not None:
        sup = sup + np.abs(split.rem_b.value(radii))
    norm = 2.0 * (n - 1) * sphere_area(n)
    return {
        "radii": radii,
        "fluxes": fluxes,
        "flux_mass_limit": float(fluxes[-1] / norm),
        "sup_h": sup,
        "sup_slope": trend_slope(radii, sup),
    }


def scalar_bounds_audit(interp):
    """Sampled curvature bounds for one interpolation scale.

    Reports the minimum over the untouched region {r <= 2s}, the transition
    maximum of |R| scaled by s^n, the sup over the exact-conformal tail
    {r >= 3s}, and the L^{2n/(n+2)} norm of R over the transition annulus.
    """
    s, n = interp.s, interp.n
    r_min = interp.metric.r_min
    r_in = np.geomspace(r_min, 2.0 * s, 401)
    r_tr = np.linspace(s, 4.0 * s, 1604)
    r_out = np.geomspace(3.0 * s, 12.0 * s, 401)
    R_in = interp.scalar_values(r_in)
    R_tr = interp.scalar_values(r_tr)
    R_out = interp.scalar_values(r_out)
    q = 2.0 * n / (n + 2.0)
    r_np = np.geomspace(s, 4.0 * s, 2049)
    _, w = radial_kappa_w(interp.metric, r_np)
    norm = simpson_norm(interp.scalar_values(r_np), w, r_np, q, n)
    return {
        "s": s,
        "min_inner": float(R_in.min()),
        "transition_sup_scaled": float(np.abs(R_tr).max() * s ** n),
        "outer_sup": float(np.abs(R_out).max()),
        "transition_lp_norm": float(norm),
    }


def scalar_ladder_audit(split, s_ladder):
    """Scaling exponents across the s ladder for the interpolation bounds."""
    reports = [scalar_bounds_audit(density.build_interpolated_metric(split, s))
               for s in s_ladder]
    s_arr = np.asarray(s_ladder, dtype=float)
    norms = np.array([rep["transition_lp_norm"] for rep in reports])
    return {
        "s_ladder": s_arr,
        "norms": norms,
        "norm_exponent": trend_slope(s_arr, norms),
        "scaled_sup": float(max(rep["transition_sup_scaled"]
                                for rep in reports)),
        "reports": reports,
    }


@functools.lru_cache(maxsize=None)
def ladder_audit():
    return scalar_ladder_audit(toy_split(), (8.0, 16.0, 32.0))


def test_interpolation_plateaus_are_bitwise():
    split = toy_split()
    interp = density.build_interpolated_metric(split, 8.0)
    r_in = np.geomspace(1.0, 16.0, 41)
    r_out = np.geomspace(24.0, 400.0, 41)
    a_hat = interp.metric.radial_form.a
    assert np.array_equal(a_hat.value(r_in), split.metric.radial_form.a.value(r_in))
    assert np.array_equal(a_hat.d1(r_in), split.metric.radial_form.a.d1(r_in))
    assert np.array_equal(a_hat.value(r_out), split.base.radial_form.a.value(r_out))
    assert np.array_equal(interp.u_eff.value(r_in),
                          split.metric.radial_form.a.value(r_in) ** 0.25)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(s=st.floats(2.0, 64.0))
def test_blend_stays_between_branches(s):
    split = toy_split()
    interp = density.build_interpolated_metric(split, s)
    r = np.linspace(2.0 * s, 3.0 * s, 101)
    a = split.metric.radial_form.a.value(r)
    b = split.base.radial_form.a.value(r)
    mixed = interp.metric.radial_form.a.value(r)
    lo = np.minimum(a, b) - 1e-15
    hi = np.maximum(a, b) + 1e-15
    assert np.all((mixed >= lo) & (mixed <= hi))


def test_interpolation_scale_validated():
    with pytest.raises(ConfigError):
        density.build_interpolated_metric(toy_split(), 1.0)
    with pytest.raises(ConfigError):
        density.build_interpolated_metric(toy_split(), 0.5)


def test_interpolation_needs_radial_form():
    flat = metrics.from_evaluator(
        lambda X: np.repeat(np.eye(3)[None], len(np.atleast_2d(X)), axis=0),
        3, family="flat-ev")
    split = density.split_schwarzschild(flat, 1.0)
    assert not split.is_radial
    with pytest.raises(ConfigError):
        density.build_interpolated_metric(split, 8.0)


def test_interpolation_refuses_an_xhat_xhat_term_at_build_time():
    a = toy_metric().radial_form.a
    split = density.split_schwarzschild(
        metrics.radial_metric(a, radial.power(0.01, -2.0), 3), 1.0)
    with pytest.raises(ConfigError, match="no xhat xhat term"):
        density.build_interpolated_metric(split, 8.0)


def test_interpolation_of_a_b_free_input_needs_no_conformal_factor():
    # the toy's a(r) delta without conformal_u: the same ghat_s curvature
    bare = metrics.radial_metric(toy_metric().radial_form.a, None, 3)
    assert bare.conformal_u is None
    interp = density.build_interpolated_metric(
        density.split_schwarzschild(bare, 1.0), 8.0)
    r = np.geomspace(1.0, 40.0, 101)
    ref = density.build_interpolated_metric(toy_split(), 8.0)
    assert np.array_equal(interp.scalar_values(r), ref.scalar_values(r))


def test_residual_flux_detects_mass_mismatch():
    right = split_residual_report(toy_split())
    assert abs(right["flux_mass_limit"]) <= 1e-2
    # r^-2 remainder: sup decays two orders, flux limit vanishes
    assert abs(right["sup_slope"] + 2.0) <= 0.15
    assert np.all(np.diff(right["sup_h"]) < 0)

    wrong = split_residual_report(
        density.split_schwarzschild(toy_metric(), 0.8))
    # the unsplit 0.2/r piece shows up as exactly the missing mass
    assert abs(wrong["flux_mass_limit"] - 0.2) <= 1e-2
    assert abs(wrong["sup_slope"] + 1.0) <= 0.05


def test_transition_norm_ladder_decays():
    audit = ladder_audit()
    assert abs(audit["norms"][0] - 9.79475255e-01) <= 1e-6 * 9.79475255e-01
    # decay bound allows any slope <= -0.35; this remainder gives 1/2 - 2
    assert audit["norm_exponent"] <= -0.35
    assert abs(audit["norm_exponent"] + 1.5) <= 0.1
    assert audit["scaled_sup"] <= 0.2
    for rep in audit["reports"]:
        assert rep["min_inner"] >= 0.0
        assert rep["outer_sup"] <= 1e-12


def test_delta_immediate_accept_at_ceiling():
    interp = density.build_interpolated_metric(toy_split(), 8.0)
    rep = density.choose_delta(interp, C_SOB, rung_mesh(interp))
    assert rep.bisections == 0
    assert rep.delta == rep.delta0
    assert abs(rep.delta - 8.102318092961889e-07) <= 1e-9 * rep.delta
    assert abs(rep.lhs - 7.2384335658e-02) <= 1e-6 * rep.lhs
    assert rep.ceiling_margin == 0.0
    assert rep.smallness_margin >= 0.0


def test_delta_bisection_matches_linear_oracle():
    # zero blend remainder makes the size bound exactly linear in delta,
    # so the accepted value must equal threshold / norm-factor
    interp = density.build_interpolated_metric(sch_split(), 8.0)
    mesh = rung_mesh(interp)
    rep = density.choose_delta(interp, 1e-4, mesh)
    assert rep.bisections == 60
    assert rep.delta < rep.delta0

    eta = radial.window(8.0, 16.0, 24.0, 32.0)

    def integrand(r):
        rr = np.array([r])
        _, w = radial_kappa_w(interp.metric, rr)
        return float(eta.value(rr)[0] ** 1.5 * w[0])

    val, _ = quad(integrand, 8.0, 32.0, limit=200)
    K = (sphere_area(3) * val) ** (2.0 / 3.0)
    target = 0.5e-4 / K
    assert abs(rep.delta - target) <= 1e-8 * target

    # maximality: nudging delta up violates the bound on the solver's grid
    Rv = interp.scalar_values(mesh.r)
    ev = eta.value(mesh.r)

    def lhs(d):
        return elliptic.lp_norm(mesh.wsrc, ev * np.maximum(d - Rv, 0.0), 1.5,
                                3)

    assert lhs(rep.delta) <= rep.threshold
    assert lhs(rep.delta * (1.0 + 1e-9)) > rep.threshold


def test_delta_floor_failure_raises():
    interp = density.build_interpolated_metric(toy_split(), 8.0)
    mesh = rung_mesh(interp)
    with pytest.raises(RegimeError, match="no relaxation constant"):
        density.choose_delta(interp, 0.1, mesh)
    with pytest.raises(ConfigError):
        density.choose_delta(interp, 0.0, mesh)


def test_delta_norm_is_the_smallness_gate_norm():
    """c_n times choose_delta's lhs is the gate's lhs of the rung's
    potential: one rule on one mesh."""
    interp = density.build_interpolated_metric(toy_split(), 8.0)
    dom = rung_domain(interp)
    rep = density.choose_delta(interp, C_SOB, dom.mesh(interp.metric, 64.0))
    cn = density.conformal_constant(3)
    f = cn * radial.window(8.0, 16.0, 24.0, 32.0) \
        * (radial.conformal_scalar(interp.u_eff, 3) - rep.delta)
    prob = elliptic.EllipticProblem(interp.metric, f, support_radius=32.0,
                                    domain=dom)
    small = elliptic.check_smallness(prob, C_SOB)
    assert cn * rep.lhs == pytest.approx(small.lhs, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [8.0, 16.0, 32.0])
def test_ceiling_volume_integral_against_quad(s):
    metric = density.build_interpolated_metric(toy_split(), s).metric
    ref, err = quad(lambda r: radial_kappa_w(metric, [r])[1][0], s, 4.0 * s,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    assert err <= 1e-13 * ref
    # without edges at the blend's C^2 joints 2s and 3s the panels split
    # down around them; with them, as choose_delta has it, they need not
    for edges in ((s, 4.0 * s), (s, 2.0 * s, 3.0 * s, 4.0 * s)):
        got = grids.integrate(lambda r: radial_kappa_w(metric, r)[1], edges,
                              "volume")
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s", [8.0, 16.0, 32.0])
def test_delta_norm_on_the_mesh_against_simpson(s):
    """The mesh's lumped rule against Simpson on 2,049 geometric radii."""
    interp = density.build_interpolated_metric(toy_split(), s)
    rep = density.choose_delta(interp, C_SOB, rung_mesh(interp))
    r = np.geomspace(s, 4.0 * s, 2049)
    neg = radial.window(s, 2.0 * s, 3.0 * s, 4.0 * s).value(r) \
        * np.maximum(rep.delta - interp.scalar_values(r), 0.0)
    ref = simpson_norm(neg, radial_kappa_w(interp.metric, r)[1], r, 1.5, 3)
    assert rep.lhs == pytest.approx(ref, rel=5e-5, abs=0.0)


def test_pick_tau_on_synthetic_blends():
    # n = 3, u = 1: the blend's curvature is (numerator + tau R) / (1 + tau)
    u = np.ones(5)
    numerator = np.array([0.0, 1e-3, 0.2, 0.5, 1.0])
    tau, min_R = density.pick_tau(3, u, numerator, np.zeros(5))
    assert tau == 1.0
    assert min_R == 0.0
    # R = -1 where the numerator is 1e-3: the floor binds near tau = 1e-3
    R = np.array([0.0, -1.0, 0.0, 0.0, 0.0])
    tau, min_R = density.pick_tau(3, u, numerator, R)
    root = (1e-3 - tolerances.MIN_R_TARGET) / (1.0 + tolerances.MIN_R_TARGET)
    assert tau == pytest.approx(root, abs=1e-11)
    assert min_R >= tolerances.MIN_R_TARGET
    # a negative numerator breaks the floor for every admissible tau
    with pytest.raises(RegimeError, match="no admissible tau"):
        density.pick_tau(3, u, numerator - 1e-3, R)


def test_rung_quantities_pinned():
    rung = toy_rung()
    assert abs(rung.A_s + 1.650690044999638e-02) <= 1e-8 * abs(rung.A_s)
    assert abs(rung.tau - 4.910733042664840e-03) <= 1e-6 * rung.tau
    assert abs(rung.m_bar - 0.967147528815785) <= 1e-9
    assert abs(rung.end_norm - 4.7692241051e-03) <= 1e-6 * rung.end_norm
    assert rung.mass_shift == 2.0 * rung.A_s / (1.0 + rung.tau)
    assert rung.m_bar == 1.0 + rung.mass_shift
    assert rung.min_R_bar >= -1.0000001e-08
    assert rung.min_u_tau == (rung.solution.min_u + rung.tau) / (1.0 + rung.tau)
    assert rung.min_u_tau >= rung.tau / (1.0 + rung.tau)
    assert abs(rung.solution.A_fit - rung.A_s) <= 1e-2 * max(1.0, abs(rung.A_s))


def test_rung_row_keys():
    row = toy_rung().to_row()
    assert set(row) == {"s", "delta_s", "A_integral", "A_fit", "tau",
                        "m_bar", "min_R", "end_norm"}
    assert row["delta_s"] == toy_rung().delta_report.delta


def test_deformed_curvature_matches_finite_differences():
    rung = toy_rung()
    interp = density.build_interpolated_metric(toy_split(), 8.0)
    eta = radial.window(8.0, 16.0, 24.0, 32.0)

    def closed_form(r):
        Rv = interp.scalar_values(r)
        ev = eta.value(r)
        uv = rung.solution.u_at(r)
        num = ((1.0 - ev) * Rv + rung.delta_report.delta * ev) * uv \
            + rung.tau * Rv
        return (1.0 + rung.tau) ** 4.0 * (uv + rung.tau) ** -5.0 * num

    r_mid = np.array([17.8, 20.0, 22.2])
    pts = np.zeros((3, 3))
    pts[:, 0] = r_mid
    fd = curvature.scalar_curvature_bartnik(rung.metric_bar, pts)
    assert np.abs(closed_form(r_mid) - fd).max() <= 1e-6

    inner = np.array([[2.5, 1.0, 0.3]])
    fd_in = curvature.scalar_curvature_bartnik(rung.metric_bar, inner)
    r_in = np.sqrt((inner ** 2).sum(axis=1))
    assert abs(closed_form(r_in)[0] - fd_in[0]) <= 3e-5


def test_ladder_reaches_target_and_halves():
    rep = toy_ladder(0.01)
    assert rep.achieved
    assert len(rep.rungs) == 3
    shifts = np.array([abs(r.mass_shift) for r in rep.rungs])
    pinned = np.array([3.2852471184e-02, 1.6243940282e-02, 7.9715538607e-03])
    assert np.all(np.abs(shifts - pinned) <= 1e-6 * pinned)
    ratios = shifts[1:] / shifts[:-1]
    assert np.all((ratios >= 0.42) & (ratios <= 0.58))
    slope = trend_slope(np.array([8.0, 16.0, 32.0]), shifts)
    assert abs(slope + 1.0) <= 0.1
    assert abs(rep.m_bar - 0.992028446139) <= 1e-9


def test_ladder_flags_unreached_target():
    rep = toy_ladder(2e-3)
    assert not rep.achieved
    assert len(rep.rungs) == 3


def test_ladder_report_serializes():
    jd = toy_ladder(0.01).to_json_dict()
    assert set(jd) == {"m_input", "c_S", "eps_target", "achieved", "m_bar",
                       "rungs"}
    assert len(jd["rungs"]) == 3
    json.dumps(jd)


def test_mass_shift_cross_check():
    chk = density.verify_mass_shift(toy_ladder(0.01))
    assert chk["passed"]
    assert chk["error"] <= 1e-4


def test_growing_shift_aborts_ladder():
    # r^-1/2 remainder violates the decay assumption: shifts grow ~ s^1/2
    u = metrics.schwarzschild_factor(0.5, 3) + radial.power(0.005, -0.5)
    slow = metrics.conformally_flat(u, 3, family="slow")
    with pytest.raises(RegimeError, match="not decreasing"):
        density.density_deform(slow, 1e-6, c_S=20.0, m=0.5)


def test_negative_curvature_input_rejected():
    ub = radial.const(1.0) + radial.gaussian(0.3, 3.0, 0.5)
    bumped = metrics.conformally_flat(ub, 3, family="bumped")
    with pytest.raises(RegimeError):
        density.audit_nonnegative_scalar(bumped, 64.0)
    assert density.audit_nonnegative_scalar(toy_metric(), 64.0) >= 0.0
    with pytest.raises(ConfigError):
        density.density_deform(toy_metric(), 0.0)


def test_trivial_input_stays_within_ceiling():
    rung = density.deform_rung(sch_split(), 8.0, C_SOB)
    # delta_s > 0 forces a small positive mass move; bound it by the
    # potential ceiling c_n * delta * sup(u) * vol / ((n-2) |S^2|)
    dr = rung.delta_report
    ceiling = density.conformal_constant(3) * dr.delta * 1.01 * dr.volume \
        / (4.0 * np.pi)
    assert rung.A_s >= 0.0
    assert rung.A_s <= ceiling
    assert abs(rung.A_s - 7.8945223312e-04) <= 1e-6 * rung.A_s
    assert rung.tau == 1.0
    assert abs(rung.mass_shift) == rung.A_s


def test_defaults_pull_mass_and_constant():
    rep = density.density_deform(toy_metric(), 0.05, s_ladder=(8.0,))
    assert abs(rep.m_input - 1.0) <= 3e-4
    assert 5.4 < rep.c_S < 12.0
    assert rep.achieved and len(rep.rungs) == 1
    assert rep.final.delta_report.threshold == rep.c_S / 2.0


def failing_gate(check):
    """check_smallness with its verdict forced to a failure."""
    def check_and_fail(problem, c_S):
        report = check(problem, c_S)
        report.passed = False
        return report
    return check_and_fail


def test_rung_size_bound_failure_raises_from_the_solver_gate(monkeypatch):
    monkeypatch.setattr(density, "check_smallness",
                        failing_gate(density.check_smallness))
    with pytest.raises(RegimeError, match="negative-part size"):
        density.deform_rung(toy_split(), 8.0, C_SOB)


def test_tau_blend_profile_matches_scipy_cubic_spline():
    """The not-a-knot profile of a solved factor against CubicSpline on the
    same nodes: jets to order 3 inside the nodes, between them and in
    extrapolation on both sides; higher jets vanish."""
    sol = toy_rung().solution
    mask = ~sol.mesh.is_cyl
    r, u = sol.mesh.r[mask], sol.u[mask]
    ref = CubicSpline(r, u)
    prof = radial.cubic_hermite(r, u, density._not_a_knot_slopes(r, u))
    x = np.concatenate([np.geomspace(0.5 * r[0], r[0], 40), r,
                        np.sqrt(r[:-1] * r[1:]),
                        np.geomspace(r[-1], 2.0 * r[-1], 40)])
    jet = prof.jet(x, 5)
    for j in range(4):
        want = ref(x, j)
        assert np.abs(jet[j] * factorial(j) - want).max() \
            <= 1e-13 * max(1.0, np.abs(want).max())
    assert not jet[4:].any()

