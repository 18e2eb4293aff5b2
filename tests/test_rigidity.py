"""Negative-mass probe tests: scalar bump device and Ricci perturbation."""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad, solve_ivp

from masskit import curvature, metrics, oracles, radial, rigidity
from masskit.adm import adm_mass
from masskit.density import conformal_constant
from masskit.errors import ConfigError, RegimeError
from masskit.grids import radial_kappa_w
from masskit.rigidity import (RigidityProbeSpec, _ricci_magnitude,
                              ricci_perturbed_metric, perturbed_scalar_spline,
                              rigidity_probe_ricci, rigidity_probe_scalar)
from test_density import failing_gate


def bump_metric():
    w = radial.const(1.0) + radial.bubble(0.4)
    return metrics.conformally_flat(w, 3, family="bubble-device", q=5.0)


def bump_eta():
    return radial.window(1.2, 1.8, 3.0, 3.8)


@lru_cache(maxsize=1)
def scalar_report():
    return rigidity_probe_scalar(bump_metric(), bump_eta(), (1.2, 3.8))


def scalar_oracle_problem():
    """Metric, potential and support radius of the scalar probe's oracle."""
    g = bump_metric()
    eta = bump_eta()
    Rfun = radial.conformal_scalar(g.conformal_u, 3)
    cn = conformal_constant(3)

    def f(r):
        r = np.asarray(r, dtype=float)
        return cn * eta.value(r) * Rfun(r)

    return g, f, 3.8


@lru_cache(maxsize=1)
def scalar_oracle_A():
    return oracles.shoot_conformal_factor(*scalar_oracle_problem()).A


def ricci_spec(**overrides):
    spec = RigidityProbeSpec(eta=radial.window(1.5, 2.0, 3.0, 3.5),
                             bump=(1.5, 3.5),
                             eta_tilde=radial.window(1.2, 1.8, 3.2, 4.0),
                             bump_tilde=(1.2, 4.0))
    return dataclasses.replace(spec, **overrides) if overrides else spec


@lru_cache(maxsize=1)
def ricci_report():
    return rigidity_probe_ricci(metrics.schwarzschild(1.0, 3), ricci_spec())


def test_scalar_probe_certifies_mass_drop():
    rep = scalar_report()
    assert abs(rep.A - -0.137568969669) < 1e-9
    assert abs(rep.A_fit - -0.137000674389) < 1e-9
    assert abs(rep.m_input - 0.798686274909) < 1e-9
    assert abs(rep.m_bar - 0.660816892035) < 1e-9
    assert rep.A < 0.0
    assert rep.m_bar < rep.m_input
    # averaged factor (u+1)/2 halves the doubled coefficient: gap tracks A,
    # not 2A
    assert abs(rep.m_bar - rep.m_input - rep.A) <= 0.01 * abs(rep.A)
    assert rep.min_factor >= 0.5
    assert abs(rep.min_factor - 0.971740842471) < 1e-9


def test_scalar_probe_matches_shooting_reference():
    rep = scalar_report()
    assert abs(rep.A - scalar_oracle_A()) <= 1e-4
    assert abs(rep.A - scalar_oracle_A()) < 5e-6


def test_scalar_probe_flat_input_is_neutral():
    g = metrics.conformally_flat(radial.const(1.0), 3)
    rep = rigidity_probe_scalar(g, bump_eta(), (1.2, 3.8))
    assert rep.A == 0.0
    assert rep.min_factor == 1.0
    assert rep.m_bar == rep.m_input


def test_scalar_probe_rejects_sign_changing_bump():
    w = radial.const(1.0) + radial.gaussian(-0.05, 2.0, 0.5)
    g = metrics.conformally_flat(w, 3)
    with pytest.raises(RegimeError, match="dips"):
        rigidity_probe_scalar(g, bump_eta(), (1.2, 3.8))


def test_scalar_probe_validates_input_shape():
    flat = metrics.from_evaluator(metrics.euclidean(3).evaluator, 3)
    with pytest.raises(ConfigError, match="conformally flat"):
        rigidity_probe_scalar(flat, bump_eta(), (1.2, 3.8))
    with pytest.raises(ConfigError, match="chart cut"):
        rigidity_probe_scalar(bump_metric(), bump_eta(), (0.5, 3.8))


def test_ricci_probe_walks_delta_ladder_to_negative():
    rep = ricci_report()
    assert not rep.failed
    want = (0.0511291154169, 0.00421132618103, -0.000412023979764)
    for got, ref in zip(rep.A_values, want):
        assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))
    assert all(np.diff(rep.A_values) < 0.0)
    assert rep.A == rep.A_values[-1]
    assert rep.A < 0.0


def test_ricci_probe_margins_and_final_metric():
    rep = ricci_report()
    assert abs(rep.eigenvalue_margin - 0.218906348747) < 1e-8
    assert rep.eigenvalue_margin > 0.0
    assert abs(rep.negative_part_norm - 0.629447) < 1e-5
    assert rep.negative_part_norm < rep.negative_part_threshold == 0.75
    assert abs(rep.tau - 0.00192662249663) < 1e-9
    # tau is maximal: the curvature floor binds from below
    assert -1.001e-8 <= rep.min_R_tilde <= -1e-9
    assert abs(rep.m_tilde - 0.99992209168) < 1e-9
    assert rep.m_tilde < rep.m_input


def test_ricci_probe_mass_matches_flux_integral():
    rep = ricci_report()
    radii = 64.0 * np.array([0.12109375, 0.2421875, 0.484375, 0.96875])
    measured = adm_mass(rep.metric_tilde, radii=radii).extrapolated
    assert abs(measured - rep.m_tilde) < 5e-6


def test_ricci_probe_matches_shooting_reference():
    rep = ricci_report()
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    gbar = ricci_perturbed_metric(g, spec.eta, spec.bump, spec.epsilon)
    R_fun = perturbed_scalar_spline(gbar, spec.bump, g.r_min)
    cn = conformal_constant(3)

    def f(r):
        r = np.asarray(r, dtype=float)
        return cn * (R_fun(r) - 1e-4 * spec.eta_tilde.value(r))

    sh = oracles.shoot_conformal_factor(gbar, f, 4.0)
    assert abs(rep.A - sh.A) < 1e-5


def test_perturbed_metric_jet_gives_the_closed_form_curvature():
    """The xhat xhat term b = -eps eta beta of the perturbed radial form is
    what makes its exact jet right: the curvature kernel on that jet
    reproduces the closed-form scalar on the bump (without b it misses by
    8.6e-3)."""
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    gbar = ricci_perturbed_metric(g, spec.eta, spec.bump, spec.epsilon)
    r = np.linspace(1.55, 3.45, 39)
    X = r[:, None] * curvature.sample_directions(3, r.size, rng=0)
    R_jet = curvature.scalar_curvature_bartnik(gbar, X)
    R_fun = perturbed_scalar_spline(gbar, spec.bump, g.r_min)
    assert np.abs(R_jet - R_fun(r)).max() <= 1e-12


@pytest.mark.parametrize("overrides", [
    {"bump": (1.5, 3.0)},
    {"eta_tilde": radial.window(1.2, 1.8, 3.2, 4.5)}],
    ids=["eta", "eta_tilde"])
def test_cutoff_must_vanish_outside_its_interval(overrides):
    """A cutoff that reaches beyond its stated interval is refused: the
    perturbed curvature is masked to the interval, so eta = window(1.5, 2,
    3, 3.5) on bump (1.5, 3) ran and reported A = -3.44e-4 against
    -4.12e-4."""
    g = metrics.schwarzschild(1.0, 3)
    with pytest.raises(ConfigError, match="outside its interval"):
        rigidity_probe_ricci(g, ricci_spec(**overrides))


def test_scalar_probe_cutoff_must_vanish_outside_its_bump():
    with pytest.raises(ConfigError, match="outside its interval"):
        rigidity_probe_scalar(bump_metric(), bump_eta(), (1.2, 3.5))


def ricci_oracle_problem():
    """Metric, relaxed potential and support radius of the Ricci probe's
    oracle.  The potential is continuous; its first derivative jumps where
    the cutoff eta's third derivative does, at r = 1.5, 2, 3 and 3.5."""
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    gbar = ricci_perturbed_metric(g, spec.eta, spec.bump, spec.epsilon)
    R_fun = perturbed_scalar_spline(gbar, spec.bump, g.r_min)
    cn = conformal_constant(3)

    def f(r):
        r = np.asarray(r, dtype=float)
        return cn * (R_fun(r) - 1e-4 * spec.eta_tilde.value(r))

    return gbar, f, 4.0


def single_system_A(metric, f, rf):
    """A from one outward DOP853 integration of (u, kappa u') in r at the
    tightest tolerances scipy accepts, with the oracle's tail quadrature."""
    def rhs(r, y):
        kap, w = radial_kappa_w(metric, [r])
        return [y[1] / kap[0], f(np.array([r]))[0] * y[0] * w[0]]

    sol = solve_ivp(rhs, (metric.r_min, rf), [1.0, 0.0], method="DOP853",
                    rtol=100 * np.finfo(float).eps, atol=1e-18)
    assert sol.success
    u, phi = sol.y[:, -1]
    tail = quad(lambda s: 1.0 / radial_kappa_w(metric, [s])[0][0], rf,
                np.inf, limit=200, epsabs=1e-10, epsrel=1e-10)[0]
    return -phi / ((metric.n - 2) * (u + phi * tail))


def euclidean_gaussian_problem():
    return metrics.euclidean(3), radial.gaussian(0.15, 3.0, 0.7), 6.5


def schwarzschild_four_problem():
    return metrics.schwarzschild(0.8, 4), radial.gaussian(0.15, 3.0, 0.7), 6.5


# Measured relative errors of the oracle against this reference: Ricci
# 8.5e-9, scalar 3.2e-14, the Gaussians 8.8e-15 (flat) and 1.6e-15
# (Schwarzschild, n = 4).  On the Ricci problem the reference itself is 7e-9
# from an integration split at every kink of the cutoffs (r = 1.2, 1.5, 1.8,
# 2, 3, 3.2, 3.5).
@pytest.mark.parametrize("problem,bound", [(ricci_oracle_problem, 5e-8),
                                           (scalar_oracle_problem, 5e-10),
                                           (euclidean_gaussian_problem, 1e-11),
                                           (schwarzschild_four_problem, 1e-11)])
def test_shooting_oracle_matches_single_system_reference(problem, bound):
    metric, f, rf = problem()
    ref = single_system_A(metric, f, rf)
    A = oracles.shoot_conformal_factor(metric, f, rf).A
    assert abs(A / ref - 1.0) <= bound


@pytest.mark.parametrize("problem", [euclidean_gaussian_problem,
                                     ricci_oracle_problem])
def test_shooting_samples_each_splitting_level_in_one_call(monkeypatch,
                                                           problem):
    # inside [r_min, r_f] the oracle alternates one radial_kappa_w call and
    # one f call at the same radii, one pair per level; the tail quadrature
    # samples beyond r_f
    metric, f, rf = problem()
    expected = oracles.shoot_conformal_factor(metric, f, rf).A
    calls = []
    kappa_w = oracles.radial_kappa_w

    def counted_kappa_w(metric, r):
        if np.max(r) <= rf:
            calls.append(("kappa_w", np.size(r)))
        return kappa_w(metric, r)

    def counted_f(r):
        calls.append(("f", np.size(r)))
        return f(r)

    monkeypatch.setattr(oracles, "radial_kappa_w", counted_kappa_w)
    sh = oracles.shoot_conformal_factor(metric, counted_f, rf)
    assert sh.A == expected
    assert [c[0] for c in calls] == ["kappa_w", "f"] * (len(calls) // 2)
    sizes = [c[1] for c in calls[::2]]
    assert sizes == [c[1] for c in calls[1::2]]
    assert sum(sizes) == sh.nfev
    # the first level samples every initial panel, later ones split pairs
    assert sizes[0] == oracles._PANELS * oracles._NODES
    assert all(k % (2 * oracles._NODES) == 0 for k in sizes[1:])


def test_ricci_perturbation_is_compact_and_positive():
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    gbar = ricci_perturbed_metric(g, spec.eta, spec.bump, spec.epsilon)
    X_out = np.array([[5.0, 0.0, 0.0], [0.0, 0.0, 1.4], [8.0, 8.0, 8.0]])
    assert np.array_equal(gbar.g(X_out), g.g(X_out))
    X_in = np.array([[2.0, 0.0, 0.0], [0.0, 2.5, 0.0]])
    assert np.abs(gbar.g(X_in) - g.g(X_in)).max() > 1e-3
    gbar.check_pointwise(np.array([[2.0, 0.0, 0.0], [1.1, 1.1, 1.1]]))


@given(eps=st.floats(0.005, 0.1))
def test_ricci_perturbation_stays_definite(eps):
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    gbar = ricci_perturbed_metric(g, spec.eta, spec.bump, eps)
    chk = gbar.check_pointwise(np.array([[1.7, 0.0, 0.0], [2.0, 1.0, 0.5],
                                         [0.0, 3.3, 0.0]]))
    assert chk["min_eigenvalue"] > 0.0


# perturbation sizes of the Ricci linearity audit
_LINEARITY_EPS = (0.01, 0.005)


def ricci_linearity_audit(metric, eta, bump):
    """First-order response audit for the Ricci perturbation.

    For each epsilon of _LINEARITY_EPS the scalar curvature of the perturbed
    metric is sampled at the bump center and integrated against the volume
    weight; linearity in epsilon and agreement of the integral with epsilon
    times the squared Ricci content certify the construction to leading
    order.
    """
    lo, hi = float(bump[0]), float(bump[1])
    r_probe = 0.5 * (lo + hi)
    quad_r = np.linspace(lo, hi, 4001)
    ric2 = _ricci_magnitude(metric, quad_r) ** 2
    w_g = radial_kappa_w(metric, quad_r)[1]
    content = np.trapezoid(eta.value(quad_r) * ric2 * w_g, quad_r)

    probe_values, integrals, first_order = [], [], []
    for eps in _LINEARITY_EPS:
        gb = ricci_perturbed_metric(metric, eta, bump, float(eps))
        R_fun = perturbed_scalar_spline(gb, bump, metric.r_min)
        probe_values.append(float(R_fun(np.array([r_probe]))[0]))
        w_b = radial_kappa_w(gb, quad_r)[1]
        lhs = float(np.trapezoid(R_fun(quad_r) * w_b, quad_r))
        integrals.append(lhs)
        first_order.append(lhs / (float(eps) * content))

    scaled = np.asarray(probe_values) / np.asarray(_LINEARITY_EPS)
    linear_deviation = float(np.abs(scaled / scaled[0] - 1.0).max())
    return {"eps_ladder": list(_LINEARITY_EPS),
            "probe_values": probe_values, "integrals": integrals,
            "first_order_ratios": first_order,
            "linear_deviation": linear_deviation}


def test_ricci_response_is_first_order():
    g = metrics.schwarzschild(1.0, 3)
    spec = ricci_spec()
    aud = ricci_linearity_audit(g, spec.eta, spec.bump)
    assert aud["eps_ladder"] == [0.01, 0.005]
    assert aud["linear_deviation"] <= 0.1
    assert aud["linear_deviation"] < 0.01
    for ratio in aud["first_order_ratios"]:
        assert abs(ratio - 1.0) < 0.05
    assert abs(aud["probe_values"][0] - 2.75931372e-05) < 1e-10


def test_ricci_probe_failure_report_keeps_margins():
    rep = rigidity_probe_ricci(metrics.schwarzschild(1.0, 3),
                               ricci_spec(delta_ladder=(0.05,)))
    assert rep.failed
    assert rep.A > 0.0
    assert rep.tau is None and rep.m_tilde is None
    assert rep.eigenvalue_margin > 0.0


def test_ricci_probe_preconditions():
    spec = ricci_spec()
    with pytest.raises(RegimeError, match="nothing to perturb"):
        rigidity_probe_ricci(metrics.euclidean(3), spec)
    with pytest.raises(RegimeError, match="scalar-flat"):
        rigidity_probe_ricci(bump_metric(), spec)
    with pytest.raises(RegimeError, match="too large"):
        rigidity_probe_ricci(metrics.schwarzschild(1.0, 3),
                             ricci_spec(epsilon=0.12))


def test_ricci_spec_validation():
    g = metrics.schwarzschild(1.0, 3)
    with pytest.raises(ConfigError, match="positive"):
        ricci_spec(epsilon=0.0).validate(g)
    with pytest.raises(ConfigError, match="decreasing"):
        ricci_spec(delta_ladder=(1e-3, 1e-2)).validate(g)
    with pytest.raises(ConfigError, match="floor"):
        ricci_spec(eta_tilde=radial.window(2.4, 2.6, 2.8, 3.0)).validate(g)
    with pytest.raises(ConfigError, match="\\[0, 1\\]"):
        ricci_spec(eta=radial.window(1.5, 2.0, 3.0, 3.5) * 2.0).validate(g)
    assert 0.5 <= ricci_spec().validate(g) < 0.51


@pytest.mark.parametrize("probe", [
    lambda: rigidity_probe_scalar(bump_metric(), bump_eta(), (1.2, 3.8)),
    lambda: rigidity_probe_ricci(metrics.schwarzschild(1.0, 3), ricci_spec())],
    ids=["scalar", "ricci"])
def test_probe_size_bound_failure_raises_from_the_solver_gate(monkeypatch,
                                                              probe):
    monkeypatch.setattr(rigidity, "check_smallness",
                        failing_gate(rigidity.check_smallness))
    with pytest.raises(RegimeError, match="negative-part size"):
        probe()
