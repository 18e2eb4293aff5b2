"""Surface-integral masses: anchors, extrapolation, flux residuals."""
import numpy as np
import pytest

from masskit import adm, metrics, radial
from masskit.errors import ConfigError, DegenerateMetricError, DomainError
from masskit.grids import sphere_quadrature


def residual_flux(field, radii):
    """Un-normalized fluxes of a difference field on a radius ladder.

    `field` is a metric-like evaluator holding the difference part (stored
    against any constant background; only derivatives enter the flux).
    A vanishing limit certifies that the subtracted profile carried the
    entire mass.
    """
    nodes = sphere_quadrature(field.n, adm.DEFAULT_QUADRATURE_ORDER)
    return np.array([adm.surface_flux(field, rho, nodes)
                     for rho in np.asarray(radii, dtype=float)])


def trend_slope(radii, values):
    """Log-log slope of |values| against radii, ignoring entries at or
    below 1e-14."""
    radii = np.asarray(radii, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    keep = values > 1e-14
    if keep.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(radii[keep]), np.log(values[keep]), 1)[0])


def residual_flux_pass(radii, fluxes, tol=1e-3):
    """True when the last flux is below tol and the tail is not growing."""
    radii = np.asarray(radii, dtype=float)
    fluxes = np.asarray(fluxes, dtype=float)
    if abs(fluxes[-1]) > tol:
        return False
    if fluxes.size >= 2 and abs(fluxes[-1]) > abs(fluxes[0]) + tol:
        return False
    return True


def ale_mass(cover_metric, group_order):
    """Quotient mass: the cover mass divided by the group order."""
    if group_order < 1:
        raise ConfigError("group order must be a positive integer")
    return adm.adm_mass(cover_metric).extrapolated / group_order


def tilted_perturbation(c=0.1):
    """h_ij = c x_i x_j r^{-4} in three dimensions: m(rho) = c/(2 rho)."""
    def h(X):
        r2 = (X ** 2).sum(axis=1)
        return c * X[:, :, None] * X[:, None, :] * r2[:, None, None] ** -2.0

    def dh(X):
        N, n = X.shape
        r2 = (X ** 2).sum(axis=1)
        I = np.eye(n)
        out = c * (I[None, :, :, None] * X[:, None, None, :]
                   + I[None, :, None, :] * X[:, None, :, None]) \
            * r2[:, None, None, None] ** -2.0
        out += c * X[:, :, None, None] * X[:, None, :, None] \
            * X[:, None, None, :] * (-4.0) * r2[:, None, None, None] ** -3.0
        return out

    return metrics.perturbed(metrics.euclidean(3), h, dh_evaluator=dh)


def angular_mass_perturbation(scale=0.1):
    """Direction-dependent trace perturbation with extrapolated mass 1/15."""
    v = np.array([0.6, -0.3, 0.74])
    v /= np.linalg.norm(v)

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        s = (X @ v) / r
        f = scale * (1.0 + s ** 2)
        return f[:, None, None] * np.eye(3)[None] / r[:, None, None]

    return metrics.perturbed(metrics.euclidean(3), h)


@pytest.mark.parametrize("m_true", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_schwarzschild_mass_ladder(m_true):
    rep = adm.adm_mass(metrics.schwarzschild(m_true, 3))
    assert abs(rep.extrapolated - m_true) <= 0.01 * max(1.0, abs(m_true))


def test_schwarzschild_partial_closed_form():
    # normalized flux at rho is exactly m (1 + m/(2 rho))^3 for the slice
    m = metrics.schwarzschild(1.0, 3)
    got = adm.adm_surface_integral(m, 32.0)
    assert abs(got - (1.0 + 1.0 / 64.0) ** 3) < 1e-12
    assert abs(got - 1.0) < 0.05   # within O(1/rho) of the mass


def test_quadrature_agrees_with_closed_form():
    for n, rho in ((3, 32.0), (4, 16.0)):
        m = metrics.schwarzschild(1.0, n)
        q = adm.adm_surface_integral(m, rho, method="quadrature")
        c = adm.adm_surface_integral(m, rho, method="closed_form")
        assert abs(q - c) < 1e-12
    b = radial.gaussian(0.2, 3.0, 1.0)
    cases = [metrics.schwarzschild(1.0, n) for n in range(3, 8)]
    cases += [metrics.radial_metric(radial.const(1.0)
                                    + radial.power(0.5, -1.0), b, 3)]
    for m in cases:
        for rho in (2.5, 3.0, 8.0, 64.0):
            c = adm.adm_surface_integral(m, rho, method="closed_form")
            # the angular reduction (1/2) rho^{n-1} (b(rho)/rho - a'(rho))
            (_, a1), (b0, _) = radial.jets((m.radial_form.a, m.radial_form.b),
                                           np.array([rho]), 1)
            ref = 0.5 * rho ** (m.n - 1) * (b0[0] / rho - a1[0])
            assert abs(c - ref) <= 1e-12 * abs(ref)
            if m.n <= 5:   # the order-8 product rule outgrows tier-1 above
                q = adm.adm_surface_integral(m, rho, order=8,
                                             method="quadrature")
                assert abs(q - c) <= 1e-12 * abs(c)


def test_close_ladder_extrapolates_from_its_own_spacing():
    # an arithmetic ladder: the order comes from the spacing of each
    # difference, not from the last ratio alone
    radii = [20.0, 22.0, 24.0, 26.0]
    rep = adm.adm_mass(metrics.schwarzschild(1.0, 3), radii=radii)
    assert rep.method == "closed_form"
    assert abs(rep.extrapolated - 1.0) < 0.01
    assert not rep.low_confidence
    assert abs(rep.observed_order - 1.0) < 0.1
    # an exact power-law tail is recovered exactly on an uneven ladder
    r = np.array([8.0, 12.0, 20.0, 26.0])
    m_inf, p, low = adm.extrapolate_ladder(r, 1.0 + 0.7 * r ** -1.5, 3)
    assert abs(m_inf - 1.0) < 1e-12 and abs(p - 1.5) < 1e-9 and not low


def test_clamped_order_is_low_confidence():
    # a tail slower than rho^{-1/2} clamps the order and flags the limit
    for r in (np.array([8.0, 16.0, 32.0, 64.0]),
              np.array([20.0, 22.0, 24.0, 26.0])):
        _, p, low = adm.extrapolate_ladder(r, 1.0 + r ** -0.2, 3)
        assert p == 0.5 and low


def test_closed_form_needs_radial_profile():
    Q = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
    for chart in (angular_mass_perturbation(),
                  metrics.rotate(metrics.schwarzschild(1.0, 3), Q)):
        assert chart.radial_form is None
        with pytest.raises(ConfigError, match="radial profile"):
            adm.adm_surface_integral(chart, 8.0, method="closed_form")
        with pytest.raises(ConfigError, match="radial profile"):
            adm.adm_mass(chart, method="closed_form")


def test_conformally_flat_mass_is_twice_coefficient():
    u = radial.const(1.0) + radial.power(0.25, -1.0)
    rep = adm.adm_mass(metrics.conformally_flat(u, 3))
    assert abs(rep.extrapolated - 0.5) < 0.005


def test_euclidean_mass_zero():
    rep = adm.adm_mass(metrics.euclidean(3))
    assert abs(rep.extrapolated) < 1e-10
    assert rep.observed_order is None


def test_dim4_mass_and_order():
    rep = adm.adm_mass(metrics.schwarzschild(1.0, 4))
    assert abs(rep.extrapolated - 1.0) < 0.01
    assert rep.observed_order is not None
    assert abs(rep.observed_order - 2.0) < 0.2


def test_perturbation_partial_masses_exact():
    pert = tilted_perturbation()
    for rho in (8.0, 16.0, 32.0, 64.0):
        got = adm.adm_surface_integral(pert, rho)
        assert abs(got - 0.05 / rho) < 1e-14
    rep = adm.adm_mass(pert)
    assert abs(rep.extrapolated) < 1e-6
    assert abs(rep.observed_order - 1.0) < 1e-6


def test_angular_anchor_and_rotation_invariance():
    pert = angular_mass_perturbation()
    rep = adm.adm_mass(pert)
    assert abs(rep.extrapolated - 1.0 / 15.0) < 1e-9
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    mrot = adm.adm_mass(metrics.rotate(pert, Q)).extrapolated
    assert abs(mrot - rep.extrapolated) <= 1e-3 * abs(rep.extrapolated)


def test_linearized_additivity():
    pert1 = tilted_perturbation(0.08)
    pert2 = angular_mass_perturbation(0.06)
    # strip the analytic-derivative shortcut so all three go through the
    # same differencing, making the linearity cancellation exact
    p1f = metrics.perturbed(metrics.euclidean(3),
                            lambda X: pert1.g(X) - np.eye(3))

    def both(X):
        return (pert1.g(X) - np.eye(3)) + (pert2.g(X) - np.eye(3))

    combined = metrics.perturbed(metrics.euclidean(3), both)
    for rho in (8.0, 32.0):
        a = adm.adm_surface_integral(p1f, rho, method="quadrature")
        b = adm.adm_surface_integral(pert2, rho, method="quadrature")
        c = adm.adm_surface_integral(combined, rho, method="quadrature")
        # the flux integrand is linear in the metric, so partial masses add
        assert abs(c - (a + b)) < 1e-12


def test_residual_flux_decay_and_pass():
    pert = tilted_perturbation()
    radii = np.array([8.0, 16.0, 32.0, 64.0])
    fl = residual_flux(pert, radii)
    expect = 0.8 * np.pi / radii
    assert np.abs(fl - expect).max() < 1e-10
    assert abs(trend_slope(radii, fl) + 1.0) < 1e-6
    assert residual_flux_pass(radii, fl, tol=0.1)
    assert not residual_flux_pass(radii, fl, tol=0.01)


def test_residual_flux_zero_field():
    radii = np.array([8.0, 16.0, 32.0])
    fl = residual_flux(metrics.euclidean(3), radii)
    assert np.abs(fl).max() == 0.0
    assert residual_flux_pass(radii, fl, tol=1e-12)


def test_ale_mass_scaling():
    cover = metrics.schwarzschild(1.0, 4)
    assert abs(ale_mass(cover, 1) - adm.adm_mass(cover).extrapolated) < 1e-14
    assert abs(ale_mass(cover, 2) - 0.5) < 0.005
    v5 = ale_mass(cover, 5)
    assert abs(5.0 * v5 - adm.adm_mass(cover).extrapolated) < 1e-13
    with pytest.raises(ConfigError):
        ale_mass(cover, 0)


def test_nonfinite_metric_samples_raise_in_mass():
    # the flux stencil differences samples at x_1 > 60 on the outer sphere
    base = metrics.schwarzschild(1.0, 3)

    def g(X):
        G = np.array(base.g(X))
        G[X[:, 0] > 60.0] = np.nan
        return G

    with pytest.raises(DegenerateMetricError):
        adm.adm_mass(metrics.from_evaluator(g, 3))


def test_mass_report_validation():
    with pytest.raises(ConfigError):
        adm.adm_mass(metrics.schwarzschild(1.0, 3), radii=[8.0, 16.0])
    with pytest.raises(ConfigError):
        adm.adm_mass(metrics.schwarzschild(1.0, 3), radii=[8.0, 4.0, 16.0])
    with pytest.raises(DomainError):
        adm.adm_surface_integral(metrics.schwarzschild(1.0, 3), 0.5)


def test_mass_report_rows_and_json():
    rep = adm.adm_mass(metrics.schwarzschild(1.0, 3))
    rows = rep.to_csv_rows()
    assert len(rows) == 4
    assert rows[0][0] == 8.0
    assert rows[-1][2] == abs(rep.partial_masses[-1] - rep.extrapolated)
    d = rep.to_json_dict()
    assert d["dimension"] == 3
    assert len(d["partial_masses"]) == 4


def test_oscillating_tail_low_confidence():
    # partial masses alternate in sign along the ladder: no one-sided
    # correction model fits, so the report flags low confidence
    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        f = 0.3 * np.cos(np.pi * np.log2(r)) / r
        return f[:, None, None] * np.eye(3)[None]

    pert = metrics.perturbed(metrics.euclidean(3), h)
    rep = adm.adm_mass(pert)
    assert rep.low_confidence
    assert rep.observed_order is None
