"""Curvature-driven negative-mass probes.

Two constructions certify that leftover local curvature can be converted to a
strictly negative expansion coefficient.  The scalar probe solves the exterior
problem with a nonnegative curvature bump as potential and passes to the
averaged factor (u+1)/2, which halves the coefficient and drops the measured
mass by A.  The Ricci probe subtracts eps * eta * Ric(g) from a scalar-flat
metric, relaxes the potential by a decreasing delta ladder until the
coefficient turns negative, and blends with tau to keep the final curvature
above the audit floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import metrics, radial
from .adm import adm_mass
from .density import ANNULUS_NODES, MASS_FRACTIONS, conformal_constant, \
    pick_tau, tau_blend
from .elliptic import DomainModel, EllipticProblem, check_smallness, \
    radial_lp_norm, solve_conformal_factor
from .errors import ConfigError, RegimeError
from .grids import radial_kappa_w
from .radial import RProfile

RIC_FLOOR = 1e-10
FLATNESS_TOL = 1e-9
# a cutoff counts as vanishing where it stays at or below this
CUTOFF_TOL = 1e-14
# Sobolev constant both probes size their potentials against
PROBE_C_S = 3.0


def _default_domain(metric, support):
    base = 16.0 * max(1.0, np.ceil(float(support) / 4.0))
    return DomainModel(n=metric.n,
                       truncation_radii=(base, 2.0 * base, 4.0 * base),
                       annulus_nodes=ANNULUS_NODES)


def _mass_radii(domain):
    return domain.truncation_radii[-1] * MASS_FRACTIONS


@dataclass
class ScalarProbeReport:
    """Outcome of the nonnegative-bump probe."""
    A: float
    A_fit: float
    m_input: float
    m_bar: float
    min_factor: float
    solution: object
    metric_bar: object


def _bump_interval(metric, bump):
    """(lo, hi) of the bump, which must sit beyond the chart cut."""
    lo, hi = float(bump[0]), float(bump[1])
    if not metric.r_min <= lo < hi:
        raise ConfigError("bump interval [%.3g, %.3g] must sit beyond the "
                          "chart cut r_min = %.3g" % (lo, hi, metric.r_min))
    return lo, hi


def _require_vanishing_off(cutoff, interval, metric, support, name):
    """ConfigError unless the cutoff stays within CUTOFF_TOL of 0 outside
    its stated interval, which the probe reads as its support; sampled from
    the chart cut out to the probe domain's largest truncation radius."""
    lo, hi = float(interval[0]), float(interval[1])
    r = np.geomspace(metric.r_min,
                     _default_domain(metric, support).truncation_radii[-1],
                     4001)
    off = r[(r < lo) | (r > hi)]
    leak = float(np.abs(cutoff.value(off)).max(initial=0.0))
    if leak > CUTOFF_TOL:
        raise ConfigError("%s reaches %.3g outside its interval [%.3g, %.3g]"
                          % (name, leak, lo, hi))


def rigidity_probe_scalar(metric, eta, bump):
    """Certificate that a nonnegative curvature bump forces a mass drop.

    Solves with potential c_n * eta * R(g) (closed-form curvature of the
    conformal input) on the default domain of the bump, requires
    eta * R >= 0 and the size bound against PROBE_C_S, and builds the
    half-shifted metric ((u+1)/2)^{4/(n-2)} g.  The report carries the
    coefficient A < 0 next to the masses measured on the domain's mass
    radii; their gap reproduces A because the averaged factor halves the
    doubled shift.
    """
    n = metric.n
    if metric.conformal_u is None:
        raise ConfigError("scalar probe needs a conformally flat radial "
                          "input with closed-form curvature")
    lo, hi = _bump_interval(metric, bump)
    _require_vanishing_off(eta, bump, metric, hi, "eta")
    Rfun = radial.conformal_scalar(metric.conformal_u, n)
    probe_r = np.linspace(lo, hi, 1601)
    fR = eta.value(probe_r) * Rfun(probe_r)
    if fR.min() < -1e-12:
        raise RegimeError("cutoff-weighted curvature dips to %.3g; the probe "
                          "needs eta * R >= 0" % float(fR.min()))
    dom = _default_domain(metric, hi)
    prob = EllipticProblem(metric, conformal_constant(n) * eta * Rfun,
                           support_radius=hi, domain=dom)
    check_smallness(prob, PROBE_C_S)
    solution = solve_conformal_factor(prob)
    A = solution.A_integral
    if fR.max() > 1e-12 and A >= 0.0:
        raise RegimeError("positive bump produced A = %.3g >= 0 where a "
                          "strictly negative coefficient is forced" % A)
    # tau = 1: the blend (u + 1) * 0.5, since 1 / (1 + 1) is exactly 0.5
    metric_bar = tau_blend(metric, solution, 1.0, "scalar-probe")
    radii = _mass_radii(dom)
    m_input = adm_mass(metric, radii=radii).extrapolated
    m_bar = adm_mass(metric_bar, radii=radii).extrapolated
    return ScalarProbeReport(A=A, A_fit=solution.A_fit, m_input=m_input,
                             m_bar=m_bar,
                             min_factor=(solution.min_u + 1.0) / 2.0,
                             solution=solution, metric_bar=metric_bar)


@dataclass
class RigidityProbeSpec:
    """Bump data for the Ricci perturbation probe.

    eta cuts off the perturbation over the interval bump; the wider cutoff
    eta_tilde relaxes the potential over bump_tilde and must keep a positive
    floor on supp eta so the relaxation reaches the whole bump.  Each cutoff
    must vanish outside its interval.
    """
    eta: RProfile
    bump: tuple
    eta_tilde: RProfile
    bump_tilde: tuple
    epsilon: float = 0.08
    delta_ladder: tuple = (1e-2, 1e-3, 1e-4)

    def validate(self, metric):
        lo, hi = _bump_interval(metric, self.bump)
        tlo, thi = float(self.bump_tilde[0]), float(self.bump_tilde[1])
        if not tlo < thi:
            raise ConfigError("relaxation interval is empty")
        if self.epsilon <= 0.0:
            raise ConfigError("perturbation size must be positive")
        lad = tuple(float(d) for d in self.delta_ladder)
        if not lad or min(lad) <= 0.0 or np.any(np.diff(lad) >= 0.0):
            raise ConfigError("delta ladder must be positive and strictly "
                              "decreasing")
        rr = np.linspace(lo, hi, 1001)
        ev, tv = self.eta.value(rr), self.eta_tilde.value(rr)
        if ev.min() < 0.0 or ev.max() > 1.0 + 1e-12 or tv.min() < 0.0 \
                or tv.max() > 1.0 + 1e-12:
            raise ConfigError("cutoffs must take values in [0, 1]")
        _require_vanishing_off(self.eta, self.bump, metric, thi, "eta")
        _require_vanishing_off(self.eta_tilde, self.bump_tilde, metric, thi,
                               "eta_tilde")
        mask = ev > CUTOFF_TOL
        if not mask.any():
            raise ConfigError("perturbation cutoff vanishes on its bump")
        floor = float(tv[mask].min())
        if floor <= 0.0:
            raise ConfigError("relaxation cutoff must keep a positive floor "
                              "on the bump support (floor %.3g)" % floor)
        return floor


def ricci_perturbed_metric(metric, eta, bump, epsilon):
    """g - epsilon * eta * Ric(g) as a two-profile radial metric.

    The radial form is exactly (a - epsilon eta alpha) delta
    - epsilon eta beta xhat xhat with the jet profiles (alpha, beta) of
    Ric(g), so every derivative of the perturbed metric is exact.  eta
    vanishes outside the bump, where the input metric is reproduced
    bitwise; bump, the support of eta, is taken for the callers and not
    otherwise needed.
    """
    n = metric.n
    if metric.conformal_u is None:
        raise ConfigError("ricci perturbation needs a conformally flat "
                          "radial input")
    alpha, beta = radial.conformal_ricci_profiles(metric.conformal_u, n)
    # the Ricci term first: it asks the factor for two orders more than a does
    a_bar = -epsilon * eta * alpha + metric.radial_form.a
    b_bar = -epsilon * eta * beta
    return metrics.radial_metric(a_bar, b_bar, n, family="ricci-perturbed",
                                 q=metric.q, r_min=metric.r_min)


def perturbed_scalar_spline(metric_bar, bump, r_min):
    """Scalar curvature of the perturbed metric as a masked profile,
    exactly zero off the bump.

    Inside (max(lo, r_min), hi) this is the closed-form radial curvature of
    the metric's radial form (`radial.radial_scalar`); outside, the metric
    is the untouched scalar-flat input and the jet is exactly 0.  Nothing
    is splined: the name stays until a benchmark change can rename it,
    because the benchmark calls it.
    """
    lo, hi = max(float(bump[0]), float(r_min)), float(bump[1])
    form = metric_bar.radial_form
    R = radial.radial_scalar(form.a, form.b, metric_bar.n)
    return RProfile(lambda at, k: np.where((at.r > lo) & (at.r < hi),
                                           at(R, k), 0.0))


def _ricci_magnitude(metric, r):
    """Pointwise metric norm |Ric(g)|_g along the radius for conformal g."""
    n = metric.n
    (al,), (be,) = radial.jets(
        radial.conformal_ricci_profiles(metric.conformal_u, n), r, 0)
    conf = metric.radial_form.a.value(r)
    return np.sqrt((n - 1) * al ** 2 + (al + be) ** 2) / conf


@dataclass
class RicciProbeReport:
    """Outcome of the Ricci perturbation probe."""
    epsilon: float
    delta_ladder: tuple
    A_values: list
    A: float
    tau: Optional[float]
    min_R_tilde: Optional[float]
    eigenvalue_margin: float
    negative_part_norm: float
    negative_part_threshold: float
    m_input: float
    m_tilde: Optional[float]
    failed: bool
    solution: object = None
    metric_tilde: object = None


def rigidity_probe_ricci(metric, spec: RigidityProbeSpec):
    """Negative-mass certificate from a compact Ricci perturbation.

    Requires a scalar-flat conformal input with nonvanishing Ricci tensor on
    the bump.  Builds g - eps * eta * Ric(g), checks the quadratic-form lower
    bound and the size of the negative curvature part, then walks the delta
    ladder; once the coefficient turns negative it blends with the largest
    tau keeping the closed-form curvature of the final metric above the
    audit floor.  A coefficient that stays nonnegative across the whole
    ladder yields a failure report, not an exception.
    """
    n = metric.n
    if metric.conformal_u is None:
        raise ConfigError("ricci probe needs a conformally flat radial input")
    spec.validate(metric)
    lo, hi = float(spec.bump[0]), float(spec.bump[1])
    thi = float(spec.bump_tilde[1])
    cn = conformal_constant(n)

    flat_r = np.linspace(metric.r_min * 1.01, thi, 2001)
    Rg = radial.conformal_scalar(metric.conformal_u, n)(flat_r)
    if np.abs(Rg).max() > FLATNESS_TOL:
        raise RegimeError("input is not scalar-flat (max |R| = %.3g); "
                          "deform it to zero scalar curvature first"
                          % float(np.abs(Rg).max()))
    bump_r = np.linspace(lo, hi, 1201)
    ric_mag = _ricci_magnitude(metric, bump_r) * spec.eta.value(bump_r)
    if ric_mag.max() < RIC_FLOOR:
        raise RegimeError("Ricci tensor vanishes on the bump (max %.3g); "
                          "nothing to perturb" % float(ric_mag.max()))

    gbar = ricci_perturbed_metric(metric, spec.eta, spec.bump, spec.epsilon)
    R_fun = perturbed_scalar_spline(gbar, spec.bump, metric.r_min)

    from .rayleigh import eigenvalue_lower_bound
    eig = eigenvalue_lower_bound(gbar, thi, cn * R_fun)
    if eig.value <= 0.0:
        raise RegimeError("quadratic form not positive over the bump "
                          "(lower bound %.3g)" % eig.value)

    quad_r = np.linspace(lo, hi, 4001)
    neg_norm = radial_lp_norm(np.minimum(R_fun(quad_r), 0.0),
                              radial_kappa_w(gbar, quad_r)[1], quad_r,
                              n / 2.0, n)
    neg_threshold = PROBE_C_S / 4.0
    if neg_norm > neg_threshold:
        raise RegimeError("negative curvature part too large (%.3g > %.3g); "
                          "shrink the perturbation" % (neg_norm, neg_threshold))

    dom = _default_domain(metric, thi)
    A_values = []
    solution = None
    for delta in spec.delta_ladder:
        f = cn * (R_fun - float(delta) * spec.eta_tilde)
        prob = EllipticProblem(gbar, f, support_radius=thi, domain=dom)
        check_smallness(prob, PROBE_C_S)
        solution = solve_conformal_factor(prob)
        A_values.append(solution.A_integral)

    radii = _mass_radii(dom)
    m_input = adm_mass(metric, radii=radii).extrapolated
    A = A_values[-1]
    base = {"epsilon": spec.epsilon, "delta_ladder": tuple(spec.delta_ladder),
            "A_values": A_values, "A": A, "eigenvalue_margin": eig.value,
            "negative_part_norm": neg_norm,
            "negative_part_threshold": neg_threshold, "m_input": m_input}
    if A >= 0.0:
        return RicciProbeReport(tau=None, min_R_tilde=None, m_tilde=None,
                                failed=True, solution=solution, **base)

    delta_min = float(spec.delta_ladder[-1])
    r_tau = np.geomspace(metric.r_min, 0.999 * dom.truncation_radii[-1], 4001)
    uv = solution.u_at(r_tau)
    tau, min_R_tilde = pick_tau(
        n, uv, delta_min * spec.eta_tilde.value(r_tau) * uv, R_fun(r_tau))

    metric_tilde = tau_blend(gbar, solution, tau, "ricci-probe")
    m_tilde = m_input + 2.0 * A / (1.0 + tau)
    return RicciProbeReport(tau=tau, min_R_tilde=min_R_tilde, m_tilde=m_tilde,
                            failed=False, solution=solution,
                            metric_tilde=metric_tilde, **base)
