"""Deformation of an asymptotically flat end to Schwarzschild-conformal form.

For a b-free radial input a(r) delta, the pipeline splits off the leading
conformal profile carrying the mass, interpolates the remainder away across
[2s, 3s] on a growing scale ladder, picks a relaxation constant delta_s,
solves for a conformal correction u_s, and tunes tau so the deformed metric

    g_bar = ((u_s + tau)/(1 + tau))^{4/(n-2)} ghat_s

keeps nonnegative scalar curvature at audit points while the mass moves by
2 A_s / (1 + tau), which shrinks along the ladder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, radial
from .adm import adm_mass
from .elliptic import DomainModel, EllipticProblem, _solve_tridiag, \
    check_smallness, lp_norm, solve_conformal_factor
from .errors import ConfigError, RegimeError
from .grids import integrate, radial_kappa_w, sphere_area
from .radial import RProfile
from .tolerances import MIN_R_TARGET

DELTA_FLOOR = 1e-14
DEFAULT_S_LADDER = (8.0, 16.0, 32.0)
# halvings of choose_delta's bisection below the ceiling value
_DELTA_BISECTIONS = 60
# the input's closed-form scalar curvature must stay at or above this
_INPUT_R_FLOOR = -1e-10
# mass-measurement fractions of the outermost truncation radius, kept inside
# the solved annulus so a blended metric's spline never extrapolates
MASS_FRACTIONS = np.array([0.12109375, 0.2421875, 0.484375, 0.96875])
# annulus nodes over the first truncation of a rung's (and a probe's) domain
ANNULUS_NODES = 1100
# relative tolerance of verify_mass_shift's independent mass check
VERIFY_RTOL = 0.01


def conformal_constant(n):
    """Coefficient (n-2)/(4(n-1)) linking the potential to scalar curvature."""
    return (n - 2.0) / (4.0 * (n - 1.0))


def _blend_profiles(inner: RProfile, outer: RProfile, zeta: RProfile):
    """inner where zeta = 0, outer where zeta = 1, graded mix between.

    The plateau branches return the original profile jets bitwise, so the
    interpolated metric equals its defining branches exactly there.
    """
    mix = inner + zeta * (outer - inner)

    def fn(at, k):
        z = at(zeta, 0)[0]
        return np.where(z <= 0.0, at(inner, k),
                        np.where(z >= 1.0, at(outer, k), at(mix, k)))

    return RProfile(fn)


@dataclass
class SplitState:
    """Input metric written as Schwarzschild-conformal part plus remainder."""

    metric: metrics.MetricSpec
    m: float
    base: metrics.MetricSpec              # the split-off conformal part
    rem_a: RProfile = None                # remainder profiles when radial
    rem_b: RProfile = None

    @property
    def n(self):
        return self.metric.n

    @property
    def is_radial(self):
        return self.rem_a is not None


def split_schwarzschild(metric, m):
    """Write g as (1 + m/(2 r^{n-2}))^{4/(n-2)} delta plus a remainder."""
    n = metric.n
    u_m = metrics.schwarzschild_factor(m, n)
    base = metrics.conformally_flat(u_m, n, family="schwarzschild-part",
                                    r_min=metric.r_min)
    rem_a = rem_b = None
    if metric.radial_form is not None:
        rem_a = metric.radial_form.a - base.radial_form.a
        rem_b = metric.radial_form.b
    return SplitState(metric=metric, m=float(m), base=base,
                      rem_a=rem_a, rem_b=rem_b)


@dataclass
class InterpolatedEnd:
    """ghat_s: the input form up to 2s, Schwarzschild-conformal beyond 3s."""

    split: SplitState
    s: float
    zeta: RProfile
    metric: metrics.MetricSpec
    u_eff: RProfile                       # a_hat^{(n-2)/4}

    @property
    def n(self):
        return self.split.n

    def scalar_values(self, r):
        """R(ghat_s) on radii; closed form via the conformal factor."""
        return radial.conformal_scalar(self.u_eff, self.n)(r)


def build_interpolated_metric(split, s):
    """ghat_s = a_hat(r) delta for s > 1, a_hat blending the input's a into
    the split-off part across [2s, 3s].  The input must be b-free radial,
    a(r) delta; it needs no conformal_u: u_eff = a_hat^{(n-2)/4} gives
    R(ghat_s) in closed form."""
    if s <= 1.0:
        raise ConfigError("interpolation scale s = %.3g must exceed 1" % s)
    if not split.is_radial or split.rem_b is not None:
        raise ConfigError("interpolation needs a radial input a(r) delta "
                          "with no xhat xhat term")
    s = float(s)
    n = split.n
    zeta = radial.transition(2.0 * s, 3.0 * s)
    a_hat = _blend_profiles(split.metric.radial_form.a,
                            split.base.radial_form.a, zeta)
    u_eff = a_hat.powc((n - 2) / 4.0)
    spec = metrics.radial_metric(a_hat, None, n, family="interpolated",
                                 conformal_u=u_eff,
                                 r_min=split.metric.r_min)
    return InterpolatedEnd(split=split, s=s, zeta=zeta, metric=spec,
                           u_eff=u_eff)


@dataclass
class DeltaReport:
    delta: float
    delta0: float
    lhs: float
    threshold: float
    volume: float
    bisections: int


def choose_delta(interp, c_S, mesh):
    """Largest relaxation constant passing the negative-part size bound.

    Starts from the ceiling value delta0 = s^{-1}/(1 + volume) and bisects
    downward until (integral of |(eta (R - delta))_-|^{n/2} d mu)^{2/n}
    drops below c_S / 2, so delta <= delta0 holds by construction.  The norm
    is the smallness gate's, `lp_norm` over the wsrc of mesh, the rung's
    first-truncation mesh: eta vanishes off [s, 4s], so the sum over all
    nodes is the norm.  The volume of [s, 4s] is `grids.integrate`'s, with
    panel edges at the blend's joints 2s and 3s, where w is only C^2.
    """
    if c_S <= 0.0:
        raise ConfigError("Sobolev constant must be positive")
    s, n = interp.s, interp.n
    eta = radial.window(s, 2.0 * s, 3.0 * s, 4.0 * s)
    volume = sphere_area(n) * integrate(
        lambda r: radial_kappa_w(interp.metric, r)[1],
        (s, 2.0 * s, 3.0 * s, 4.0 * s), "ceiling volume")
    Rv = interp.scalar_values(mesh.r)
    ev = eta.value(mesh.r)

    def lhs(delta):
        return lp_norm(mesh.wsrc, ev * np.maximum(delta - Rv, 0.0), n / 2.0,
                       n)

    threshold = 0.5 * c_S
    delta0 = (1.0 / s) / (1.0 + volume)
    delta = radial.feasible_end(lambda d: lhs(d) <= threshold, DELTA_FLOOR,
                                delta0, _DELTA_BISECTIONS)
    if delta is None:
        raise RegimeError(
            "no relaxation constant above %.0e satisfies the size bound; "
            "the input curvature is too negative for this regime" % DELTA_FLOOR)
    return DeltaReport(delta=delta, delta0=delta0, lhs=lhs(delta),
                       threshold=threshold, volume=volume,
                       bisections=0 if delta == delta0 else _DELTA_BISECTIONS)


@dataclass
class RungResult:
    """One scale of the deformation ladder with its audit numbers."""

    s: float
    delta_report: DeltaReport
    solution: object
    A_s: float
    tau: float
    m_bar: float
    min_R_bar: float
    min_u_tau: float
    end_norm: float
    metric_bar: metrics.MetricSpec

    @property
    def mass_shift(self):
        return 2.0 * self.A_s / (1.0 + self.tau)

    def to_row(self):
        return {"s": self.s, "delta_s": self.delta_report.delta,
                "A_integral": self.A_s, "A_fit": self.solution.A_fit,
                "tau": self.tau, "m_bar": self.m_bar,
                "min_R": self.min_R_bar, "end_norm": self.end_norm}


def _not_a_knot_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y), at least
    four knots: scipy's CubicSpline system, one tridiagonal solve."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    rhs = np.concatenate([
        [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0],
        3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
        [(dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1])
         / d1]])
    return _solve_tridiag(np.r_[dx[1:], d1],
                          np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]],
                          np.r_[d0, dx[:-1]], rhs)[0]


def tau_blend(metric, solution, tau, family):
    """((u + tau)/(1 + tau))^{4/(n-2)} metric, with the solved factor
    u = 1 + v on the annulus nodes as the not-a-knot cubic spline profile."""
    mask = ~solution.mesh.is_cyl
    r, uv = solution.mesh.r[mask], solution.u[mask]
    u = radial.cubic_hermite(r, uv, _not_a_knot_slopes(r, uv))
    return metrics.conformal_product(metric, (u + tau) * (1.0 / (1.0 + tau)),
                                     family=family)


def pick_tau(n, u, numerator, R):
    """Largest tau in [1e-6, 1] keeping the curvature of the tau-blend,
    (1 + tau)^{4/(n-2)} (u + tau)^{-(n+2)/(n-2)} (numerator + tau R), above
    the audit floor at every sample; returns (tau, its minimum curvature).

    The admissible set is an interval containing 0 because the bracket is
    affine in tau; RegimeError when even tau = 1e-6 breaks the floor.
    """
    def min_R(tau):
        pref = (1.0 + tau) ** (4.0 / (n - 2.0)) \
            * (u + tau) ** (-(n + 2.0) / (n - 2.0))
        return float((pref * (numerator + tau * R)).min())

    tau = radial.feasible_end(lambda t: min_R(t) >= MIN_R_TARGET, 1e-6, 1.0,
                              40)
    if tau is None:
        raise RegimeError("no admissible tau: curvature floor %.3g violated "
                          "even at tau = %.0e" % (min_R(1e-6), 1e-6))
    return tau, min_R(tau)


def deform_rung(split, s, c_S):
    """Run one ladder scale: interpolate, relax, solve, pick tau, deform."""
    n = split.n
    interp = build_interpolated_metric(split, s)
    dom = DomainModel(n=n, truncation_radii=(8.0 * s, 16.0 * s, 32.0 * s),
                      annulus_nodes=ANNULUS_NODES)
    dreport = choose_delta(interp, c_S,
                           dom.mesh(interp.metric, dom.truncation_radii[0]))
    delta = dreport.delta
    eta = radial.window(s, 2.0 * s, 3.0 * s, 4.0 * s)
    f = conformal_constant(n) * eta \
        * (radial.conformal_scalar(interp.u_eff, n) - delta)
    prob = EllipticProblem(interp.metric, f, support_radius=4.0 * s,
                           domain=dom)
    check_smallness(prob, c_S)
    solution = solve_conformal_factor(prob)
    A_s = solution.A_integral
    # closed-form curvature of the tau-blend over the solved annulus
    r = np.geomspace(interp.metric.r_min, 0.999 * dom.truncation_radii[-1],
                     4001)
    Rv = interp.scalar_values(r)
    ev = eta.value(r)
    uv = solution.u_at(r)
    tau, min_R_bar = pick_tau(n, uv, ((1.0 - ev) * Rv + delta * ev) * uv, Rv)

    metric_bar = tau_blend(interp.metric, solution, tau, "deformed")
    m_bar = split.m + 2.0 * A_s / (1.0 + tau)
    min_u_tau = (solution.min_u + tau) / (1.0 + tau)

    # sup of the pointwise g-norm of (g_bar - g) over the end chart
    r = np.geomspace(split.metric.r_min, dom.truncation_radii[-1] * 0.999,
                     2001)
    a_in = split.metric.radial_form.a.value(r)
    a_bar = metric_bar.radial_form.a.value(r)
    end_norm = float(np.sqrt(n) * np.abs(a_bar / a_in - 1.0).max())
    return RungResult(s=s, delta_report=dreport, solution=solution, A_s=A_s,
                      tau=tau, m_bar=m_bar, min_R_bar=min_R_bar,
                      min_u_tau=min_u_tau, end_norm=end_norm,
                      metric_bar=metric_bar)


@dataclass
class DeformReport:
    m_input: float
    c_S: float
    eps_target: float
    rungs: list
    achieved: bool

    @property
    def final(self):
        return self.rungs[-1]

    @property
    def m_bar(self):
        return self.final.m_bar

    def to_json_dict(self):
        return {
            "m_input": self.m_input, "c_S": self.c_S,
            "eps_target": self.eps_target, "achieved": self.achieved,
            "m_bar": self.m_bar,
            "rungs": [r.to_row() for r in self.rungs],
        }


def audit_nonnegative_scalar(metric, r_max):
    """RegimeError unless the radial closed-form curvature stays at or above
    _INPUT_R_FLOOR on 2001 geometric radii up to r_max."""
    if metric.conformal_u is None:
        raise ConfigError("curvature audit needs a conformal radial input")
    r = np.geomspace(metric.r_min, r_max, 2001)
    Rv = radial.conformal_scalar(metric.conformal_u, metric.n)(r)
    m = float(Rv.min())
    if m < _INPUT_R_FLOOR:
        raise RegimeError("input scalar curvature dips to %.3g < %.3g; the "
                          "deformation needs R >= 0" % (m, _INPUT_R_FLOOR))
    return m


def density_deform(metric, eps_target, s_ladder=DEFAULT_S_LADDER, c_S=None,
                   m=None):
    """Ladder driver: stop at the first scale whose mass shift is small.

    Raises RegimeError when the shift magnitude fails to decrease across
    three consecutive scales (with the trend attached to the message): the
    remainder then violates the decay assumption the ladder relies on.
    """
    if eps_target <= 0.0:
        raise ConfigError("target mass shift must be positive")
    if any(b <= a for a, b in zip(s_ladder, s_ladder[1:])):
        raise ConfigError("s_ladder must be strictly increasing")
    audit_nonnegative_scalar(metric, r_max=64.0 * float(max(s_ladder)))
    if m is None:
        m = adm_mass(metric).extrapolated
    if c_S is None:
        dom = DomainModel(n=metric.n, truncation_radii=(64.0 * metric.r_min,),
                          annulus_nodes=700)
        from .rayleigh import sobolev_estimate
        c_S = sobolev_estimate(dom, metric).c_S
    split = split_schwarzschild(metric, m)
    rungs = []
    achieved = False
    for s in s_ladder:
        rung = deform_rung(split, s, c_S)
        rungs.append(rung)
        if abs(rung.mass_shift) <= eps_target:
            achieved = True
            break
        shifts = [abs(r.mass_shift) for r in rungs]
        if len(shifts) >= 3 and shifts[-1] >= shifts[-2] >= shifts[-3]:
            raise RegimeError("mass shift not decreasing over three scales: "
                              + ", ".join("%.3e" % t for t in shifts))
    return DeformReport(m_input=float(m), c_S=float(c_S),
                        eps_target=float(eps_target), rungs=rungs,
                        achieved=achieved)


def verify_mass_shift(report):
    """Independent mass check: adm_mass(g_bar) - m equals the reported shift.

    The radii are MASS_FRACTIONS of the final rung's outer radius, inside
    the solved domain, where the factor profile is tabulated.
    """
    rung = report.final
    radii = rung.solution.mesh.r_max * MASS_FRACTIONS
    m_bar_meas = adm_mass(rung.metric_bar, radii=radii).extrapolated
    expected = report.m_input + rung.mass_shift
    err = abs(m_bar_meas - expected)
    return {
        "measured": float(m_bar_meas),
        "reported": float(expected),
        "error": float(err),
        "passed": bool(err <= VERIFY_RTOL * max(1.0, abs(expected))),
    }
