"""Asymptotic mass from coordinate-sphere surface integrals.

The partial mass at radius rho is the normalized flux

    m(rho) = (1 / (2 (n-1) |S^{n-1}|)) * surface integral of
             (d_j g_ij - d_i g_jj) nu^i dsigma,

with the normal area element dsigma taken with respect to the Euclidean
background chart.  Partial masses on a geometric radius ladder are
Richardson-extrapolated to the limit with a measured correction order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import fd_first_derivatives
from .errors import ConfigError, DomainError, InternalFault
from .grids import sphere_area, sphere_quadrature

DEFAULT_QUADRATURE_ORDER = 16
DEFAULT_LADDER = (8.0, 16.0, 32.0, 64.0)
# diffs below this (relative) scale are treated as converged noise
_CONVERGED_REL = 1e-10


@dataclass
class MassReport:
    """Partial masses on a radius ladder plus the extrapolated limit."""

    radii: np.ndarray
    partial_masses: np.ndarray
    extrapolated: float
    observed_order: float | None
    quadrature_order: int
    area_elements: np.ndarray
    low_confidence: bool = False
    method: str = "quadrature"
    n: int = 3

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.partial_masses = np.asarray(self.partial_masses, dtype=float)
        self.area_elements = np.asarray(self.area_elements, dtype=float)
        if self.radii.size < 3:
            raise ConfigError("mass ladder needs at least 3 radii")
        if not np.all(np.diff(self.radii) > 0):
            raise ConfigError("mass ladder must be strictly increasing")
        self._check_extrapolation()

    def _check_extrapolation(self):
        # sanity bound on the extrapolated step: a geometric ladder with
        # correction order >= 1/2 keeps the limit within 3x the last
        # observed difference (1/(2^0.5 - 1) < 3)
        m = self.partial_masses
        d_last = m[-1] - m[-2]
        d_prev = m[-2] - m[-3]
        scale = max(1.0, float(np.max(np.abs(m))))
        if abs(d_last) <= _CONVERGED_REL * scale:
            return
        monotone = d_last * d_prev > 0
        if monotone and not self.low_confidence:
            if abs(self.extrapolated - m[-1]) > 3.0 * abs(d_last) + 1e-13 * scale:
                raise InternalFault(
                    "extrapolated mass %.6g strays beyond 3x the last ladder "
                    "difference %.3g from m(rho_max)=%.6g"
                    % (self.extrapolated, d_last, m[-1]))

    @property
    def mass(self):
        return self.extrapolated

    def to_json_dict(self):
        return {
            "radii": list(self.radii),
            "partial_masses": list(self.partial_masses),
            "extrapolated": self.extrapolated,
            "observed_order": self.observed_order,
            "quadrature_order": self.quadrature_order,
            "area_elements": list(self.area_elements),
            "low_confidence": self.low_confidence,
            "method": self.method,
            "dimension": self.n,
        }

    def to_csv_rows(self):
        """Rows (rho, partial_mass, abs_err_vs_extrapolated)."""
        rows = []
        for rho, m in zip(self.radii, self.partial_masses):
            rows.append((float(rho), float(m), abs(float(m) - self.extrapolated)))
        return rows


def _first_derivatives(metric, X):
    """dg[p, k, i, j] = d_k g_ij at points X, analytic when available, else
    from the first-difference stencil."""
    dg = metric.dg(X)
    return fd_first_derivatives(metric, X) if dg is None else dg


def surface_flux(metric, rho, nodes):
    """Raw flux integral of (d_j g_ij - d_i g_jj) nu^i over {r = rho}.

    nodes = (U, w) holds unit normals and weights on S^{n-1}: the whole
    rule of `sphere_quadrature`, or a subset of it such as the orbit
    representatives of a fundamental domain.  Every mass flux goes
    through here, so every one checks the chart boundary.
    """
    if rho <= metric.r_min:
        raise DomainError("sphere radius %.4g outside chart (r_min=%.4g)"
                          % (rho, metric.r_min))
    U, w = nodes
    dg = _first_derivatives(metric, rho * U)
    div = np.einsum('pjij->pi', dg)
    grad_tr = np.einsum('pijj->pi', dg)
    vals = np.einsum('pi,pi->p', div - grad_tr, U)
    # fixed-order reduction for determinism, rho^{n-1} area scaling
    return float(np.sum(vals * w)) * rho ** (metric.n - 1)


def _closed_form_partial(metric, rho):
    """Partial mass of a radial metric a(r) delta + b(r) xhat xhat^T.

    The angular integral collapses exactly; the normalized flux equals
    (1/2) rho^{n-1} (b(rho)/rho - a'(rho)).
    """
    _, a1, b0, _ = metric.radial_form.ab(np.array([rho]))
    return 0.5 * rho ** (metric.n - 1) * (b0[0] / rho - a1[0])


def adm_surface_integral(metric, rho, order=DEFAULT_QUADRATURE_ORDER,
                         method="auto"):
    """Partial mass m(rho): the normalized flux through {r = rho}.

    method "auto" uses the exact angular reduction when the metric carries
    a radial profile, otherwise product quadrature of the stated order;
    "quadrature" and "closed_form" force the respective path.
    """
    if method not in ("auto", "quadrature", "closed_form"):
        raise ConfigError("unknown surface-integral method %r" % method)
    if method == "closed_form" or (method == "auto"
                                   and metric.radial_form is not None):
        if metric.radial_form is None:
            raise ConfigError("closed_form path needs a radial profile")
        if rho <= metric.r_min:
            raise DomainError("sphere radius %.4g outside chart (r_min=%.4g)"
                              % (rho, metric.r_min))
        return _closed_form_partial(metric, rho)
    n = metric.n
    norm = 2.0 * (n - 1) * sphere_area(n)
    return surface_flux(metric, rho, sphere_quadrature(n, order)) / norm


def _estimate_order(radii, masses, n):
    """Correction exponent p from successive ladder differences.

    Model m(rho) = m_inf + c rho^{-p} on a geometric ladder; the ratio of
    consecutive differences is the spacing to the p.  Ill-conditioned
    ratios fall back to p = n - 2; the estimate is clamped to
    [0.5, 2(n-2)] to keep the extrapolation step bounded.
    """
    d = np.diff(masses)
    s = radii[-1] / radii[-2]
    fallback = float(n - 2)
    if len(d) < 2 or d[-1] == 0.0 or d[-2] == 0.0:
        return fallback, True
    ratio = d[-2] / d[-1]
    if ratio <= 1.0:
        return fallback, True
    p = np.log(ratio) / np.log(s)
    lo, hi = 0.5, 2.0 * (n - 2)
    return float(np.clip(p, lo, hi)), False


def extrapolate_ladder(radii, masses, n):
    """Ladder limit with the measured correction order.

    Returns (extrapolated, observed_order, low_confidence): converged tails
    return the last value, oscillating tails return the last value flagged
    low-confidence, otherwise a one-step power-law correction with the
    exponent from `_estimate_order`.
    """
    radii = np.asarray(radii, dtype=float)
    masses = np.asarray(masses, dtype=float)
    scale = max(1.0, float(np.max(np.abs(masses))))
    d = np.diff(masses)
    tail = d[-2:]
    if np.all(np.abs(d) <= _CONVERGED_REL * scale):
        return float(masses[-1]), None, False
    if tail[0] * tail[1] <= 0:
        # oscillating tail: no one-sided correction model applies
        return float(masses[-1]), None, True
    p, fell_back = _estimate_order(radii, masses, n)
    s = radii[-1] / radii[-2]
    extrapolated = float(masses[-1] + d[-1] / (s ** p - 1.0))
    return extrapolated, (None if fell_back else p), False


def adm_mass(metric, radii=None, order=DEFAULT_QUADRATURE_ORDER,
             method="auto", map_fn=map):
    """MassReport over a geometric radius ladder with extrapolation.

    map_fn maps the surface integral over the radii in ladder order (a
    worker pool's order-preserving map fans the rungs out); the reduction
    stays here, so the report does not depend on it.
    """
    n = metric.n
    if radii is None:
        radii = np.asarray(DEFAULT_LADDER, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise ConfigError("mass ladder needs at least 3 radii")
    masses = np.array(list(map_fn(
        lambda rho: adm_surface_integral(metric, rho, order=order,
                                         method=method), radii)))
    areas = radii ** (n - 1) * sphere_area(n)

    extrapolated, p_obs, low_confidence = extrapolate_ladder(radii, masses, n)

    used_method = method
    if method == "auto":
        used_method = ("closed_form" if metric.radial_form is not None
                       else "quadrature")
    return MassReport(radii=radii, partial_masses=masses,
                      extrapolated=extrapolated, observed_order=p_obs,
                      quadrature_order=order, area_elements=areas,
                      low_confidence=low_confidence, method=used_method, n=n)


def residual_flux(field, radii):
    """Un-normalized fluxes of a difference field on a radius ladder.

    `field` is a metric-like evaluator holding the difference part (stored
    against any constant background; only derivatives enter the flux).
    A vanishing limit certifies that the subtracted profile carried the
    entire mass.
    """
    nodes = sphere_quadrature(field.n, DEFAULT_QUADRATURE_ORDER)
    return np.array([surface_flux(field, rho, nodes)
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
