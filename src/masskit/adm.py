"""Asymptotic mass from coordinate-sphere surface integrals.

The partial mass at radius rho is the normalized flux

    m(rho) = (1 / (2 (n-1) |S^{n-1}|)) * surface integral of
             (d_j g_ij - d_i g_jj) nu^i dsigma,

with the normal area element dsigma taken with respect to the Euclidean
background chart.  Every partial mass is a `surface_flux` sum over nodes on
S^{n-1}, with the first derivatives that `MetricSpec.dg` supplies; the
method only picks the nodes.  Partial masses on a radius ladder are
Richardson-extrapolated to the limit with a correction order measured from
the ladder's own spacing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .grids import sphere_area, sphere_quadrature
from .radial import feasible_end

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


def surface_flux(metric, rho, nodes):
    """Raw flux integral of (d_j g_ij - d_i g_jj) nu^i over {r = rho}.

    nodes = (U, w) holds unit normals and weights on S^{n-1}: the whole
    rule of `sphere_quadrature`, a subset of it such as the orbit
    representatives of a fundamental domain, or the one-node rule of a
    radial metric.  Every mass flux goes through here, so every one checks
    the chart boundary.
    """
    if rho <= metric.r_min:
        raise DomainError("sphere radius %.4g outside chart (r_min=%.4g)"
                          % (rho, metric.r_min))
    U, w = nodes
    dg = metric.dg(rho * U)
    div = np.einsum('pjij->pi', dg)
    grad_tr = np.einsum('pijj->pi', dg)
    vals = np.einsum('pi,pi->p', div - grad_tr, U)
    # fixed-order reduction for determinism, rho^{n-1} area scaling
    return float(np.sum(vals * w)) * rho ** (metric.n - 1)


def _surface_rule(metric, method, order):
    """(method name, nodes) for the partial masses of this metric.

    "auto" is "closed_form" for a metric with a radial profile, otherwise
    "quadrature": the product rule of the stated order.  "closed_form" is
    the one-node rule (e_1, |S^{n-1}|), exact because a radial metric's
    flux integrand is constant on each coordinate sphere.
    """
    if method not in ("auto", "quadrature", "closed_form"):
        raise ConfigError("unknown surface-integral method %r" % method)
    if method == "auto":
        method = ("closed_form" if metric.radial_form is not None
                  else "quadrature")
    if method == "quadrature":
        return method, sphere_quadrature(metric.n, order)
    if metric.radial_form is None:
        raise ConfigError("closed_form path needs a radial profile")
    return method, (np.eye(1, metric.n), np.array([sphere_area(metric.n)]))


def adm_surface_integral(metric, rho, order=DEFAULT_QUADRATURE_ORDER,
                         method="auto"):
    """Partial mass m(rho): the normalized `surface_flux` through {r = rho},
    over the nodes that `method` picks (see `_surface_rule`)."""
    _, nodes = _surface_rule(metric, method, order)
    return surface_flux(metric, rho, nodes) / (2 * (metric.n - 1)
                                               * sphere_area(metric.n))


def extrapolate_ladder(radii, masses, n):
    """Ladder limit with the measured correction order.

    Returns (extrapolated, observed_order, low_confidence).  A converged
    tail returns the last value, an oscillating one the last value flagged
    low-confidence.  Otherwise one power-law step m_inf + c rho^{-p} over
    the last radii r0 < r1 < r2, where p solves d[-2] / d[-1] = F(p) =
    (r0^-p - r1^-p) / (r1^-p - r2^-p) for the last two differences d.  F
    rises from log(r1/r0) / log(r2/r1) at p -> 0 and is (r2/r1)^p on a
    geometric ladder.  A ratio at or below that limit falls back to
    p = n - 2, unobserved; p outside [0.5, 2(n-2)] is clamped to keep the
    step bounded, and flagged, as the model then misfits the tail.
    """
    radii = np.asarray(radii, dtype=float)
    masses = np.asarray(masses, dtype=float)
    scale = max(1.0, float(np.max(np.abs(masses))))
    d = np.diff(masses)
    if np.all(np.abs(d) <= _CONVERGED_REL * scale):
        return float(masses[-1]), None, False
    if d[-2] * d[-1] <= 0:
        # oscillating tail: no one-sided correction model applies
        return float(masses[-1]), None, True
    r0, r1, r2 = radii[-3:]
    ratio = d[-2] / d[-1]
    lo, hi = 0.5, 2.0 * (n - 2)
    if ratio <= np.log(r1 / r0) / np.log(r2 / r1):
        p = None
    elif np.isclose(r1 / r0, r2 / r1, rtol=1e-12, atol=0.0):
        p = np.log(ratio) / np.log(r2 / r1)
    else:
        # F rises in p: bisect for the largest p in [lo, hi] with F(p) <=
        # ratio, lo when even F(lo) exceeds it
        p = feasible_end(lambda q: (r0 ** -q - r1 ** -q)
                         / (r1 ** -q - r2 ** -q) <= ratio, lo, hi, 50) or lo
    used = float(n - 2) if p is None else float(np.clip(p, lo, hi))
    extrapolated = float(masses[-1] + d[-1] / ((r2 / r1) ** used - 1.0))
    return (extrapolated, None if p is None else used,
            p is not None and not lo < p < hi)


def ladder_radii(radii=None):
    """The radii of a mass ladder as floats: DEFAULT_LADDER for None, else
    at least 3 strictly increasing radii, checked before any flux is
    summed."""
    radii = np.asarray(DEFAULT_LADDER if radii is None else radii,
                       dtype=float)
    if radii.size < 3:
        raise ConfigError("mass ladder needs at least 3 radii")
    if not np.all(np.diff(radii) > 0):
        raise ConfigError("mass ladder must be strictly increasing")
    return radii


def adm_mass(metric, radii=None, order=DEFAULT_QUADRATURE_ORDER,
             method="auto", map_fn=map):
    """MassReport over a radius ladder with extrapolation.

    map_fn maps the surface integral over the radii in ladder order (a
    worker pool's order-preserving map fans the rungs out); the reduction
    stays here, so the report does not depend on it.
    """
    n = metric.n
    radii = ladder_radii(radii)
    method, nodes = _surface_rule(metric, method, order)
    norm = 2 * (n - 1) * sphere_area(n)
    masses = np.array(list(map_fn(
        lambda rho: surface_flux(metric, rho, nodes) / norm, radii)))
    areas = radii ** (n - 1) * sphere_area(n)

    extrapolated, p_obs, low_confidence = extrapolate_ladder(radii, masses, n)
    return MassReport(radii=radii, partial_masses=masses,
                      extrapolated=extrapolated, observed_order=p_obs,
                      quadrature_order=order, area_elements=areas,
                      low_confidence=low_confidence, method=method, n=n)
