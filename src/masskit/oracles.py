"""High-order ODE references for radial conformal-factor problems.

For radial metrics the equation Delta_g u - f u = 0 reduces per steradian to
(kappa u')' = f u w with kappa = a^{(n-1)/2}(a+b)^{-1/2} r^{n-1} and
w = a^{(n-1)/2}(a+b)^{1/2} r^{n-1}.  An adaptive eighth-order integrator
turns that into reference values far below the mesh solver's truncation
error, giving an independent check of the elliptic engine.  Each
right-hand-side evaluation makes one `radial_kappa_w` call and one `f` call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import ConfigError, SolverError
from .grids import radial_kappa_w

_RTOL = 1e-12
_ATOL = 1e-14


def _coeff_fn(metric, f):
    """(kappa, w, f) at one radius from one `radial_kappa_w` and one f call."""
    if metric.radial_form is None:
        raise ConfigError("shooting oracle needs a radial metric")
    fn = f.value if hasattr(f, "value") else f

    def coeffs(r):
        r = np.atleast_1d(r)
        kap, w = radial_kappa_w(metric, r)
        return kap[0], w[0], np.asarray(fn(r), dtype=float)[0]

    return coeffs


@dataclass
class ShootingResult:
    """Normalized expansion data from outward integration.

    The raw solution starts from (u, kappa u') = (1, 0) at the inner cut;
    dividing by the limit c_inf enforces u -> 1 at infinity, and the
    conserved outer flux Phi gives the expansion coefficient exactly:
    A = -Phi / ((n - 2) c_inf).  nfev counts the right-hand-side
    evaluations of the outward integration.
    """
    n: int
    r_inner: float
    r_support: float
    c_inf: float
    phi: float
    A: float
    nfev: int


def shoot_conformal_factor(metric, f, support_radius, r_inner=None):
    """Reference (c_inf, A) for Delta_g u - f u = 0, Neumann inner cut."""
    n = metric.n
    coeffs = _coeff_fn(metric, f)
    r0 = float(metric.r_min if r_inner is None else r_inner)
    rf = float(support_radius)
    if rf <= r0:
        raise ConfigError("support radius %.3g inside inner cut %.3g" % (rf, r0))

    def rhs(r, y):
        u, p = y
        kap, w, fr = coeffs(r)
        return [p / kap, fr * u * w]

    sol = solve_ivp(rhs, (r0, rf), [1.0, 0.0], method="DOP853",
                    rtol=_RTOL, atol=_ATOL)
    if not sol.success:
        raise SolverError("outward integration failed: %s" % sol.message)
    u_f, phi = sol.y[0, -1], sol.y[1, -1]
    tail, err = quad(lambda s: 1.0 / radial_kappa_w(metric, [s])[0][0], rf,
                     np.inf, limit=200, epsabs=1e-10, epsrel=1e-10)
    if err > 1e-9 * max(1.0, abs(tail)):
        raise SolverError("tail quadrature noisy (err %.2e)" % err)
    c_inf = u_f + phi * tail
    if c_inf <= 0.0:
        raise SolverError("normalization limit %.3g not positive" % c_inf)
    A = -phi / ((n - 2) * c_inf)
    return ShootingResult(n=n, r_inner=r0, r_support=rf, c_inf=c_inf,
                          phi=phi, A=A, nfev=sol.nfev)


def shoot_truncated(metric, f, support_radius, R, r_inner=None):
    """Reference v on [r_inner, R] with v(R) = 0 and zero inner slope.

    Solves the linear problem by superposing a particular outward solution
    with the homogeneous one; both inherit the Neumann inner condition, so
    one scalar match at R pins the combination.  The two are integrated as
    one system [v_p, p_p, v_h, p_h], sharing each coefficient evaluation.
    """
    coeffs = _coeff_fn(metric, f)
    r0 = float(metric.r_min if r_inner is None else r_inner)
    R = float(R)
    if R <= max(r0, float(support_radius)):
        raise ConfigError("truncation radius %.3g too small" % R)

    def rhs(r, y):
        v_p, p_p, v_h, p_h = y
        kap, w, fr = coeffs(r)
        return [p_p / kap, fr * (1.0 + v_p) * w, p_h / kap, fr * v_h * w]

    sol = solve_ivp(rhs, (r0, R), [0.0, 0.0, 1.0, 0.0], method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not sol.success:
        raise SolverError("truncated-problem integration failed")
    vh_R = sol.y[2, -1]
    if abs(vh_R) < 1e-14:
        raise SolverError("homogeneous solution vanishes at R; cannot match")
    c = -sol.y[0, -1] / vh_R

    def v(r):
        y = sol.sol(np.atleast_1d(np.asarray(r, dtype=float)))
        return y[0] + c * y[2]

    return v
