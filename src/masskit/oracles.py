"""High-order ODE references for radial conformal-factor problems.

For radial metrics the equation Delta_g u - f u = 0 reduces per steradian to
(kappa u')' = f u w with kappa = a^{(n-1)/2}(a+b)^{-1/2} r^{n-1} and
w = a^{(n-1)/2}(a+b)^{1/2} r^{n-1}.  An adaptive eighth-order integrator
turns that into reference values far below the mesh solver's truncation
error, giving an independent check of the elliptic engine.

The radial interval is cut into `_PANELS` equal panels (multiple shooting).
Every panel's 2x2 fundamental matrix and its particular solution are
integrated together as one DOP853 system in the panel variable s in [0, 1];
chaining the panel propagators gives the state at the outer radius.  The
system is linear and its coefficients depend on s alone, so before each
step attempt, accepted or rejected, the stepper evaluates them at every
abscissa the attempt will use, for every panel, in one `radial_kappa_w`
call and one `f` call; the right-hand side then looks them up by the exact
value of s.  An s outside the table (the initial-step probes) is evaluated
on its own, with the same arithmetic, so results do not depend on the
table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.integrate._ivp.rk import (MAX_FACTOR, MIN_FACTOR, SAFETY,
                                    rk_step)

from .errors import ConfigError, SolverError
from .grids import radial_kappa_w

_RTOL = 1e-12
_ATOL = 1e-14
_PANELS = 32


class _PrefetchDOP853(DOP853):
    """DOP853 that calls `prefetch(s)` before every step attempt, with s
    every abscissa the attempt evaluates the right-hand side at: the stages
    t + c_i h, the end t + h and, with `dense`, the dense-output stages.

    `_step_impl` is scipy 1.17's `RungeKutta._step_impl`, blank lines
    dropped, with that one call added; tests compare it bit for bit with
    plain DOP853.
    """

    def __init__(self, fun, t0, y0, t_bound, prefetch, dense, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._prefetch = prefetch
        nodes = [self.C[1:], [1.0]] + ([self.C_EXTRA] if dense else [])
        self._nodes = np.unique(np.concatenate(nodes))

    def _step_impl(self):
        t = self.t
        y = self.y
        max_step = self.max_step
        rtol = self.rtol
        atol = self.atol
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        if self.h_abs > max_step:
            h_abs = max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs
        step_accepted = False
        step_rejected = False
        while not step_accepted:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            h = h_abs * self.direction
            t_new = t + h
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            self._prefetch(t + self._nodes * h)
            y_new, f_new = rk_step(self.fun, t, y, self.f, h, self.A,
                                   self.B, self.C, self.K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = self._estimate_error_norm(self.K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** self.error_exponent)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                step_accepted = True
            else:
                h_abs *= max(MIN_FACTOR,
                             SAFETY * error_norm ** self.error_exponent)
                step_rejected = True
        self.h_previous = h
        self.y_old = y
        self.t = t_new
        self.y = y_new
        self.h_abs = h_abs
        self.f = f_new
        return True, None


def _shoot_panels(metric, f, r0, r1, dense_output=False):
    """Integrate every panel of [r0, r1] as one DOP853 system.

    Panel k runs over [a_k, b_k] with r = (1 - s) a_k + s b_k.  Its state
    rows are the fundamental matrix columns (u, kappa u') from (1, 0) and
    from (0, 1), then the particular solution from (0, 0) with source
    (0, f w).  Returns the edges, the propagators P (panels, 2, 2), the
    particular end states z (panels, 2) and the solve_ivp result.
    """
    if metric.radial_form is None:
        raise ConfigError("shooting oracle needs a radial metric")
    fn = f.value if hasattr(f, "value") else f
    edges = np.linspace(r0, r1, _PANELS + 1)
    a, b = edges[:-1], edges[1:]
    h = b - a

    def coefficients(s):
        """Rows (h / kappa, h f w) at each s, shape (len(s), 2, panels)."""
        s = np.asarray(s, dtype=float)[:, None]
        # exact at both ends, unlike a + s h, so the last panel stops at r1
        r = ((1.0 - s) * a + s * b).ravel()
        kap, w = radial_kappa_w(metric, r)
        hs = np.tile(h, len(s))
        c = np.stack([hs / kap, hs * np.asarray(fn(r), dtype=float) * w])
        return c.reshape(2, len(s), _PANELS).transpose(1, 0, 2)

    table = {}

    def prefetch(s):
        table.clear()
        table.update(zip(s.tolist(), coefficients(s)))

    def rhs(s, y):
        h_kap, hfw = table[s] if s in table else coefficients([s])[0]
        Y = y.reshape(3, 2, -1)
        dY = np.empty_like(Y)
        dY[:, 0] = Y[:, 1] * h_kap
        dY[:, 1] = Y[:, 0] * hfw
        dY[2, 1] += hfw
        return dY.ravel()

    y0 = np.zeros((3, 2, _PANELS))
    y0[0, 0] = y0[1, 1] = 1.0
    sol = solve_ivp(rhs, (0.0, 1.0), y0.ravel(), method=_PrefetchDOP853,
                    rtol=_RTOL, atol=_ATOL, dense_output=dense_output,
                    prefetch=prefetch, dense=dense_output)
    if not sol.success:
        raise SolverError("outward integration failed: %s" % sol.message)
    end = sol.y[:, -1].reshape(3, 2, _PANELS)
    return edges, end[:2].transpose(2, 1, 0), end[2].T, sol


def _chain(P, z, y0):
    """States (u, kappa u') at every panel edge, y_{k+1} = P_k y_k + z_k."""
    ys = [np.asarray(y0, dtype=float)]
    for k in range(len(P)):
        ys.append(P[k] @ ys[-1] + z[k])
    return np.array(ys)


@dataclass
class ShootingResult:
    """Normalized expansion data from outward integration.

    The raw solution starts from (u, kappa u') = (1, 0) at the inner cut;
    dividing by the limit c_inf enforces u -> 1 at infinity, and the
    conserved outer flux Phi gives the expansion coefficient exactly:
    A = -Phi / ((n - 2) c_inf).  nfev counts the right-hand-side evaluations
    of the outward integration, each at every panel radius; their
    coefficients come from one batched call per step attempt.
    """
    n: int
    r_inner: float
    r_support: float
    c_inf: float
    phi: float
    A: float
    nfev: int


def shoot_conformal_factor(metric, f, support_radius):
    """Reference (c_inf, A) for Delta_g u - f u = 0, Neumann inner cut at
    the chart's r_min."""
    n = metric.n
    r0 = float(metric.r_min)
    rf = float(support_radius)
    if rf <= r0:
        raise ConfigError("support radius %.3g inside inner cut %.3g" % (rf, r0))
    _, P, z, sol = _shoot_panels(metric, f, r0, rf)
    u_f, phi = _chain(P, 0.0 * z, [1.0, 0.0])[-1]
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


def shoot_truncated(metric, f, support_radius, R):
    """Reference v on [r_min, R] with v(R) = 0 and zero inner slope.

    Solves the linear problem by superposing a particular outward solution
    with the homogeneous one; both inherit the Neumann inner condition, so
    one scalar match at R pins the combination.  Both come from the same
    panel integration: chaining the panel propagators gives each one's state
    at every panel start, and the dense output carries v inside a panel.
    """
    r0 = float(metric.r_min)
    R = float(R)
    if R <= max(r0, float(support_radius)):
        raise ConfigError("truncation radius %.3g too small" % R)
    edges, P, z, sol = _shoot_panels(metric, f, r0, R, dense_output=True)
    y_p = _chain(P, z, [0.0, 0.0])
    y_h = _chain(P, 0.0 * z, [1.0, 0.0])
    if abs(y_h[-1, 0]) < 1e-14:
        raise SolverError("homogeneous solution vanishes at R; cannot match")
    c = -y_p[-1, 0] / y_h[-1, 0]
    start = (y_p + c * y_h)[:-1]

    def v(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        k = np.clip(np.searchsorted(edges, r, side="right") - 1,
                    0, len(P) - 1)
        s = (r - edges[k]) / (edges[k + 1] - edges[k])
        y = sol.sol(s).reshape(3, 2, len(P), -1)[:, 0, k, np.arange(r.size)]
        return y[0] * start[k, 0] + y[1] * start[k, 1] + y[2]

    return v
