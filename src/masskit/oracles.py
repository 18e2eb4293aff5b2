"""High-order references for radial conformal-factor problems.

For radial metrics the equation Delta_g u - f u = 0 reduces per steradian to
(kappa u')' = f u w with kappa = a^{(n-1)/2}(a+b)^{-1/2} r^{n-1} and
w = a^{(n-1)/2}(a+b)^{1/2} r^{n-1}: u' = p / kappa, p' = f w u.  Both
references solve it far below the mesh solver's truncation error, giving
independent checks of the elliptic engine.

`shoot_conformal_factor` uses piecewise Chebyshev collocation (Trefethen,
Spectral Methods in MATLAB, 2000, ch. 6-7) with chebfun's splitting
(Pachon, Platte and Trefethen, IMA J. Numer. Anal. 30, 2010).  [r_min, r_f]
starts as `_PANELS` equal panels of `_NODES` points.  A panel is halved while
the last three Chebyshev coefficients of 1/kappa or f w exceed `_COEF_TOL`
times that function's largest sample so far; a running maximum, so a narrow
bump the first level misses cannot leave the scale below its roundoff.  No
split goes below `_MIN_WIDTH`; more than `_MAX_PANELS` panels is an error.
Each level samples its panels in one `radial_kappa_w` and one `f` call.  One
batched `np.linalg.solve` gives every panel's 2x2 propagator; chaining them
gives the state at r_f.  Known limit: the width floor resolves a true jump
in f only to about 3e-8 relative in A (a narrower floor makes the
collocation ill-conditioned), so the oracle is meant for continuous f.

`shoot_truncated` is one DOP853 integration through scipy's `solve_ivp`, an
integrator independent of the panels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import ConfigError, SolverError
from .grids import radial_kappa_w

_PANELS = 32            # initial equal panels on [r_min, r_f]
_NODES = 17             # Chebyshev points per panel
_COEF_TOL = 1e-11       # tail coefficients against the running sample scale
_MIN_WIDTH = 1e-7       # no split makes a panel narrower
_MAX_PANELS = 4096      # about 38 MB of collocation matrices


def _chebyshev(N):
    """Points x_j = cos(j pi / N) from 1 down to -1, in sine form so they are
    exactly symmetric; their differentiation matrix (Trefethen, ch. 6); and
    the rows taking values at them to the last three Chebyshev coefficients."""
    x = np.sin(np.pi * np.arange(N, -N - 1, -2) / (2 * N))
    c = np.r_[2.0, np.ones(N - 1), 2.0] * (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D, np.linalg.inv(np.polynomial.chebyshev.chebvander(x, N))[-3:]


_X, _D, _TAIL = _chebyshev(_NODES - 1)


def _panel_maps(metric, f, r0, r1):
    """Maps of (u, p) across the adaptive panels of [r0, r1], in order,
    shape (panels, 2, 2), and the number of radii sampled.

    Each comes from collocation of u' = p / kappa, p' = f w u at the panel's
    points, with the rows at its left end, x = -1, replaced by the initial
    state; the two unit states give its columns.
    """
    edges = np.linspace(r0, r1, _PANELS + 1)
    a, b = edges[:-1], edges[1:]
    s = 0.5 * (1.0 + _X)
    done, scale, nfev = [], np.zeros(2), 0
    while a.size:
        # exact at both ends, unlike a + s h, so the last panel stops at r1
        r = ((1.0 - s) * a[:, None] + s * b[:, None]).ravel()
        kap, w = radial_kappa_w(metric, r)
        vals = np.stack([1.0 / kap, np.asarray(f(r), dtype=float) * w])
        vals = vals.reshape(2, a.size, _NODES).transpose(1, 0, 2)
        nfev += r.size
        scale = np.maximum(scale, np.abs(vals).max(axis=(0, 2)))
        coef = np.abs(vals @ _TAIL.T).max(axis=2)
        split = ((coef > _COEF_TOL * scale).any(axis=1)
                 & (b - a >= 2.0 * _MIN_WIDTH))
        done.append((a[~split], b[~split], vals[~split]))
        mid = 0.5 * (a[split] + b[split])
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        if sum(d[0].size for d in done) + a.size > _MAX_PANELS:
            raise SolverError("oracle needs more than %d panels to resolve "
                              "the coefficients" % _MAX_PANELS)
    order = np.argsort(np.concatenate([d[0] for d in done]))
    a, b, vals = (np.concatenate(p)[order] for p in zip(*done))
    m, eye = _NODES, np.eye(2 * _NODES)
    h = (0.5 * (b - a))[:, None, None]
    M = np.empty((a.size, 2 * m, 2 * m))
    M[:, :m, :m] = M[:, m:, m:] = _D
    M[:, :m, m:] = -h * vals[:, 0, :, None] * eye[:m, :m]
    M[:, m:, :m] = -h * vals[:, 1, :, None] * eye[:m, :m]
    rows = [m - 1, 2 * m - 1]
    M[:, rows] = eye[rows]
    X = np.linalg.solve(M, np.broadcast_to(eye[:, rows], (a.size, 2 * m, 2)))
    return X[:, [0, m]], nfev


@dataclass
class ShootingResult:
    """Normalized expansion data from the outward solve.

    The raw solution starts from (u, kappa u') = (1, 0) at the inner cut;
    dividing by the limit c_inf enforces u -> 1 at infinity, and the
    conserved outer flux Phi gives the expansion coefficient exactly:
    A = -Phi / ((n - 2) c_inf).  nfev counts the radii, over all splitting
    levels, where the panels sampled 1/kappa and f w (not the tail's).
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
    maps, nfev = _panel_maps(metric, f, r0, rf)
    y = np.array([1.0, 0.0])
    for P in maps:
        y = P @ y
    u_f, phi = y
    tail, err = quad(lambda s: 1.0 / radial_kappa_w(metric, [s])[0][0], rf,
                     np.inf, limit=200, epsabs=1e-10, epsrel=1e-10)
    if err > 1e-9 * max(1.0, abs(tail)):
        raise SolverError("tail quadrature noisy (err %.2e)" % err)
    c_inf = u_f + phi * tail
    if c_inf <= 0.0:
        raise SolverError("normalization limit %.3g not positive" % c_inf)
    A = -phi / ((n - 2) * c_inf)
    return ShootingResult(n=n, r_inner=r0, r_support=rf, c_inf=c_inf,
                          phi=phi, A=A, nfev=nfev)


def shoot_truncated(metric, f, support_radius, R):
    """Reference v on [r_min, R] with v(R) = 0 and zero inner slope.

    Superposes a particular outward solution, from (v, kappa v') = (0, 0)
    with source f w, and the homogeneous one from (1, 0); both inherit the
    Neumann inner condition, so one scalar match at R pins the combination.
    Both come from one DOP853 integration in r, whose dense output carries
    v between steps.
    """
    r0, R = float(metric.r_min), float(R)
    if R <= max(r0, float(support_radius)):
        raise ConfigError("truncation radius %.3g too small" % R)

    def rhs(r, y):
        kap, w = radial_kappa_w(metric, [r])
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
