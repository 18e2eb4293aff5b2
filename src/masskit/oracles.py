"""High-order reference for radial conformal-factor problems.

For radial metrics the equation Delta_g u - f u = 0 reduces per steradian to
(kappa u')' = f u w with kappa = a^{(n-1)/2}(a+b)^{-1/2} r^{n-1} and
w = a^{(n-1)/2}(a+b)^{1/2} r^{n-1}: u' = p / kappa, p' = f w u.  The
reference solves it far below the mesh solver's truncation error, giving an
independent check of the elliptic engine.  The tests keep a second one, a
DOP853 integration of the truncated problem.

`shoot_conformal_factor` uses piecewise Chebyshev collocation (Trefethen,
Spectral Methods in MATLAB, 2000, ch. 6-7) with chebfun's splitting
(Pachon, Platte and Trefethen, IMA J. Numer. Anal. 30, 2010).  [r_min, r_f]
starts as `_PANELS` equal panels of `_NODES` points, and
`grids.adaptive_panels` halves a panel while the last three Chebyshev
coefficients of 1/kappa or f w exceed `_COEF_TOL` times that function's
largest sample so far.  No split goes below `_MIN_WIDTH`; more than
`_MAX_PANELS` panels is an error.  Each level samples its panels in one
`radial_kappa_w` and one `f` call.  One
batched `np.linalg.solve` gives every panel's 2x2 propagator; chaining them
gives the state at r_f.  Beyond r_f, where f = 0, the solution is
u_f + phi * (integral of 1/kappa over [r_f, s]), so its limit needs the
tail of 1/kappa over [r_f, inf): `grids.harmonic_tail`, adaptive
Gauss-Legendre panels in t = r_f/s over [0, 1] under the same splitting
rule, sampling kappa in batches.  Known limit: the width floor resolves a
true jump in f only to about 3e-8 relative in A (a narrower floor makes the
collocation ill-conditioned), so the oracle is meant for continuous f.

The module imports no scipy.  `solve_ivp` stays an attribute, imported on
first access, because the benchmark's trace binds `oracles.solve_ivp` for
its `oracles.rhs_evals` counter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .grids import adaptive_panels, harmonic_tail, radial_kappa_w

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


def __getattr__(name):
    """`solve_ivp`, imported from scipy.integrate on first access."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _panel_maps(metric, f, r0, r1):
    """Maps of (u, p) across the adaptive panels of [r0, r1], in order,
    shape (panels, 2, 2), and the number of radii sampled.

    Each comes from collocation of u' = p / kappa, p' = f w u at the panel's
    points, with the rows at its left end, x = -1, replaced by the initial
    state; the two unit states give its columns.
    """
    def sample(t):
        r = t.ravel()
        kap, w = radial_kappa_w(metric, r)
        vals = np.stack([1.0 / kap, np.asarray(f(r), dtype=float) * w])
        return vals.reshape(2, *t.shape).transpose(1, 0, 2)

    a, b, vals, nfev = adaptive_panels(
        sample, np.linspace(r0, r1, _PANELS + 1), 0.5 * (1.0 + _X), _TAIL,
        _COEF_TOL, _MIN_WIDTH, _MAX_PANELS, "oracle")
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
    levels, where the panels sampled 1/kappa and f w on [r_min, r_f]; the
    tail's kappa samples beyond r_f are not counted.
    """
    n: int
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
    c_inf = u_f + phi * harmonic_tail(metric, rf)
    if c_inf <= 0.0:
        raise SolverError("normalization limit %.3g not positive" % c_inf)
    A = -phi / ((n - 2) * c_inf)
    return ShootingResult(n=n, c_inf=c_inf, phi=phi, A=A, nfev=nfev)
