"""Cutoff compactification of a negative-mass conformal end.

A harmonic conformal factor u < 1 on an end is capped by a concave C^2
profile zeta: the composed factor v = zeta(u) equals u where u is small,
freezes at the constant 1 - eps/2 once u passes 1 - eps/4, and bridges the
two regimes with a strictly concave quartic.  Concavity keeps the flat
Laplacian of v nonpositive, so the metric v^{4/(n-2)} delta has nonnegative
scalar curvature with a strictly positive band, and is exactly a constant
multiple of the Euclidean metric outside a finite radius.  The flattened
chart then closes up into a cube torus; `torus_glue` audits the collar
constancy, the face periodicity, and the curvature sign of that chart.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from .errors import ConfigError, RegimeError
from .radial import RProfile, as_profile, compose, conformal_scalar, const, \
    feasible_end, flat_laplacian, identity
from .tolerances import BAND_WITNESS, LAPLACIAN_TOL, MIN_R_TARGET, WITNESS_R

# nodes of the superharmonic and curvature audit grids on [s1/2, 4 s2]
AUDIT_POINTS = 6001


def lohkamp_zeta(eps):
    """Concave C^2 cap profile in the factor value t.

    Identity below t0 = 1 - 3 eps/4, constant 1 - eps/2 above t1 = 1 - eps/4,
    and the quartic bridge t0 + w psi((t - t0)/w) with w = eps/2 and
    psi(s) = s - s^3 + s^4/2 in between.  psi' = (1-s)^2 (1+2s) lies in
    [0, 1] and psi'' = -6 s (1-s) is strictly negative inside, so zeta is
    nondecreasing, concave on the bridge, and matches value and both
    derivatives at the joints.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ConfigError("cap depth eps must lie in (0, 1), got %.6g" % eps)
    t0 = 1.0 - 0.75 * eps
    t1 = 1.0 - 0.25 * eps
    cap = 1.0 - 0.5 * eps
    w = 0.5 * eps
    t = identity()
    s = (t - t0) * (1.0 / w)
    bridge = t0 + w * (s - s * s * s + 0.5 * s * s * s * s)
    top = const(cap)

    def fn(at, k):
        return np.where(at.r <= t0, at(t, k),
                        np.where(at.r >= t1, at(top, k), at(bridge, k)))

    return RProfile(fn)


@dataclass
class LohkampState:
    """Capped conformal factor with the cut geometry that produced it."""

    u: RProfile
    n: int
    s1: float
    s2: float
    epsilon: float
    t0: float
    t1: float
    zeta: RProfile
    v: RProfile
    m_bar: float
    band: tuple

    @property
    def cap(self):
        return 1.0 - 0.5 * self.epsilon

    @property
    def r_flat(self):
        return self.s2


def _crossing(u, level, lo, hi):
    """A radius within 1e-12 above where u crosses level on [lo, hi], with
    u(lo) < level <= u(hi): the bisection keeps u >= level at its end."""
    halvings = int(np.ceil(np.log2((hi - lo) / 1e-12)))
    return feasible_end(lambda r: float(u.value(r)) >= level, hi, lo,
                        halvings)


def lohkamp_cutoff(u, s1, n=3):
    """Cap the end factor u below 1 outside radius s1.

    u must rise toward 1 from below; the cap depth is eps = 1 - u(s1) and the
    implied end mass m_bar = -2 eps s1^{n-2} is recorded.  u(s1) >= 1 means
    the end carries nonnegative mass, the cap is empty, and the direct
    positivity route applies instead; that is reported as a regime failure.
    Returns a LohkampState holding v = zeta(u) and the flattening radius s2,
    the smallest radius with u(s2) >= 1 - eps/4.
    """
    u = as_profile(u)
    s1 = float(s1)
    n = int(n)
    if n < 3:
        raise ConfigError("cutoff needs dimension n >= 3, got n=%d" % n)
    if s1 <= 0:
        raise ConfigError("cut radius s1 must be positive, got %.6g" % s1)
    u_s1 = float(u.value(s1))
    if not np.isfinite(u_s1) or u_s1 <= 0:
        raise ConfigError("conformal factor must be finite and positive at "
                          "s1, got %.6g" % u_s1)
    if u_s1 >= 1.0:
        raise RegimeError(
            "factor u(s1) = %.9g >= 1: the end has nonnegative mass and "
            "needs no cap" % u_s1)
    eps = 1.0 - u_s1
    t0 = 1.0 - 0.75 * eps
    t1 = 1.0 - 0.25 * eps
    zeta = lohkamp_zeta(eps)

    hi = 64.0 * s1
    while float(u.value(hi)) < t1 and hi < 1e9 * s1:
        hi *= 4.0
    if float(u.value(hi)) < t1:
        raise RegimeError("factor never reaches the cap level %.9g; the end "
                          "does not flatten" % t1)
    s2 = _crossing(u, t1, s1, hi)
    # snap to the coarsest nearby decimal that still clears the cap level,
    # so exact crossings land on exact radii
    for k in range(13):
        cand = round(s2, k)
        if (abs(cand - s2) <= 1e-9 * max(1.0, abs(s2))
                and float(u.value(cand)) >= t1):
            s2 = cand
            break
    r_lo = _crossing(u, t0, s1, s2)

    v = compose(zeta, u)
    m_bar = -2.0 * eps * s1 ** (n - 2)
    return LohkampState(u=u, n=n, s1=s1, s2=s2, epsilon=eps, t0=t0, t1=t1,
                        zeta=zeta, v=v, m_bar=m_bar, band=(r_lo, s2))


def check_superharmonic(state):
    """Audit the flat Laplacian of the capped factor.

    The input u must be harmonic to roundoff on the audit grid
    [s1/2, 4 s2]; otherwise the cap identity lap v = zeta''(u) u'^2 +
    zeta'(u) lap u no longer controls the sign and the input is rejected.
    The audit passes when max lap v stays within roundoff of zero and the
    transition band shows a strict negative witness.
    """
    grid = np.linspace(0.5 * state.s1, 4.0 * state.s2, AUDIT_POINTS)
    lap_u = flat_laplacian(state.u, state.n)(grid)
    defect = float(np.max(np.abs(lap_u)))
    if defect > LAPLACIAN_TOL:
        raise ConfigError(
            "input factor is not harmonic: max |flat Laplacian| %.3g "
            "exceeds %.1g" % (defect, LAPLACIAN_TOL))
    lap_v = flat_laplacian(state.v, state.n)(grid)
    max_lap = float(np.max(lap_v))
    mask = (grid > state.band[0]) & (grid < state.band[1])
    min_band = float(np.min(lap_v[mask])) if mask.any() else 0.0
    passed = (max_lap <= LAPLACIAN_TOL) and (min_band < BAND_WITNESS)
    return {
        "harmonic_defect": defect,
        "max_lap": max_lap,
        "min_band_lap": min_band,
        "band": (float(state.band[0]), float(state.band[1])),
        "grid_points": AUDIT_POINTS,
        "passed": passed,
    }


def lohkamp_metric(state, audit=None):
    """Conformally flat metric of the capped factor, with curvature audit.

    Runs `check_superharmonic` when no audit is supplied.  The returned
    metric must have scalar curvature >= -1e-8 on the audit grid with a
    positive witness above 1e-6, and must be exactly the constant
    cap^{4/(n-2)} times the Euclidean metric for r >= s2; any violation is
    a regime failure.  Returns (metric, audit dict).
    """
    if audit is None:
        audit = check_superharmonic(state)
    if not audit["passed"]:
        raise RegimeError(
            "superharmonic audit failed: max_lap=%.3g min_band_lap=%.3g"
            % (audit["max_lap"], audit["min_band_lap"]))
    n = state.n
    r_min = 0.5 * state.s1
    g = _metrics.conformally_flat(state.v, n, family="lohkamp", r_min=r_min)

    R_fun = conformal_scalar(state.v, n)
    grid = np.linspace(r_min, 4.0 * state.s2, AUDIT_POINTS)
    R_vals = R_fun(grid)
    min_R = float(np.min(R_vals))
    witness = float(np.max(R_vals))
    if min_R < MIN_R_TARGET:
        raise RegimeError("scalar curvature dips to %.3g below the floor "
                          "%.1g" % (min_R, MIN_R_TARGET))
    if witness <= WITNESS_R:
        raise RegimeError("no positive scalar-curvature witness: max R "
                          "%.3g <= %.1g" % (witness, WITNESS_R))

    rr = np.linspace(state.s2, 8.0 * state.s2, 257)
    vv = state.v.value(rr)
    cap = state.cap
    if not np.all(vv == cap):
        raise RegimeError("capped factor is not exactly constant beyond "
                          "s2=%.6g" % state.s2)
    out = dict(audit)
    out.update({
        "min_R": min_R,
        "witness_R": witness,
        "flat_gap": float(np.max(np.abs(vv - cap))),
        "constant_factor": cap ** (4.0 / (n - 2)),
        "r_flat": state.s2,
        "m_bar": state.m_bar,
    })
    return g, out


@dataclass
class TorusGlueSpec:
    """Cube-torus chart parameters: side length, flat radius, collar width.

    `flat_radius` is the radius beyond which the chart must be exactly a
    constant multiple of the Euclidean metric.  Defaults (None): side = 16
    times the flat radius, collar = side / 16; a given 0 is refused.
    """

    flat_radius: float
    side: float = None
    collar: float = None

    def __post_init__(self):
        self.flat_radius = float(self.flat_radius)
        if not np.isfinite(self.flat_radius) or self.flat_radius <= 0:
            raise ConfigError("flat_radius must be positive, got %.6g"
                              % self.flat_radius)
        if self.side is None:
            self.side = 16.0 * self.flat_radius
        self.side = float(self.side)
        if self.collar is None:
            self.collar = self.side / 16.0
        self.collar = float(self.collar)
        if self.side <= 0 or self.collar <= 0:
            raise ConfigError("side and collar must be positive")
        if self.collar >= 0.5 * self.side:
            raise ConfigError("collar %.6g must be thinner than half the "
                              "side %.6g" % (self.collar, self.side))


def _collar_points(n, half, collar):
    """Deterministic sample set inside the boundary collar of the cube (n >= 3).

    Face centers, edge midpoints and corners (the vectors of {-1, 0, 1}^n
    with 1, 2 or n nonzero entries, times half), generic on-face points,
    and all of them again scaled to the collar's inner edge.
    """
    base = [half * np.array(s) for s in itertools.product((-1.0, 0.0, 1.0),
                                                          repeat=n)
            if np.count_nonzero(s) in (1, 2, n)]
    for k in range(n):
        for sgn in (-1.0, 1.0):
            for a in (-0.45, -0.15, 0.3):
                x = np.full(n, a * 2.0 * half / 3.0)
                x[k] = sgn * half
                base.append(x)
    base = np.array(base)
    return np.concatenate([base, (half - collar) / half * base])


def _face_pairs(n, half):
    """Matched sample points on opposite faces x_k = -half and +half."""
    offs = (-0.4, -0.1, 0.2, 0.45)
    lo, hi = [], []
    for k in range(n):
        for a in offs:
            for b in offs:
                x = np.zeros(n)
                x[(k + 1) % n] = a * 2.0 * half
                x[(k + 2) % n] = b * 2.0 * half
                x[k] = -half
                lo.append(x.copy())
                x[k] = half
                hi.append(x)
    return np.array(lo), np.array(hi)


def torus_glue(metric, spec):
    """Close a flattened chart into a cube torus and audit the glue.

    The chart must be conformally flat (the curvature audit uses the radial
    closed form).  Checks, in order: the metric equals a constant multiple
    of the identity bitwise on the boundary collar of the cube; opposite
    faces agree bitwise in the metric and its first derivatives (`dg`);
    scalar curvature stays above -1e-8 out to the cube corner.
    Returns the glue report; a positive curvature witness above 1e-6 is
    recorded as a flag, not enforced.
    """
    if metric.conformal_u is None:
        raise ConfigError("torus glue needs a conformally flat chart")
    n = metric.n
    L = spec.side
    half = 0.5 * L
    collar = spec.collar

    corner = np.full((1, n), half)
    G0 = metric.g(corner)[0]
    const_factor = float(G0[0, 0])
    target = const_factor * np.eye(n)

    P = _collar_points(n, half, collar)
    G = metric.g(P)
    gap = np.max(np.abs(G - target[None]), axis=(1, 2))
    collar_gap = float(np.max(gap))
    if collar_gap > 0:
        i = int(np.argmax(gap))
        raise RegimeError(
            "chart is not constant on the cube collar: metric deviates by "
            "%.3g at |x|=%.6g; the flat radius %.6g does not fit the cube "
            "side %.6g" % (float(gap[i]), float(np.linalg.norm(P[i])),
                           spec.flat_radius, L))

    lo, hi = _face_pairs(n, half)
    G_lo = metric.g(lo)
    G_hi = metric.g(hi)
    periodicity_gap = float(np.max(np.abs(G_lo - G_hi)))
    derivative_gap = float(np.max(np.abs(metric.dg(lo) - metric.dg(hi))))
    if periodicity_gap > 0 or derivative_gap > 0:
        raise RegimeError(
            "face pairs are not periodic: value gap %.3g, derivative gap "
            "%.3g" % (periodicity_gap, derivative_gap))

    R_fun = conformal_scalar(metric.conformal_u, n)
    r_hi = np.sqrt(float(n)) * half
    grid = np.linspace(max(1.005 * metric.r_min, 1e-3), r_hi, 6001)
    R_vals = R_fun(grid)
    min_R = float(np.min(R_vals))
    witness = float(np.max(R_vals))
    if min_R < MIN_R_TARGET:
        raise RegimeError("glued chart curvature dips to %.3g below %.1g"
                          % (min_R, MIN_R_TARGET))

    return {
        "n": n,
        "side": L,
        "collar": collar,
        "flat_radius": spec.flat_radius,
        "constant_factor": const_factor,
        "collar_points": int(P.shape[0]),
        "collar_gap": collar_gap,
        "periodicity_pairs": int(lo.shape[0]),
        "periodicity_gap": periodicity_gap,
        "derivative_gap": derivative_gap,
        "min_R": min_R,
        "witness_R": witness,
        "positive_witness": bool(witness > WITNESS_R),
    }
