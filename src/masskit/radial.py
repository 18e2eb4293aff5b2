"""Radial profile calculus.

A profile is a smooth function of the radius r carried together with its first
two derivatives, so that curvature formulas and cutoff constructions can be
evaluated in closed form instead of by numerical differentiation.  Profiles are
combined with exact chain/product rules; every constructor returns a vectorized
callable ``p(r) -> (y, dy, ddy)``.
"""
from __future__ import annotations

import numpy as np


class RProfile:
    """Scalar function of r with exact first and second derivatives.

    Parameters
    ----------
    fn : callable
        Vectorized map r -> (y, dy, ddy), each shaped like r.
    """

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        y, dy, ddy = self._fn(r)
        return np.asarray(y, float), np.asarray(dy, float), np.asarray(ddy, float)

    def value(self, r):
        return self(r)[0]

    def d1(self, r):
        return self(r)[1]

    def d2(self, r):
        return self(r)[2]

    def __add__(self, other):
        other = as_profile(other)

        def fn(r):
            a0, a1, a2 = self(r)
            b0, b1, b2 = other(r)
            return a0 + b0, a1 + b1, a2 + b2

        return RProfile(fn)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (as_profile(other) * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)

            def fn(r):
                a0, a1, a2 = self(r)
                return c * a0, c * a1, c * a2

            return RProfile(fn)
        other = as_profile(other)

        def fn(r):
            a0, a1, a2 = self(r)
            b0, b1, b2 = other(r)
            return a0 * b0, a1 * b0 + a0 * b1, a2 * b0 + 2 * a1 * b1 + a0 * b2

        return RProfile(fn)

    __rmul__ = __mul__

    def powc(self, e):
        """Profile raised to a constant exponent (profile must stay positive)."""
        e = float(e)

        def fn(r):
            a0, a1, a2 = self(r)
            y = a0 ** e
            dy = e * a0 ** (e - 1) * a1
            ddy = e * (e - 1) * a0 ** (e - 2) * a1 ** 2 + e * a0 ** (e - 1) * a2
            return y, dy, ddy

        return RProfile(fn)

    def logp(self):
        def fn(r):
            a0, a1, a2 = self(r)
            return np.log(a0), a1 / a0, a2 / a0 - (a1 / a0) ** 2

        return RProfile(fn)


def as_profile(x):
    if isinstance(x, RProfile):
        return x
    if np.isscalar(x):
        return const(float(x))
    raise TypeError("cannot interpret %r as a radial profile" % (x,))


def const(c):
    c = float(c)

    def fn(r):
        z = np.zeros_like(r)
        return np.full_like(r, c), z, z

    return RProfile(fn)


def power(c, a):
    """c * r**a with exact derivatives."""
    c, a = float(c), float(a)

    def fn(r):
        y = c * r ** a
        return y, a * y / r, a * (a - 1) * y / r ** 2

    return RProfile(fn)


def gaussian(c, r0, width):
    """c * exp(-((r - r0)/width)**2)."""
    c, r0, width = float(c), float(r0), float(width)

    def fn(r):
        t = (r - r0) / width
        y = c * np.exp(-t * t)
        dy = y * (-2 * t / width)
        ddy = y * ((4 * t * t - 2) / width ** 2)
        return y, dy, ddy

    return RProfile(fn)


def bubble(c, lam=1.0):
    """c * (1 + (lam r)^2)^(-1/2); strictly superharmonic in three dimensions."""
    c, lam = float(c), float(lam)

    def fn(r):
        s = lam * r
        q = 1.0 + s * s
        y = c * q ** -0.5
        dy = -c * lam * s * q ** -1.5
        ddy = c * lam * lam * (2 * s * s - 1.0) * q ** -2.5
        return y, dy, ddy

    return RProfile(fn)


def from_spline(spline):
    """Wrap a scipy spline in r (e.g. CubicSpline) as a profile."""
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    def fn(r):
        return spline(r), d1(r), d2(r)

    return RProfile(fn)


def smoothstep(x):
    """Quintic smoothstep on [0,1] with vanishing first and second derivatives
    at both ends; returns (value, d/dx, d2/dx2) with clamping outside [0,1]."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, 0.0, 1.0)
    y = xc ** 3 * (10.0 + xc * (-15.0 + 6.0 * xc))
    dy = 30.0 * xc ** 2 * (xc - 1.0) ** 2
    ddy = 60.0 * xc * (2.0 * xc - 1.0) * (xc - 1.0)
    inside = (x > 0.0) & (x < 1.0)
    dy = np.where(inside, dy, 0.0)
    ddy = np.where(inside, ddy, 0.0)
    return y, dy, ddy


def transition(t0, t1):
    """Profile in the variable t rising smoothly from 0 at t0 to 1 at t1."""
    t0, t1 = float(t0), float(t1)
    w = t1 - t0

    def fn(t):
        y, dy, ddy = smoothstep((t - t0) / w)
        return y, dy / w, ddy / w ** 2

    return RProfile(fn)


def window(t0, t1, t2, t3):
    """Plateau cutoff: 0 outside [t0, t3], 1 on [t1, t2], smoothstep ramps."""
    up = transition(t0, t1)
    down = transition(t2, t3)

    def fn(t):
        u0, u1, u2 = up(t)
        d0, d1, d2 = down(t)
        return u0 - d0, u1 - d1, u2 - d2

    return RProfile(fn)


def compose(outer, inner):
    """Profile r -> outer(inner(r)) with chain-rule derivatives."""
    fo, fi = as_profile(outer), as_profile(inner)

    def fn(r):
        y, dy, ddy = fi(r)
        z, dz, ddz = fo(y)
        return z, dz * dy, ddz * dy * dy + dz * ddy

    return RProfile(fn)


def flat_laplacian(profile, n):
    """Radial flat Laplacian p'' + (n-1) p'/r, returned as plain arrays."""

    def lap(r):
        r = np.asarray(r, dtype=float)
        _, dy, ddy = profile(r)
        return ddy + (n - 1) * dy / r

    return lap


def conformal_scalar(u, n):
    """Scalar curvature of u^{4/(n-2)} delta for a radial factor u > 0.

    Uses the closed form R = -(4(n-1)/(n-2)) u^{-(n+2)/(n-2)} (flat Laplacian
    of u); exact given exact profile derivatives.
    """
    cn = 4.0 * (n - 1) / (n - 2)
    ex = -(n + 2.0) / (n - 2.0)
    lap = flat_laplacian(u, n)

    def R(r):
        r = np.asarray(r, dtype=float)
        u0 = u.value(r)
        return -cn * u0 ** ex * lap(r)

    return R


def conformal_ricci_profiles(u, n):
    """Ricci tensor of u^{4/(n-2)} delta as radial profiles (alpha, beta) with
    Ric_ij = alpha(r) delta_ij + beta(r) xhat_i xhat_j.

    Derived from the conformal transformation law with psi = (2/(n-2)) log u on
    a flat base: Ric = -(n-2)(Hess psi - dpsi dpsi) - (Lap psi + (n-2)|dpsi|^2) delta.
    """
    psi = u.logp() * (2.0 / (n - 2))

    def ab(r):
        r = np.asarray(r, dtype=float)
        _, p1, p2 = psi(r)
        lap = p2 + (n - 1) * p1 / r
        alpha = -(n - 2) * (p1 / r) - lap - (n - 2) * p1 ** 2
        beta = -(n - 2) * (p2 - p1 / r - p1 ** 2)
        return alpha, beta

    return ab
