"""Radial profile calculus on truncated Taylor jets.

A profile is a smooth function of the radius r that evaluates its jet of any
requested order k: the Taylor coefficients f^(j)(r) / j!, j = 0..k, stacked
along a new leading axis.  Profiles combine by jet arithmetic (Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13): sums are
coefficient-wise, products follow the Leibniz rule, constant powers,
logarithms and exponentials follow their standard recurrences, and
composition is series composition.  Curvature formulas and cutoffs are exact
to whatever order they need; a caller that reads only values asks for
order 0.  ``p(r)`` returns the triple ``(y, dy, ddy)``.
"""
from __future__ import annotations

from math import factorial
from typing import NamedTuple

import numpy as np


def _mul(A, B):
    """Leibniz product: (AB)_j = sum_i A_i B_{j-i}."""
    out = A * B[0]
    for i in range(1, len(B)):
        out[i:] += A[:-i] * B[i]
    return out


def _powc(A, e):
    """A^e from j A_0 Y_j = sum_{i=1..j} (e i - (j - i)) A_i Y_{j-i}."""
    Y = np.empty_like(A)
    Y[0] = A[0] ** e
    for j in range(1, len(A)):
        Y[j] = sum((e * i - (j - i)) * A[i] * Y[j - i]
                   for i in range(1, j + 1)) / (j * A[0])
    return Y


def _log(A):
    """log A from j A_0 Y_j = j A_j - sum_{i=1..j-1} (j - i) A_i Y_{j-i}."""
    Y = np.empty_like(A)
    Y[0] = np.log(A[0])
    for j in range(1, len(A)):
        Y[j] = (A[j] - sum((j - i) * A[i] * Y[j - i]
                           for i in range(1, j)) / j) / A[0]
    return Y


def _exp(A):
    """exp A from j Y_j = sum_{i=1..j} i A_i Y_{j-i}."""
    Y = np.empty_like(A)
    Y[0] = np.exp(A[0])
    for j in range(1, len(A)):
        Y[j] = sum(i * A[i] * Y[j - i] for i in range(1, j + 1)) / j
    return Y


def _compose(O, I):
    """Series composition: O holds the outer jet taken at I_0."""
    out = np.zeros_like(I)
    out[0] = O[0]
    D = I.copy()
    D[0] = 0.0
    P = D
    for j in range(1, len(I)):
        out[1:] += O[j] * P[1:]
        P = _mul(P, D)
    return out


def _deriv(A):
    """Jet of the derivative, one order shorter: (f')_j = (j + 1) f_{j+1}."""
    return A[1:] * np.arange(1.0, len(A)).reshape((-1,) + (1,) * (A.ndim - 1))


def _var_power(x, e, k):
    """Jet of v^e at the variable jet v = (x, 1, 0, ...).  Only the
    first-order term of the powc recurrence survives there:
    Y_j = Y_{j-1} (e - j + 1) / (j x)."""
    Y = np.empty((k + 1,) + np.shape(x))
    Y[0] = x ** e
    for j in range(1, k + 1):
        Y[j] = Y[j - 1] * ((e - j + 1) / j) / x
    return Y


def _poly(x, slope, coeffs, k):
    """Jet of sum_i coeffs[i] v^i at the variable jet v = (x, slope, 0, ...),
    by Horner's rule; each step is a Leibniz product with v."""
    Y = np.zeros((k + 1,) + np.shape(x))
    Y[0] = coeffs[-1]
    for c in coeffs[-2::-1]:
        Z = Y * x
        if k:
            Z[1:] += Y[:-1] * slope
        Z[0] += c
        Y = Z
    return Y


class RProfile:
    """Scalar function of r evaluated as a truncated Taylor jet.

    Parameters
    ----------
    fn : callable
        fn(at, k) -> array of shape (k + 1,) + r.shape holding the Taylor
        coefficients f^(j)(r) / j!, j = 0..k, at the radii ``at.r``; inside
        fn, ``at(q, j)`` is the jet of another profile q at the same radii.
    """

    def __init__(self, fn):
        self._fn = fn

    def jet(self, r, k):
        """Taylor coefficients of orders 0..k at radii r."""
        return _Evaluation(r)(self, k)

    def __call__(self, r):
        """(y, dy, ddy): the value and the first two derivatives."""
        c = self.jet(r, 2)
        return c[0], c[1], 2.0 * c[2]

    def value(self, r):
        return self.jet(r, 0)[0]

    def d1(self, r):
        return self.jet(r, 1)[1]

    def d2(self, r):
        return 2.0 * self.jet(r, 2)[2]

    def __add__(self, other):
        other = as_profile(other)
        return RProfile(lambda at, k: at(self, k) + at(other, k))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (as_profile(other) * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            c = float(other)
            return RProfile(lambda at, k: c * at(self, k))
        other = as_profile(other)
        return RProfile(lambda at, k: _mul(at(self, k), at(other, k)))

    __rmul__ = __mul__

    def powc(self, e):
        """Profile raised to a constant exponent (profile must stay positive)."""
        e = float(e)
        return RProfile(lambda at, k: _powc(at(self, k), e))

    def logp(self):
        return RProfile(lambda at, k: _log(at(self, k)))

    def deriv(self):
        """The derivative as a profile; its order-k jet reads order k + 1."""
        return RProfile(lambda at, k: _deriv(at(self, k + 1)))


class _Evaluation:
    """Jets at fixed radii r.  Each profile is evaluated once, at the
    highest order asked so far, and its jet is shared by every profile
    built on it, so a subexpression used twice is computed once."""

    def __init__(self, r):
        self.r = np.asarray(r, dtype=float)
        self._memo = {}

    def __call__(self, p, k):
        c = self._memo.get(p)
        if c is None or len(c) <= k:
            c = self._memo[p] = p._fn(self, k)
        return c[:k + 1]


def jets(profiles, r, k):
    """Jets of order k of several profiles at the same radii; subprofiles
    they share are evaluated once.  None stands for the zero profile."""
    at = _Evaluation(r)
    return [np.zeros((k + 1,) + at.r.shape) if p is None else at(p, k)
            for p in profiles]


def as_profile(x):
    if isinstance(x, RProfile):
        return x
    if np.isscalar(x):
        return const(float(x))
    raise TypeError("cannot interpret %r as a radial profile" % (x,))


def const(c):
    c = float(c)
    return RProfile(lambda at, k: _poly(at.r, 0.0, (c,), k))


def identity():
    """The variable itself, r -> r."""
    return RProfile(lambda at, k: _poly(at.r, 1.0, (0.0, 1.0), k))


def power(c, a):
    """c * r**a."""
    c, a = float(c), float(a)
    return RProfile(lambda at, k: c * _var_power(at.r, a, k))


def gaussian(c, r0, width):
    """c * exp(-((r - r0)/width)**2)."""
    c, r0, width = float(c), float(r0), float(width)
    return RProfile(lambda at, k: c * _exp(
        _poly((at.r - r0) / width, 1.0 / width, (0.0, 0.0, -1.0), k)))


def bubble(c, lam=1.0):
    """c * (1 + (lam r)^2)^(-1/2); strictly superharmonic in three dimensions."""
    c, lam = float(c), float(lam)
    return RProfile(lambda at, k: c * _powc(
        _poly(lam * at.r, lam, (1.0, 0.0, 1.0), k), -0.5))


def from_spline(spline):
    """Wrap a scipy spline in r (e.g. CubicSpline) as a profile."""
    return RProfile(lambda at, k: np.stack(
        [spline(at.r, j) / factorial(j) for j in range(k + 1)]))


_SMOOTHSTEP = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)


def _ramps(t, starts, widths, k):
    """Jets, shaped (k + 1, m) + t.shape, of m quintic smoothstep ramps
    x^3 (10 - 15 x + 6 x^2) of x = (t - starts[i]) / widths[i]; the first
    and second derivatives vanish at both ends, and each ramp is the
    constant 0 or 1 outside its interval."""
    shape = (-1,) + (1,) * t.ndim
    widths = widths.reshape(shape)
    x = (t - starts.reshape(shape)) / widths
    Y = _poly(np.minimum(np.maximum(x, 0.0), 1.0), 1.0 / widths, _SMOOTHSTEP,
              k)
    if k:
        Y[1:] *= (x > 0.0) & (x < 1.0)
    return Y


def transition(t0, t1):
    """Profile in the variable t rising smoothly from 0 at t0 to 1 at t1."""
    starts, widths = np.array([t0], float), np.array([t1 - t0], float)
    return RProfile(lambda at, k: _ramps(at.r, starts, widths, k)[:, 0])


def window(t0, t1, t2, t3):
    """Plateau cutoff: 0 outside [t0, t3], 1 on [t1, t2], smoothstep ramps."""
    starts = np.array([t0, t2], float)
    widths = np.array([t1 - t0, t3 - t2], float)

    def fn(at, k):
        Y = _ramps(at.r, starts, widths, k)
        return Y[:, 0] - Y[:, 1]

    return RProfile(fn)


def compose(outer, inner):
    """Profile r -> outer(inner(r))."""
    fo, fi = as_profile(outer), as_profile(inner)

    def fn(at, k):
        I = at(fi, k)
        return _compose(fo.jet(I[0], k), I)

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
    return lambda r: -cn * u.value(r) ** ex * lap(r)


def radial_scalar(a, b, n):
    """Scalar curvature of a(r) delta + b(r) xhat xhat^T (b may be None).

    The metric is (a + b) dr^2 + a r^2 dOmega^2 = ds^2 + rho^2 dOmega^2 with
    rho = r sqrt(a) and ds = sqrt(a + b) dr, so
    R = -2(n-1) rho_ss / rho + (n-1)(n-2)(1 - rho_s^2) / rho^2, evaluated
    from the order-2 jets of a and b.
    """

    def R(r):
        r = np.asarray(r, dtype=float)
        A, B = jets((a, b), r, 2)
        rho = _mul(_poly(r, 1.0, (0.0, 1.0), 2), _powc(A, 0.5))
        c = _powc(A[:2] + B[:2], -0.5)
        rho_s = _mul(_deriv(rho), c)
        rho_ss = _deriv(rho_s)[0] * c[0]
        return (n - 1) * (-2.0 * rho_ss / rho[0]
                          + (n - 2) * (1.0 - rho_s[0] ** 2) / rho[0] ** 2)

    return R


class RicciProfiles(NamedTuple):
    """Radial Ricci tensor Ric_ij = alpha(r) delta_ij + beta(r) xhat_i xhat_j.

    Unpacking gives the two profiles; calling the pair at r gives their
    values (alpha, beta).
    """
    alpha: RProfile
    beta: RProfile

    def __call__(self, r):
        al, be = jets(self, r, 0)
        return al[0], be[0]


def conformal_ricci_profiles(u, n):
    """Ricci tensor of u^{4/(n-2)} delta as radial profiles (alpha, beta).

    Derived from the conformal transformation law with psi = (2/(n-2)) log u on
    a flat base: Ric = -(n-2)(Hess psi - dpsi dpsi) - (Lap psi + (n-2)|dpsi|^2) delta,
    so with q = psi'/r, alpha = -(2n-3) q - psi'' - (n-2) psi'^2 and
    beta = -(n-2)(psi'' - q - psi'^2).
    """
    psi = u.logp() * (2.0 / (n - 2))
    p1 = psi.deriv()
    p2 = p1.deriv()
    q = p1 * power(1.0, -1.0)
    sq = p1 * p1

    # p2 first: it asks psi for the highest order, so a shared evaluation
    # computes psi's jet once
    def alpha(at, k):
        return -(at(p2, k) + (2 * n - 3) * at(q, k) + (n - 2) * at(sq, k))

    def beta(at, k):
        return -(n - 2) * (at(p2, k) - at(q, k) - at(sq, k))

    return RicciProfiles(RProfile(alpha), RProfile(beta))
