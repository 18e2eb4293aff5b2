"""Metric families on the end chart R^n minus the closed unit ball.

A MetricSpec bundles a batched component evaluator g_ij(x) with structural
metadata: the dimension, a family tag, declared decay orders for the error term
h = g - delta, and (when the family is spherically symmetric) exact radial
profiles that downstream tiers use for closed-form reductions.

Exact derivatives (`MetricSpec.jet`) come from radial profiles' order-2
jets and pass to rotations of radial metrics; a perturbation's jet is its
base's plus the perturbation's, and other metrics are differenced.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import radial
from .curvature import (check_finite, check_margin, fd_first_derivatives,
                        fd_metric_derivatives)
from .errors import DegenerateMetricError
from .radial import RProfile


@dataclass
class RadialForm:
    """Radial metric data g = a(r) delta + b(r) xhat xhat^T."""
    a: RProfile
    b: Optional[RProfile] = None


@dataclass
class MetricSpec:
    """Closed-form end-chart metric with decay metadata.

    decay_orders are the declared powers of r bounding |h|, |dh| and |ddh|
    (componentwise sup over directions); q is the declared scalar-curvature
    decay power, q > n for the families used here.  jet_evaluator(X, k),
    when the family supplies it, returns the exact orders 0..k of g,
    indexed as `jet` returns them; only `jet` calls it.
    """
    n: int
    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    decay_orders: tuple = None
    q: float = None
    radial_form: Optional[RadialForm] = None
    conformal_u: Optional[RProfile] = None
    jet_evaluator: Optional[Callable[[np.ndarray, int], tuple]] = None
    r_min: float = 1.0

    def __post_init__(self):
        if self.decay_orders is None:
            self.decay_orders = (2 - self.n, 1 - self.n, -self.n)
        if self.q is None:
            self.q = self.n + 1

    def g(self, X):
        """Metric components at points X of shape (N, n) -> (N, n, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = self.evaluator(X)
        return np.asarray(out, dtype=float)

    def h(self, X):
        """Error term g - delta."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.g(X) - np.eye(self.n)[None]

    def dg(self, X):
        """First derivatives dg[p, k, i, j] = d_k g_ij at points X."""
        return self.jet(X, 1)[1]

    def jet(self, X, k=2):
        """Orders 0..k of g at points X: (g, dg) for k = 1, (g, dg, ddg)
        for k = 2, with dg[p, k] = d_k g and ddg[p, k, l] = d_k d_l g.

        This is the one place that chooses: the family's exact jet when it
        supplies one, else central differences at the default step
        (`fd_first_derivatives`, `fd_metric_derivatives`).  Either way the
        values must be finite, and order 2 needs every point two default
        steps inside the chart, so curvature does not depend on the choice.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.jet_evaluator is None:
            if k == 2:
                return fd_metric_derivatives(self, X)
            return self.g(X), fd_first_derivatives(self, X)
        if k == 2:
            check_margin(X, self.r_min)
        out = tuple(self.jet_evaluator(X, k))
        check_finite(*out)
        return out

    def check_pointwise(self, X):
        """Symmetry (to 1e-12) and positive-definiteness audit at sample
        points."""
        G = self.g(X)
        asym = np.abs(G - np.swapaxes(G, -1, -2)).max()
        if asym > 1e-12:
            raise DegenerateMetricError("metric asymmetry %.3g exceeds 1e-12"
                                        % asym)
        ev = np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2)))
        lam_min = float(ev.min())
        if lam_min <= 0.0:
            raise DegenerateMetricError("metric not positive definite (min eig %.3g)" % lam_min)
        return {"max_asymmetry": float(asym), "min_eigenvalue": lam_min}


@functools.lru_cache(maxsize=None)
def _slot_maps(n):
    """Constant maps from the coefficient fields of `_radial_jet` to the
    flattened derivative slots: D1 (2n, n^3) takes (A1 x_a, B x_a) to
    d_k g_ij, and D2 (2n^2 + 2, n^4) takes (A2 x_a x_b, A1, B1 x_a x_b, B)
    to d_k d_l g_ij."""
    d = np.eye(n)

    def block(k, *specs):
        # a sum of Kronecker-delta products as a (fields, n^k) block
        return sum(np.einsum(s, *[d] * (s.count(",") + 1))
                   for s in specs).reshape(-1, n ** k)

    D1 = np.concatenate([block(3, "ak,ij->akij"),
                         block(3, "ki,aj->akij", "kj,ai->akij")])
    D2 = np.concatenate([
        block(4, "ak,bl,ij->abklij"),
        block(4, "kl,ij->klij"),
        block(4, "kl,ai,bj->abklij", "ak,bj,li->abklij", "ak,bi,lj->abklij",
              "al,bj,ki->abklij", "al,bi,kj->abklij"),
        block(4, "ki,lj->klij", "kj,li->klij")])
    # shared by every caller through the cache
    D1.flags.writeable = D2.flags.writeable = False
    return D1, D2


def _radial_jet(form: RadialForm, n):
    """Exact jet evaluator of g = a(r) delta + B(r) x x^T, B = b / r^2.

    A radial coefficient f has d_k f = F1 x_k and
    d_k d_l f = F2 x_k x_l + F1 delta_kl, with F1 = f'/r and
    F2 = (f'' - f'/r) / r^2 from its order-2 jet.  So

      d_k g_ij = A1 x_k delta_ij + B1 x_k x_i x_j
                 + B (delta_ki x_j + delta_kj x_i),
      d_k d_l g_ij = (A2 x_k x_l + A1 delta_kl) delta_ij + B2 x_k x_l x_i x_j
                     + B1 (delta_kl x_i x_j + x_k x_j delta_li
                           + x_k x_i delta_lj + x_l x_j delta_ki
                           + x_l x_i delta_kj)
                     + B (delta_ki delta_lj + delta_kj delta_li).

    Every term but the B1 one of dg and the B2 one of ddg is linear in the
    fields that `_slot_maps` maps, so each order is one GEMM over flattened
    (N, n^2) slots plus, when b is given, one outer product.  Orders 0..k
    are returned, so order 0 is also the metric's evaluator.
    """
    B = None if form.b is None else form.b * radial.power(1.0, -2.0)
    # without b only the A fields are nonzero, and their maps come first
    nf = 1 if B is None else 2
    eye = np.eye(n)

    def jet(X, k):
        N = X.shape[0]
        r = np.sqrt((X ** 2).sum(axis=1))
        a, b = radial.jets((form.a, B), r, k)
        g = a[0][:, None, None] * eye
        if B is not None or k == 2:
            xx = (X[:, :, None] * X[:, None, :]).reshape(N, n * n)
        if B is not None:
            g += (b[0][:, None] * xx).reshape(N, n, n)
        out = [g]
        if k == 0:
            return out
        D1, D2 = _slot_maps(n)
        a1, b1 = a[1] / r, b[1] / r
        F = [a1[:, None] * X, b[0][:, None] * X][:nf]
        dg = np.concatenate(F, 1) @ D1[:nf * n]
        if B is not None:
            dg = dg.reshape(N, n, n * n)
            dg += X[:, :, None] * (b1[:, None] * xx)[:, None, :]
        out.append(dg.reshape(N, n, n, n))
        if k == 1:
            return out
        a2, b2 = (2.0 * a[2] - a1) / r ** 2, (2.0 * b[2] - b1) / r ** 2
        F = [a2[:, None] * xx, a1[:, None], b1[:, None] * xx, b[0][:, None]]
        ddg = np.concatenate(F[:2 * nf], 1) @ D2[:nf * (n * n + 1)]
        if B is not None:
            ddg = ddg.reshape(N, n * n, n * n)
            ddg += (b2[:, None] * xx)[:, :, None] * xx[:, None, :]
        out.append(ddg.reshape(N, n, n, n, n))
        return out

    return jet


def euclidean(n):
    one = radial.const(1.0)
    return radial_metric(one, None, n, family="euclidean", q=n + 10.0,
                         conformal_u=one)


def conformally_flat(u: RProfile, n, family="conformally_flat", q=None,
                     r_min=1.0):
    """Metric u(r)^{4/(n-2)} delta for a positive radial factor u."""
    return radial_metric(u.powc(4.0 / (n - 2)), None, n, family=family,
                         q=q, conformal_u=u, r_min=r_min)


def schwarzschild(m, n):
    """Spatial Schwarzschild slice (1 + m/(2 r^{n-2}))^{4/(n-2)} delta."""
    return conformally_flat(schwarzschild_factor(m, n), n,
                            family="schwarzschild", q=n + 10.0)


def schwarzschild_factor(m, n):
    """The radial factor 1 + m/(2 r^{n-2}) as a profile."""
    return radial.const(1.0) + radial.power(0.5 * m, 2 - n)


def radial_metric(a: RProfile, b: Optional[RProfile], n, family="radial",
                  q=None, conformal_u=None, r_min=1.0):
    form = RadialForm(a=a, b=b)
    jet = _radial_jet(form, n)
    return MetricSpec(n=n, family=family, evaluator=lambda X: jet(X, 0)[0],
                      q=q, radial_form=form, conformal_u=conformal_u,
                      jet_evaluator=jet, r_min=r_min)


def perturbed(base: MetricSpec, h_evaluator, family="perturbed",
              dh_evaluator=None):
    """base + h for a batched symmetric perturbation evaluator h(X); the
    result keeps the base's decay orders and q.

    Its jet is the base's jet plus the jet of h, each from `MetricSpec.jet`,
    so only what has no closed form is differenced; dh_evaluator(X), when
    given, replaces the first differences of h.
    """
    n = base.n
    h = from_evaluator(h_evaluator, n, r_min=base.r_min)

    def ev(X):
        return base.g(X) + h.g(X)

    def jet(X, k):
        if k == 1 and dh_evaluator is not None:
            jh = h.g(X), np.asarray(dh_evaluator(X), dtype=float)
        else:
            jh = h.jet(X, k)
        return [b + p for b, p in zip(base.jet(X, k), jh)]

    return MetricSpec(n=n, family=family, evaluator=ev,
                      decay_orders=base.decay_orders, q=base.q,
                      jet_evaluator=jet, r_min=base.r_min)


def from_evaluator(evaluator, n, family="composite", decay_orders=None,
                   r_min=1.0):
    """Metric from a bare component evaluator; derivatives by differences."""
    return MetricSpec(n=n, family=family, evaluator=evaluator,
                      decay_orders=decay_orders, r_min=r_min)


def conformal_product(base: MetricSpec, phi: RProfile, family="conformal"):
    """phi(r)^{4/(n-2)} * base for a radial base metric."""
    n = base.n
    fac = phi.powc(4.0 / (n - 2))
    form = base.radial_form
    b = None if form.b is None else fac * form.b
    u = None if base.conformal_u is None else base.conformal_u * phi
    return radial_metric(fac * form.a, b, n, family=family, q=base.q,
                         conformal_u=u, r_min=base.r_min)


def congruence(Q):
    """The batched pullback G -> Q^t G Q of (N, n, n) arrays, as one GEMM of
    the flattened G against kron(Q, Q)[(a, b), (i, j)] = Q_ai Q_bj."""
    QQ = np.kron(Q, Q)
    return lambda G: (G.reshape(len(G), -1) @ QQ).reshape(G.shape)


def rotate(metric: MetricSpec, Q):
    """Pullback of the metric under the chart rotation x -> Q x.

    (Q* g)_ij(x) = Q_ai g_ab(Qx) Q_bj; scalar invariants satisfy
    R(Q* g)(x) = R(g)(Qx).  The evaluator applies the congruence in its
    Kronecker form, g(QX).reshape(N, n^2) @ kron(Q, Q), with kron(Q, Q)
    built once here.  A radial metric is invariant under orthogonal Q,
    Q^t g(Qx) Q = g(x), so its pullback keeps the base's exact jet, whose
    g equals the congruence to roundoff; any other pullback is differenced.
    The result has no radial form either way, so mass integrals take it as
    a general chart.
    """
    Q = np.asarray(Q, dtype=float)
    pull = congruence(Q)
    jet = None
    if (metric.radial_form is not None
            and np.allclose(Q.T @ Q, np.eye(metric.n), rtol=0.0, atol=1e-12)):
        jet = metric.jet_evaluator
    return MetricSpec(n=metric.n, family=metric.family + "*rot",
                      evaluator=lambda X: pull(metric.g(X @ Q.T)),
                      decay_orders=metric.decay_orders, q=metric.q,
                      jet_evaluator=jet, r_min=metric.r_min)
