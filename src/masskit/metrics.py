"""Metric families on the end chart R^n minus the closed unit ball.

A MetricSpec bundles a batched component evaluator g_ij(x) with structural
metadata: the dimension, a family tag, declared decay orders for the error term
h = g - delta, and (when the family is spherically symmetric) exact radial
profiles that downstream tiers use for closed-form reductions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import radial
from .errors import DegenerateMetricError
from .radial import RProfile


@dataclass
class RadialForm:
    """Radial metric data g = a(r) delta + b(r) xhat xhat^T."""
    a: RProfile
    b: Optional[RProfile] = None

    def ab(self, r):
        """Values and first derivatives (a, a', b, b') at radii r."""
        (a0, a1), (b0, b1) = radial.jets((self.a, self.b), r, 1)
        return a0, a1, b0, b1


@dataclass
class MetricSpec:
    """Closed-form end-chart metric with decay metadata.

    decay_orders are the declared powers of r bounding |h|, |dh| and |ddh|
    (componentwise sup over directions); q is the declared scalar-curvature
    decay power, q > n for the families used here.
    """
    n: int
    family: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    decay_orders: tuple = None
    q: float = None
    radial_form: Optional[RadialForm] = None
    conformal_u: Optional[RProfile] = None
    dg_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
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
        """Analytic first derivatives d_k g_ij when the family provides them,
        else None (callers fall back to central differences)."""
        if self.dg_evaluator is None:
            return None
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self.dg_evaluator(X), dtype=float)

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


def _radial_g(form: RadialForm, n):
    def ev(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        (a0,), (b0,) = radial.jets((form.a, form.b), r, 0)
        g = a0[:, None, None] * np.eye(n)[None]
        if form.b is not None:
            xh = X / r[:, None]
            g += b0[:, None, None] * xh[:, :, None] * xh[:, None, :]
        return g

    return ev


def _radial_dg(form: RadialForm, n):
    def ev(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        _, a1, b0, b1 = form.ab(r)
        xh = X / r[:, None]
        eye = np.eye(n)
        a1, b1, bor = (c[:, None, None] for c in (a1, b1, b0 / r))
        # d_k g_ij = a' xh_k delta_ij + b' xh_k xh_i xh_j
        #            + (b/r)(delta_ki xh_j + delta_kj xh_i - 2 xh_k xh_i xh_j),
        # filled one k at a time: the temporaries are (N, n, n) slices, so
        # the peak stays near the (N, n, n, n) result in a large flux sum
        dg = np.empty((X.shape[0], n, n, n))
        for k in range(n):
            xk = xh[:, k, None, None]
            xxx = xk * xh[:, :, None] * xh[:, None, :]
            dg[:, k] = a1 * xk * eye + b1 * xxx
            dg[:, k] += bor * (eye[k, :, None] * xh[:, None, :]
                               + eye[k] * xh[:, :, None] - 2.0 * xxx)
        return dg

    return ev


def euclidean(n):
    eye = np.eye(n)

    def ev(X):
        return np.broadcast_to(eye, (X.shape[0], n, n)).copy()

    form = RadialForm(a=radial.const(1.0))
    return MetricSpec(n=n, family="euclidean", evaluator=ev,
                      decay_orders=(2 - n, 1 - n, -n), q=n + 10.0,
                      radial_form=form, conformal_u=radial.const(1.0),
                      dg_evaluator=lambda X: np.zeros((X.shape[0], n, n, n)))


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
    return MetricSpec(n=n, family=family, evaluator=_radial_g(form, n), q=q,
                      radial_form=form, conformal_u=conformal_u,
                      dg_evaluator=_radial_dg(form, n), r_min=r_min)


def perturbed(base: MetricSpec, h_evaluator, family="perturbed",
              dh_evaluator=None):
    """base + h for a batched symmetric perturbation evaluator h(X); the
    result keeps the base's decay orders and q."""
    n = base.n

    def ev(X):
        return base.g(X) + np.asarray(h_evaluator(X), dtype=float)

    dg_ev = None
    if base.dg_evaluator is not None and dh_evaluator is not None:
        def dg_ev(X):
            return base.dg(X) + np.asarray(dh_evaluator(X), dtype=float)

    return MetricSpec(n=n, family=family, evaluator=ev,
                      decay_orders=base.decay_orders, q=base.q,
                      dg_evaluator=dg_ev, r_min=base.r_min)


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
    built once here.
    """
    Q = np.asarray(Q, dtype=float)
    pull = congruence(Q)
    return MetricSpec(n=metric.n, family=metric.family + "*rot",
                      evaluator=lambda X: pull(metric.g(X @ Q.T)),
                      decay_orders=metric.decay_orders,
                      q=metric.q, r_min=metric.r_min)
