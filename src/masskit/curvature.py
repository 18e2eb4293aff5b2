"""Pointwise curvature of end-chart metrics.

The numpy contraction kernels of ``_kernels_np`` read (g, dg, ddg).  At the
default step h = min(0.01 r, 0.05) these come from ``MetricSpec.jet``: exact
where the metric family supplies them, else the second-order stencil of
``fd_metric_derivatives`` (1 + 2 n^2 evaluations per point).  An explicit h
always runs the stencil, so step studies see its truncation order.  Either
way a point must lie two steps inside the chart (``check_margin``) and the
sampled values must be finite (``check_finite``).  ``MetricSpec.jet`` falls
back to the 2n-point stencil of ``fd_first_derivatives`` for first
derivatives alone.  The default step balances truncation against
cancellation across the log-radial range.
"""
from __future__ import annotations

import numpy as np

from . import _kernels_np
from .errors import DegenerateMetricError, DomainError


def default_step(r):
    r = np.asarray(r, dtype=float)
    return np.minimum(0.01 * r, 0.05)


def _steps(X, h):
    if h is None:
        return default_step(np.sqrt((X ** 2).sum(axis=1)))
    return np.full(X.shape[0], float(h))


def check_margin(X, r_min, h=None):
    """Raise DomainError unless every point lies two steps (the default
    step when h is None) inside the chart r >= r_min; returns the steps."""
    hv = _steps(X, h)
    r = np.sqrt((X ** 2).sum(axis=1))
    bad = r < r_min + 2.0 * hv
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError("stencil margin violated at point %d (r=%.4g, h=%.4g, chart r>=%.4g)"
                          % (i, r[i], hv[i], r_min))
    return hv


def check_finite(*arrays):
    """Raise DegenerateMetricError if any sampled value is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DegenerateMetricError("metric evaluation returned non-finite values")


def fd_first_derivatives(metric, X):
    """dg[p, k, i, j] = d_k g_ij at points X by central first differences at
    the default step: 2n metric evaluations per point, truncation O(h^2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, n = X.shape
    r = np.sqrt((X ** 2).sum(axis=1))
    hv = default_step(r)
    if np.any(r < metric.r_min + hv):
        raise DomainError("stencil point too close to the chart boundary "
                          "r_min=%.4g" % metric.r_min)
    dg = np.empty((N, n, n, n))
    for k in range(n):
        P = X.copy()
        M = X.copy()
        P[:, k] += hv
        M[:, k] -= hv
        dg[:, k] = (metric.g(P) - metric.g(M)) / (2.0 * hv)[:, None, None]
    # a non-finite sample leaves a non-finite difference
    check_finite(dg)
    return dg


def fd_metric_derivatives(metric, X, h=None):
    """Sampled (g, dg, ddg) arrays at points X by central differences.

    Returns g (N,n,n), dg (N,n,n,n) with dg[p,k] = d_k g, and ddg
    (N,n,n,n,n) with ddg[p,k,l] = d_k d_l g, truncation O(h^2).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, n = X.shape
    hv = check_margin(X, metric.r_min, h)

    # stencil offsets: center; +-e_k; the four corners per pair k<l
    pts = [X]
    for k in range(n):
        for s in (+1.0, -1.0):
            P = X.copy()
            P[:, k] += s * hv
            pts.append(P)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for (k, l) in pairs:
        for sk, sl in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            P = X.copy()
            P[:, k] += sk * hv
            P[:, l] += sl * hv
            pts.append(P)
    allpts = np.concatenate(pts, axis=0)
    G = metric.g(allpts)
    check_finite(G)
    S = len(pts)
    G = G.reshape(S, N, n, n)

    g0 = G[0]
    h1 = hv[:, None, None]
    h2 = (hv ** 2)[:, None, None]
    dg = np.empty((N, n, n, n))
    ddg = np.empty((N, n, n, n, n))
    for k in range(n):
        gp, gm = G[1 + 2 * k], G[2 + 2 * k]
        dg[:, k] = (gp - gm) / (2.0 * h1)
        ddg[:, k, k] = (gp - 2.0 * g0 + gm) / h2
    base = 1 + 2 * n
    for idx, (k, l) in enumerate(pairs):
        gpp, gpm, gmp, gmm = G[base + 4 * idx: base + 4 * idx + 4]
        mixed = (gpp - gpm - gmp + gmm) / (4.0 * h2)
        ddg[:, k, l] = mixed
        ddg[:, l, k] = mixed
    return g0, dg, ddg


def _fd_kernel(kernel, metric, X, h=None):
    g, dg, ddg = (metric.jet(X) if h is None
                  else fd_metric_derivatives(metric, X, h))
    try:
        return kernel(g, dg, ddg)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError("metric not invertible on the stencil") from exc


def scalar_curvature_bartnik(metric, X, h=None):
    """Scalar curvature batch via the divergence-form contraction identity."""
    return _fd_kernel(_kernels_np.scalar_curvature, metric, X, h)


def ricci_tensor_fd(metric, X):
    """Symmetric Ricci tensor batch; trace is checked against the scalar
    route by the test-suite invariants rather than here."""
    return _fd_kernel(_kernels_np.ricci_tensor, metric, X)


def sample_directions(n, count, rng=None):
    """Deterministic unit directions for audits (seeded Gaussian projection)."""
    rng = np.random.default_rng(0 if rng is None else rng) \
        if not isinstance(rng, np.random.Generator) else rng
    V = rng.standard_normal((count, n))
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def decay_audit(metric, rng=None):
    """Measured decay exponents of |h|, |dh|, |ddh| against the declared budget.

    Fits log(sup |.|) against log r over seven radii from 4 to 256 along 12
    seeded directions; a declared order is violated when the measured slope
    exceeds it by more than 0.2 (slower decay than declared).  Metrics
    indistinguishable from flat pass vacuously.
    """
    n = metric.n
    radii = np.geomspace(4.0, 256.0, 7)
    dirs = sample_directions(n, 12, rng)
    sup_h = np.empty(radii.size)
    sup_dh = np.empty(radii.size)
    sup_ddh = np.empty(radii.size)
    eye = np.eye(n)
    for i, rho in enumerate(radii):
        X = rho * dirs
        g, dg, ddg = fd_metric_derivatives(metric, X)
        sup_h[i] = np.abs(g - eye).max()
        sup_dh[i] = np.abs(dg).max()
        sup_ddh[i] = np.abs(ddg).max()
    declared = metric.decay_orders
    report = {"radii": radii.tolist(), "declared_orders": list(declared),
              "measured": {}, "violations": []}
    names = ("h", "dh", "ddh")
    for name, vals, decl in zip(names, (sup_h, sup_dh, sup_ddh), declared):
        if vals.max() < 1e-13:
            report["measured"][name] = {"order": None, "constant": 0.0,
                                        "sup": vals.tolist()}
            continue
        slope, logc = np.polyfit(np.log(radii), np.log(vals), 1)
        report["measured"][name] = {"order": float(slope),
                                    "constant": float(np.exp(logc)),
                                    "sup": vals.tolist()}
        if slope > decl + 0.2:
            report["violations"].append(
                {"component": name, "measured_order": float(slope),
                 "declared_order": float(decl)})
    report["pass"] = not report["violations"]
    return report
