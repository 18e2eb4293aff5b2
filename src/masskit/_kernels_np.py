"""Batched curvature contraction kernels in numpy.

Index conventions for a batch of N points in dimension n:

    g   (N, n, n)          g[p, i, j]       = g_ij
    dg  (N, n, n, n)       dg[p, k, i, j]   = d_k g_ij
    ddg (N, n, n, n, n)    ddg[p, k, l, i, j] = d_k d_l g_ij

All outputs are plain float64 arrays.  The scalar curvature implements the
divergence-form identity

    R = |g|^{-1/2} d_i(|g|^{1/2} g^{ij} (G_j - 1/2 d_j log|g|))
        - 1/2 g^{ij} G_i d_j log|g| + g^{ij} g^{kl} g^{pq} G_ikp G_jql

expanded into algebraic contractions of (g, dg, ddg); the Ricci path uses the
standard second-kind Christoffel formula.  Both routes agree to machine
precision on exact derivative inputs.

Every contraction is a batched matmul of reshaped operands: the contracted
slots are made adjacent and flattened, so each point costs a few small GEMMs
and no einsum loops over index tuples.  Second derivatives enter only through
traces of ddg against g^{-1}, so neither kernel builds the (N, n, n, n, n)
derivatives of the Christoffel symbols; the Ricci kernel reads just the two
traces d_c G^c_ab and d_a G^c_cb.
"""
from __future__ import annotations

import numpy as np


def _trace(ginv, ddg, x, y):
    """g^uv contracted into slots x (u) and y (v) of ddg, slots 1..4; the
    result is indexed by the remaining two slots in order."""
    N, n = ginv.shape[:2]
    rest = [s for s in range(1, 5) if s not in (x, y)]
    D = ddg.transpose(0, *rest, x, y).reshape(N, n * n, n * n)
    return (D @ ginv.reshape(N, n * n, 1)).reshape(N, n, n)


def _christoffel(g, dg):
    """g^{-1}, dginv[p, l] = d_l g^{-1} = -g^{-1} (d_l g) g^{-1}, G1 and Gc
    as returned by `christoffel_first`, and S[p, a, b, c] = G^c_ab."""
    N, n = g.shape[:2]
    ginv = np.linalg.inv(g)
    # both factors of the congruence as one GEMM per point over all l
    dgR = (dg.reshape(N, n * n, n) @ ginv).reshape(N, n, n, n)
    dginv = -(ginv @ dgR.transpose(0, 2, 1, 3).reshape(N, n, n * n))
    G1 = 0.5 * (dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1))
    G1f = G1.reshape(N, n * n, n)
    Gc = (ginv.reshape(N, 1, n * n) @ G1f)[:, 0]
    S = (G1f @ ginv.transpose(0, 2, 1)).reshape(N, n, n, n)
    return ginv, dginv.reshape(N, n, n, n).transpose(0, 2, 1, 3), G1, Gc, S


def christoffel_first(g, dg):
    """First-kind Christoffel symbols and their inverse-metric contraction.

    Returns
    -------
    G1 : (N, n, n, n) with G1[p, i, j, k] = 1/2 (d_i g_jk + d_j g_ik - d_k g_ij)
    Gc : (N, n) with Gc[p, k] = g^{ij} G1[p, i, j, k]
    """
    return _christoffel(g, dg)[2:4]


def scalar_curvature(g, dg, ddg):
    """Scalar curvature batch via the expanded divergence-form identity."""
    ginv, dginv, G1, Gc, S = _christoffel(g, dg)
    N, n = g.shape[:2]
    dgf, dginvf = dg.reshape(N, n, n * n), dginv.reshape(N, n, n * n)
    G1f = G1.reshape(N, n * n, n)
    M = _trace(ginv, ddg, 3, 4)
    dlog = (dgf @ ginv.reshape(N, n * n, 1))[..., 0]
    P = Gc - 0.5 * dlog
    # d_l Gc_k - 1/2 d_k d_l log|g|, with g^ij d_l G1_ijk traced per ddg
    # term; ddg is symmetric in (k, l) and in (i, j), so the (2, 3) and
    # (3, 2) traces are one array T
    T = _trace(ginv, ddg, 2, 3)
    dP = (dginvf @ G1f + 0.5 * (2.0 * T - M)
          - 0.5 * (dgf @ dginvf.transpose(0, 2, 1) + M))
    # quadratic term g^ab g^cd g^ef G_ace G_bfd = U[b, c, f] G^c_bf with U
    # the first-kind symbols raised in the first and last slots (they are
    # not symmetric in the last two, so the pairing is crossed)
    U = ginv.transpose(0, 2, 1) @ (G1f @ ginv).reshape(N, n, n * n)
    quad = (U.reshape(N, n, n, n) * S.transpose(0, 1, 3, 2)).sum(axis=(1, 2, 3))
    return (0.5 * (dlog * (ginv @ P[..., None])[..., 0]).sum(axis=1)
            + (np.trace(dginv, axis1=1, axis2=2) * P).sum(axis=1)
            + (ginv * dP).sum(axis=(1, 2))
            - 0.5 * (Gc * (ginv @ dlog[..., None])[..., 0]).sum(axis=1)
            + quad)


def ricci_tensor(g, dg, ddg):
    """Symmetric Ricci tensor batch from second-kind Christoffel symbols,

    Ric_ab = d_c G^c_ab - d_a G^c_cb + G^c_cd G^d_ab - G^c_ad G^d_cb,

    with d_l G^c_ab = (d_l g^ck) G_abk + g^ck d_l G_abk read only along the
    two traces the formula takes: div[a, b] = d_c G^c_ab and
    grad[a, b] = d_a G^c_cb.
    """
    ginv, dginv, G1, _, S = _christoffel(g, dg)
    N, n = g.shape[:2]
    G1f = G1.reshape(N, n * n, n)
    # H[a, b] = g^ck d_c d_a g_bk, which is also g^ck d_a d_c g_bk because
    # ddg is symmetric in its two derivative slots; with its symmetry in
    # (i, j) as well, the (3, 2) trace is H too and cancels in grad
    H = _trace(ginv, ddg, 1, 4)
    div = (G1f @ np.trace(dginv, axis1=1, axis2=2)[..., None]).reshape(N, n, n)
    div += 0.5 * (H + H.transpose(0, 2, 1) - _trace(ginv, ddg, 1, 2))
    grad = (dginv.reshape(N, n, n * n)
            @ G1.transpose(0, 1, 3, 2).reshape(N, n * n, n))
    grad += 0.5 * _trace(ginv, ddg, 3, 4)
    quad = (S.reshape(N, n * n, n)
            @ np.trace(S, axis1=1, axis2=3)[..., None]).reshape(N, n, n)
    quad -= (S.reshape(N, n, n * n)
             @ S.transpose(0, 2, 3, 1).reshape(N, n, n * n).transpose(0, 2, 1))
    Ric = div - grad + quad
    return 0.5 * (Ric + Ric.transpose(0, 2, 1))
