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

Congruences such as g^{-1} dg g^{-1} are batched matmuls, and the quartic
Christoffel term is contracted in two-operand stages: numpy runs an einsum of
three or more operands as one loop over all of their indices unless asked to
plan a path, and planning on every call costs more than the contraction at
the few dozen points of a ``converge`` refinement.
"""
from __future__ import annotations

import numpy as np


def christoffel_first(g, dg):
    """First-kind Christoffel symbols and their inverse-metric contraction.

    Returns
    -------
    G1 : (N, n, n, n) with G1[p, i, j, k] = 1/2 (d_i g_jk + d_j g_ik - d_k g_ij)
    Gc : (N, n) with Gc[p, k] = g^{ij} G1[p, i, j, k]
    """
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    ginv = np.linalg.inv(g)
    Gc = np.einsum('pij,pijk->pk', ginv, G1)
    return G1, Gc


def _dchristoffel_first(ddg):
    # dG1[p, l, i, j, k] = d_l G1[i, j, k]
    return 0.5 * (ddg + np.einsum('pljik->plijk', ddg)
                  - np.einsum('plkij->plijk', ddg))


def scalar_curvature(g, dg, ddg):
    """Scalar curvature batch via the expanded divergence-form identity."""
    ginv = np.linalg.inv(g)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dlog = np.einsum('pij,pkij->pk', ginv, dg)
    ddlog = (np.einsum('plij,pkij->pkl', dginv, dg)
             + np.einsum('pij,pklij->pkl', ginv, ddg))
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    dG1 = _dchristoffel_first(ddg)
    Gc = np.einsum('pij,pijk->pk', ginv, G1)
    dGc = (np.einsum('plij,pijk->plk', dginv, G1)
           + np.einsum('pij,plijk->plk', ginv, dG1))
    P = Gc - 0.5 * dlog
    dP = dGc - 0.5 * ddlog
    # quadratic term g^ab g^cd g^ef G_ace G_bfd: pairs (a,b)(c,d)(e,f), the
    # second factor's last two slots crossed (first-kind symbols are not
    # symmetric there); contracted one inverse metric at a time
    T = np.einsum('pab,pace->pbce', ginv, G1)
    T = np.einsum('pcd,pbce->pbde', ginv, T)
    T = T @ ginv[:, None]
    R = (0.5 * np.einsum('pi,pij,pj->p', dlog, ginv, P)
         + np.einsum('piij,pj->p', dginv, P)
         + np.einsum('pij,pij->p', ginv, dP)
         - 0.5 * np.einsum('pij,pi,pj->p', ginv, Gc, dlog)
         + np.einsum('pbdf,pbfd->p', T, G1))
    return R


def ricci_tensor(g, dg, ddg):
    """Symmetric Ricci tensor batch from second-kind Christoffel symbols."""
    ginv = np.linalg.inv(g)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    dG1 = _dchristoffel_first(ddg)
    G2 = np.einsum('pck,pabk->pcab', ginv, G1)
    dG2 = (np.einsum('plck,pabk->plcab', dginv, G1)
           + np.einsum('pck,plabk->plcab', ginv, dG1))
    Ric = (np.einsum('pccab->pab', dG2) - np.einsum('paccb->pab', dG2)
           + np.einsum('pccd,pdab->pab', G2, G2)
           - np.einsum('pcad,pdcb->pab', G2, G2))
    return 0.5 * (Ric + np.einsum('pab->pba', Ric))
