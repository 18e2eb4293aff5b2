"""Contraction-kernel identities on exact polynomial metric jets.

The two curvature routes (divergence-form scalar and Ricci trace) must agree
to roundoff whenever they see the same exact (g, dg, ddg) triple; quadratic
metrics make that triple exact with no differencing involved.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masskit import _kernels_np as K


def quadratic_jet(A, B, C, X):
    """Exact (g, dg, ddg) of g(x) = A + B.x + x.C.x/2 at points X."""
    N, n = X.shape
    g = (A[None] + np.einsum('kij,pk->pij', B, X)
         + 0.5 * np.einsum('klij,pk,pl->pij', C, X, X))
    dg = B[None] + np.einsum('klij,pl->pkij', C, X)
    ddg = np.broadcast_to(C, (N,) + C.shape).copy()
    return g, dg, ddg


def make_coeffs(n, seed, scale=0.08):
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.1 * _sym(rng.standard_normal((n, n)))
    B = scale * _symlast(rng.standard_normal((n, n, n)))
    C = scale * _symlast(rng.standard_normal((n, n, n, n)))
    C = 0.5 * (C + np.swapaxes(C, 0, 1))
    return A, B, C


def _sym(M):
    return 0.5 * (M + M.T)


def _symlast(T):
    return 0.5 * (T + np.swapaxes(T, -1, -2))


def test_constant_metric_is_flat():
    rng = np.random.default_rng(3)
    n = 3
    A = np.eye(n) + 0.3 * _sym(rng.standard_normal((n, n)))
    X = rng.standard_normal((5, n))
    g, dg, ddg = quadratic_jet(A, np.zeros((n, n, n)), np.zeros((n, n, n, n)), X)
    assert np.abs(K.scalar_curvature(g, dg, ddg)).max() < 1e-14
    assert np.abs(K.ricci_tensor(g, dg, ddg)).max() < 1e-14


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (4, 2), (4, 7)])
def test_scalar_equals_ricci_trace(n, seed):
    A, B, C = make_coeffs(n, seed)
    X = np.random.default_rng(seed + 100).standard_normal((6, n))
    g, dg, ddg = quadratic_jet(A, B, C, X)
    R = K.scalar_curvature(g, dg, ddg)
    Ric = K.ricci_tensor(g, dg, ddg)
    tr = np.einsum('pij,pij->p', np.linalg.inv(g), Ric)
    assert np.abs(R - tr).max() < 1e-12 * (1.0 + np.abs(R).max())


def test_ricci_symmetry():
    A, B, C = make_coeffs(3, 5)
    X = np.random.default_rng(9).standard_normal((4, 3))
    g, dg, ddg = quadratic_jet(A, B, C, X)
    Ric = K.ricci_tensor(g, dg, ddg)
    assert np.abs(Ric - np.swapaxes(Ric, -1, -2)).max() < 1e-13


def test_christoffel_recovers_metric_derivative():
    # G1[i,j,k] = (d_i g_jk + d_j g_ik - d_k g_ij)/2, so swapping the outer
    # slot pair and adding cancels everything but one term:
    # G1[i,j,k] + G1[k,j,i] = d_j g_ik
    A, B, C = make_coeffs(3, 11)
    X = np.random.default_rng(13).standard_normal((4, 3))
    g, dg, ddg = quadratic_jet(A, B, C, X)
    G1, _ = K.christoffel_first(g, dg)
    lhs = G1 + np.einsum('pkji->pijk', G1)
    rhs = np.einsum('pjik->pijk', dg)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_round_sphere_exact_jet():
    # stereographic factor phi = sqrt(2)/sqrt(1+r^2), g = phi^4 delta, R = 6
    n = 3
    X = np.array([[0.3, 0.4, -0.2], [1.0, -1.0, 0.5], [0.0, 0.0, 0.1]])
    r2 = (X ** 2).sum(axis=1)
    N = X.shape[0]
    s = 1.0 + r2
    f = 4.0 / s ** 2
    df = -16.0 * X / s[:, None] ** 3
    ddf = (-16.0 * np.eye(n)[None] / s[:, None, None] ** 3
           + 96.0 * X[:, :, None] * X[:, None, :] / s[:, None, None] ** 4)
    eye = np.eye(n)
    g = f[:, None, None] * eye[None]
    dg = df[:, :, None, None] * eye[None, None]
    ddg = ddf[:, :, :, None, None] * eye[None, None, None]
    R = K.scalar_curvature(g, dg, ddg)
    assert np.abs(R - 6.0).max() < 1e-12
    Ric = K.ricci_tensor(g, dg, ddg)
    # Einstein: Ric = 2 g for the unit round sphere in three dimensions
    assert np.abs(Ric - 2.0 * g).max() < 1e-12


def _scalar_curvature_unfactored(g, dg, ddg):
    """The divergence-form identity with every contraction as one einsum,
    the quartic term as a single five-operand contraction."""
    ginv = np.linalg.inv(g)
    dginv = -np.einsum('pia,plab,pbj->plij', ginv, dg, ginv)
    dlog = np.einsum('pij,pkij->pk', ginv, dg)
    ddlog = (np.einsum('plij,pkij->pkl', dginv, dg)
             + np.einsum('pij,pklij->pkl', ginv, ddg))
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    dG1 = 0.5 * (ddg + np.einsum('pljik->plijk', ddg)
                 - np.einsum('plkij->plijk', ddg))
    Gc = np.einsum('pij,pijk->pk', ginv, G1)
    dGc = (np.einsum('plij,pijk->plk', dginv, G1)
           + np.einsum('pij,plijk->plk', ginv, dG1))
    P = Gc - 0.5 * dlog
    dP = dGc - 0.5 * ddlog
    return (0.5 * np.einsum('pi,pij,pj->p', dlog, ginv, P)
            + np.einsum('piij,pj->p', dginv, P)
            + np.einsum('pij,pij->p', ginv, dP)
            - 0.5 * np.einsum('pij,pi,pj->p', ginv, Gc, dlog)
            + np.einsum('pab,pcd,pef,pace,pbfd->p', ginv, ginv, ginv, G1, G1))


@pytest.mark.parametrize("N", [1, 257])
@pytest.mark.parametrize("n,seed", [(3, 0), (4, 2)])
def test_scalar_matches_unfactored_contraction(N, n, seed):
    # |x| ~ 0.5 keeps every sampled g positive definite (condition <= 5)
    A, B, C = make_coeffs(n, seed)
    X = 0.5 * np.random.default_rng(seed + 200).standard_normal((N, n))
    g, dg, ddg = quadratic_jet(A, B, C, X)
    ref = _scalar_curvature_unfactored(g, dg, ddg)
    R = K.scalar_curvature(g, dg, ddg)
    assert np.abs(R - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([3, 4]))
def test_trace_identity_property(seed, n):
    A, B, C = make_coeffs(n, seed, scale=0.05)
    X = np.random.default_rng(seed ^ 0xABCD).standard_normal((3, n))
    g, dg, ddg = quadratic_jet(A, B, C, X)
    R = K.scalar_curvature(g, dg, ddg)
    Ric = K.ricci_tensor(g, dg, ddg)
    tr = np.einsum('pij,pij->p', np.linalg.inv(g), Ric)
    scale = 1.0 + np.abs(R).max()
    assert np.abs(R - tr).max() < 1e-10 * scale


def _scalar_curvature_einsum(g, dg, ddg):
    """The divergence-form identity contracted by two-operand einsums, the
    quartic term staged one inverse metric at a time."""
    ginv = np.linalg.inv(g)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dlog = np.einsum('pij,pkij->pk', ginv, dg)
    ddlog = (np.einsum('plij,pkij->pkl', dginv, dg)
             + np.einsum('pij,pklij->pkl', ginv, ddg))
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    dG1 = 0.5 * (ddg + np.einsum('pljik->plijk', ddg)
                 - np.einsum('plkij->plijk', ddg))
    Gc = np.einsum('pij,pijk->pk', ginv, G1)
    dGc = (np.einsum('plij,pijk->plk', dginv, G1)
           + np.einsum('pij,plijk->plk', ginv, dG1))
    P = Gc - 0.5 * dlog
    dP = dGc - 0.5 * ddlog
    T = np.einsum('pab,pace->pbce', ginv, G1)
    T = np.einsum('pcd,pbce->pbde', ginv, T)
    T = T @ ginv[:, None]
    return (0.5 * np.einsum('pi,pij,pj->p', dlog, ginv, P)
            + np.einsum('piij,pj->p', dginv, P)
            + np.einsum('pij,pij->p', ginv, dP)
            - 0.5 * np.einsum('pij,pi,pj->p', ginv, Gc, dlog)
            + np.einsum('pbdf,pbfd->p', T, G1))


def _ricci_tensor_einsum(g, dg, ddg):
    """Ricci from the full derivative of the second-kind symbols, dG2[l, c,
    a, b] = d_l G^c_ab, and einsum traces of it."""
    ginv = np.linalg.inv(g)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    G1 = 0.5 * (dg + np.einsum('pjik->pijk', dg) - np.einsum('pkij->pijk', dg))
    dG1 = 0.5 * (ddg + np.einsum('pljik->plijk', ddg)
                 - np.einsum('plkij->plijk', ddg))
    G2 = np.einsum('pck,pabk->pcab', ginv, G1)
    dG2 = (np.einsum('plck,pabk->plcab', dginv, G1)
           + np.einsum('pck,plabk->plcab', ginv, dG1))
    Ric = (np.einsum('pccab->pab', dG2) - np.einsum('paccb->pab', dG2)
           + np.einsum('pccd,pdab->pab', G2, G2)
           - np.einsum('pcad,pdcb->pab', G2, G2))
    return 0.5 * (Ric + np.einsum('pab->pba', Ric))


def _jet_batch(n, seed, N):
    # |x| ~ 0.5 keeps every sampled g positive definite
    A, B, C = make_coeffs(n, seed)
    X = 0.5 * np.random.default_rng(seed + 300).standard_normal((N, n))
    return quadratic_jet(A, B, C, X)


@pytest.mark.parametrize("n,seed", [(3, 0), (4, 2), (5, 4)])
def test_kernels_match_einsum_contractions(n, seed):
    g, dg, ddg = _jet_batch(n, seed, 64)
    R_ref = _scalar_curvature_einsum(g, dg, ddg)
    Ric_ref = _ricci_tensor_einsum(g, dg, ddg)
    R = K.scalar_curvature(g, dg, ddg)
    Ric = K.ricci_tensor(g, dg, ddg)
    assert np.abs(R - R_ref).max() <= 1e-13 * np.abs(R_ref).max()
    assert np.abs(Ric - Ric_ref).max() <= 1e-13 * np.abs(Ric_ref).max()
    G1, Gc = K.christoffel_first(g, dg)
    Gc_ref = np.einsum('pij,pijk->pk', np.linalg.inv(g), G1)
    assert np.abs(Gc - Gc_ref).max() <= 1e-13 * np.abs(Gc_ref).max()


def test_kernel_rows_do_not_depend_on_batch_size():
    # `converge` calls the kernels on a few dozen points, the FD path on
    # thousands: a row must not change with the batch around it
    g, dg, ddg = _jet_batch(3, 1, 8192)
    R = K.scalar_curvature(g, dg, ddg)
    Ric = K.ricci_tensor(g, dg, ddg)
    for N in (1, 7):
        assert (np.abs(K.scalar_curvature(g[:N], dg[:N], ddg[:N]) - R[:N]).max()
                <= 1e-15 * np.abs(R).max())
        assert (np.abs(K.ricci_tensor(g[:N], dg[:N], ddg[:N]) - Ric[:N]).max()
                <= 1e-15 * np.abs(Ric).max())


def test_ricci_kernel_peak_memory():
    # the full (N, n, n, n, n) derivative of the second-kind symbols, which
    # the trace-only contraction never builds, put the peak at 20.8 MiB
    g, dg, ddg = _jet_batch(3, 5, 8192)
    tracemalloc.start()
    try:
        K.ricci_tensor(g, dg, ddg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20.8 * 2 ** 20
