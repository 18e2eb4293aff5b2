"""FULL3D grid operators against an explicit index-contraction reference,
the radial mesh weights against a per-node loop, and the sphere rule
against the moments of the round sphere and its polar Gauss-Jacobi factors
against scipy's."""
import math
from functools import partial, reduce

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_jacobi

from masskit import grids, metrics, radial
from masskit.errors import ConfigError


def grid_points(grid):
    """Cartesian node coordinates, (num_nodes, 3), C-order (r, theta, phi):
    the sigma column of the Jacobian, since d x / d sigma = x."""
    return grid.jacobians()[:, :, 0].copy()


def _diff_ops(grid):
    """Sparse node-based central difference operators per curvilinear axis.

    Row i of an axis operator is (f[ip] - f[im]) / ((ip - im) h) with
    ip, im = i +- 1 wrapped in phi and clamped at the sigma and theta edges:
    0.5/h inside, one-sided (first-order) 1/h on the edge rows.  Returned
    per axis as Kronecker products over the whole grid.
    """
    axes = []
    for N, h, periodic in zip(grid.shape, grid.spacings, (False, False, True)):
        i = np.arange(N)
        ip, im = i + 1, i - 1
        if not periodic:
            ip, im = np.minimum(ip, N - 1), np.maximum(im, 0)
        w = 1.0 / ((ip - im) * h)
        axes.append(sp.csr_matrix((np.r_[w, -w], (np.r_[i, i],
                                                  np.r_[ip % N, im % N])),
                                  shape=(N, N)))
    eye = [sp.identity(N) for N in grid.shape]
    # csr throughout: sp.kron's default BSR blocks store explicit zeros
    # when an axis is short
    return tuple(reduce(partial(sp.kron, format="csr"),
                        eye[:a] + [op] + eye[a + 1:])
                 for a, op in enumerate(axes))


def test_grid_operators_match_einsum_reference():
    # rotated Schwarzschild plus a tensor bump: g_curv = J^T g J has every
    # component nonzero, so the stiffness couples all axis pairs
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    B = rng.standard_normal((3, 3))

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        Y = X @ B
        return 0.05 * Y[:, :, None] * Y[:, None, :] / r[:, None, None] ** 3

    metric = metrics.rotate(metrics.perturbed(metrics.schwarzschild(1.0, 3), h),
                            Q)
    grid = grids.SphericalGrid(r_min=1.0, r_max=6.0, shape=(6, 4, 8))
    vol, K = grids.grid_operators(grid, metric)

    J = grid.jacobians()
    g_curv = np.einsum('pki,pkl,plj->pij', J, metric.g(grid_points(grid)), J)
    vol_ref = np.sqrt(np.linalg.det(g_curv)) * np.prod(grid.spacings)
    ginv = np.linalg.inv(g_curv)
    D = [op.toarray() for op in _diff_ops(grid)]
    K_ref = sum(D[a].T @ np.diag(ginv[:, a, b] * vol_ref) @ D[b]
                for a in range(3) for b in range(3))
    K_ref = 0.5 * (K_ref + K_ref.T)

    assert np.abs(vol - vol_ref).max() <= 1e-13 * np.abs(vol_ref).max()
    assert np.abs(K.toarray() - K_ref).max() <= 1e-13 * np.abs(K_ref).max()


@pytest.mark.parametrize("metric", [metrics.euclidean(3),
                                    metrics.schwarzschild(1.0, 3)],
                         ids=["euclidean", "schwarzschild"])
@pytest.mark.parametrize("shape", [(20, 6, 12), (40, 10, 20)])
def test_grid_operators_are_the_diff_ops_congruence(metric, shape):
    # the benchmark's four grids, against the stacked congruence
    # D^T W D of the Kronecker operators with LAPACK's det and inverse
    grid = grids.SphericalGrid(r_min=1.0, r_max=8.0, shape=shape)
    vol, K = grids.grid_operators(grid, metric)
    assert (K != K.T).nnz == 0

    J = grid.jacobians()
    g_curv = np.einsum('pki,pkl,plj->pij', J, metric.g(grid_points(grid)), J)
    vol_ref = np.sqrt(np.linalg.det(g_curv)) * np.prod(grid.spacings)
    ginv = np.linalg.inv(g_curv)
    D = sp.vstack(_diff_ops(grid), format="csr")
    W = sp.bmat([[sp.diags(ginv[:, a, b] * vol_ref) for b in range(3)]
                 for a in range(3)], format="csr")
    K_ref = D.T @ W @ D
    K_ref = 0.5 * (K_ref + K_ref.T)

    assert np.abs(vol - vol_ref).max() <= 1e-13 * vol_ref.max()
    assert abs(K - K_ref).max() <= 1e-13 * abs(K_ref).max()


def _axis_op_loop(N, h, periodic):
    """One axis of the difference stencil, node by node."""
    D = np.zeros((N, N))
    for i in range(N):
        ip, im, w = i + 1, i - 1, 0.5 / h
        if periodic:
            ip, im = ip % N, im % N
        elif i == 0:
            ip, im, w = 1, 0, 1.0 / h
        elif i == N - 1:
            ip, im, w = N - 1, N - 2, 1.0 / h
        D[i, ip] += w
        D[i, im] -= w
    return D


def test_grid_operators_refuse_a_metric_that_is_not_3d():
    grid = grids.SphericalGrid(r_min=1.0, r_max=8.0, shape=(20, 6, 12))
    with pytest.raises(ConfigError, match="n=3"):
        grids.grid_operators(grid, metrics.schwarzschild(1.0, 4))


def test_diff_ops_stencil_on_linear_and_periodic_functions():
    # the reference K above is built from _diff_ops, so the stencil itself is
    # checked here: central rows and the one-sided edge rows both
    # differentiate a linear function exactly, phi wraps periodically, and
    # the operators equal the node-by-node construction
    grid = grids.SphericalGrid(r_min=1.0, r_max=6.0, shape=(6, 4, 8))
    Ds, Dt, Dp = _diff_ops(grid)
    loops = [_axis_op_loop(N, h, a == 2)
             for a, (N, h) in enumerate(zip(grid.shape, grid.spacings))]
    eye = [np.eye(N) for N in grid.shape]
    for a, op in enumerate((Ds, Dt, Dp)):
        factors = eye[:a] + [loops[a]] + eye[a + 1:]
        assert np.array_equal(op.toarray(), np.kron(np.kron(*factors[:2]),
                                                    factors[2]))
    sg, th, ph = (a.ravel() for a in np.meshgrid(grid.sigma, grid.theta,
                                                 grid.phi, indexing="ij"))
    assert np.all(Ds @ sg == 1.0)
    assert np.all(Dt @ th == 1.0)
    hp = grid.spacings[2]
    assert np.abs(Dp @ np.sin(ph)
                  - np.sin(hp) / hp * np.cos(ph)).max() <= 1e-15
    for op in (Ds, Dt, Dp):
        assert np.all(np.count_nonzero(op.toarray(), axis=1) == 2)
        # no explicit zeros stored, even on the short theta axis
        assert op.nnz == np.count_nonzero(op.toarray())


def test_radial_kappa_w_reads_values_only():
    # the shooting oracle calls radial_kappa_w at every splitting level, so
    # it must not ask the radial form for derivatives nobody reads
    orders = []

    def recorded(p):
        def fn(at, k):
            orders.append(k)
            return at(p, k)
        return radial.RProfile(fn)

    a = radial.const(1.0) + radial.power(0.5, -1.0)
    metric = metrics.radial_metric(recorded(a),
                                   recorded(radial.gaussian(0.1, 2.0, 0.5)), 3)
    r = np.linspace(1.0, 4.0, 7)
    kap, w = grids.radial_kappa_w(metric, r)
    assert orders == [0, 0]
    assert kap.shape == w.shape == r.shape


def test_radial_mesh_weights_match_per_node_loop():
    # a toy-end cylinder and a curved annulus: both weight branches and the
    # side-aware junction node
    metric = metrics.schwarzschild(1.0, 4)
    mesh = grids.radial_mesh(metric, 40.0, 300, cyl_len=2.0, cyl_num=25)
    r_min = metric.r_min
    section = metric.radial_form.a.value(r_min) ** 1.5 * r_min ** 3
    _, w_ann = grids.radial_kappa_w(metric, mesh.r)
    w_sigma = w_ann * mesh.r
    d = np.diff(mesh.coord)
    mid = 0.5 * (mesh.coord[:-1] + mesh.coord[1:])
    ref = np.zeros((mesh.num_nodes, 2))
    for i in range(mesh.num_nodes):
        if i > 0:
            ref[i, 0] = 0.5 * d[i - 1] * (section if mid[i - 1] < 0
                                          else w_sigma[i])
        if i < mesh.num_nodes - 1:
            ref[i, 1] = 0.5 * d[i] * (section if mid[i] < 0 else w_sigma[i])
    assert mesh.is_cyl.sum() == 25
    assert np.array_equal(mesh.wbar, ref.sum(axis=1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sphere_rule_integrates_low_moments(n):
    U, w = grids.sphere_quadrature(n, 8)
    area = grids.sphere_area(n)
    assert U.shape == (2 * 8 ** (n - 1), n)
    assert np.abs((U ** 2).sum(axis=1) - 1.0).max() <= 1e-15
    assert abs(w.sum() - area) <= 1e-13 * area
    assert abs(w @ U[:, 0] ** 2 - area / n) <= 1e-13 * area
    assert abs(w @ U[:, 0] ** 4 - 3.0 * area / (n * (n + 2))) <= 1e-13 * area
    assert abs(w @ (U[:, 0] * U[:, 1])) <= 1e-13 * area


def _legendre_sphere_rule(order):
    """The n = 3 product rule as a per-latitude loop: Gauss-Legendre in
    cos(theta), trapezoid in the longitude."""
    nphi = 2 * order
    phi = np.arange(nphi) * 2.0 * np.pi / nphi
    wphi = np.full(nphi, 2.0 * np.pi / nphi)
    x, wx = np.polynomial.legendre.leggauss(order)
    st = np.sqrt(1.0 - x ** 2)
    U = np.empty((order * nphi, 3))
    W = np.empty(order * nphi)
    k = 0
    for i in range(order):
        U[k:k + nphi, 0] = st[i] * np.cos(phi)
        U[k:k + nphi, 1] = st[i] * np.sin(phi)
        U[k:k + nphi, 2] = x[i]
        W[k:k + nphi] = wx[i] * wphi
        k += nphi
    return U, W


@pytest.mark.parametrize("order", [8, 16, 64])
def test_sphere_rule_matches_legendre_rule_at_n3(order):
    U, w = grids.sphere_quadrature(3, order)
    U_ref, w_ref = _legendre_sphere_rule(order)
    # the Jacobi and Legendre roots agree to an ulp; sqrt(1 - t^2) scales
    # that by t / sqrt(1 - t^2), which reaches 27 next to the poles at
    # order 64, so the full nodes are compared at the lower orders
    assert np.abs(U[:, 2] - U_ref[:, 2]).max() <= 1e-15
    if order <= 16:
        assert np.abs(U - U_ref).max() <= 1e-15
    assert np.abs(w - w_ref).max() <= 1e-13 * w_ref.max()


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("order", [8, 16, 64, 128])
def test_gauss_jacobi_rule_matches_scipy(order, k):
    # weight (1 - t^2)^a, a = k/2: the polar factors of S^2 .. S^7
    a = 0.5 * k
    t, w = grids._gauss_jacobi(order, k)
    t_ref, w_ref = roots_jacobi(order, a, a)
    assert np.abs(t - t_ref).max() <= 4.4e-16
    w_tol = 1e-13 if order <= 64 else 5e-12
    assert np.abs(w - w_ref).max() <= w_tol * w_ref.max()
    # the highest moment the rule integrates exactly: B(order - 1/2, a + 1)
    top = (math.gamma(order - 0.5) * math.gamma(a + 1.0)
           / math.gamma(order + a + 0.5))
    assert abs(w @ t ** (2 * order - 2) - top) <= 1e-13 * top


def test_sphere_area_closed_forms():
    pi = np.pi
    areas = (2 * pi, 4 * pi, 2 * pi ** 2, 8 * pi ** 2 / 3, pi ** 3,
             16 * pi ** 3 / 15, pi ** 4 / 3)
    for n, area in zip(range(2, 9), areas):
        assert abs(grids.sphere_area(n) - area) <= 2 * np.spacing(area), n


def test_sphere_rule_order_floor_and_size_guard():
    with pytest.raises(ConfigError, match="below the minimum 8"):
        grids.sphere_quadrature(3, grids.MIN_QUADRATURE_ORDER - 1)
    # n = 4 at order 64 fills the flux array exactly to the limit
    assert 2 * 64 ** 3 * 4 ** 3 == grids.FLUX_ENTRY_LIMIT
    for n, order, count in ((6, 16, 2097152), (7, 8, 524288)):
        with pytest.raises(ConfigError) as err:
            grids.sphere_quadrature(n, order)
        msg = str(err.value)
        assert "n=%d, order %d has %d nodes" % (n, order, count) in msg
        assert "limit of 33554432 entries" in msg
