"""FULL3D grid operators against an explicit index-contraction reference."""
import numpy as np

from masskit import grids, metrics, radial


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
    g_curv = np.einsum('pki,pkl,plj->pij', J, metric.g(grid.points()), J)
    vol_ref = np.sqrt(np.linalg.det(g_curv)) * np.prod(grid.spacings)
    ginv = np.linalg.inv(g_curv)
    D = [op.toarray() for op in grids._diff_ops(grid)]
    K_ref = sum(D[a].T @ np.diag(ginv[:, a, b] * vol_ref) @ D[b]
                for a in range(3) for b in range(3))
    K_ref = 0.5 * (K_ref + K_ref.T)

    assert np.abs(vol - vol_ref).max() <= 1e-13 * np.abs(vol_ref).max()
    assert np.abs(K.toarray() - K_ref).max() <= 1e-13 * np.abs(K_ref).max()


def test_radial_kappa_w_reads_values_only():
    # the shooting oracle calls radial_kappa_w at every right-hand side, so
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
