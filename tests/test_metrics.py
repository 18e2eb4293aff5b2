"""Metric evaluator families: radial forms, conformal factors, pullbacks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masskit import metrics, radial
from masskit.curvature import (fd_metric_derivatives, ricci_tensor_fd,
                               scalar_curvature_bartnik)
from masskit.errors import DegenerateMetricError


def test_euclidean_values():
    m = metrics.euclidean(3)
    X = np.array([[2.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert np.abs(m.g(X) - np.eye(3)).max() == 0.0
    assert np.abs(m.dg(X)).max() == 0.0


def test_schwarzschild_values():
    m = metrics.schwarzschild(1.0, 3)
    X = np.array([[2.0, 0.0, 0.0]])
    u = 1.0 + 1.0 / (2.0 * 2.0)
    assert abs(m.g(X)[0, 0, 0] - u ** 4) < 1e-14
    assert abs(m.g(X)[0, 0, 1]) < 1e-15
    m4 = metrics.schwarzschild(2.0, 4)
    X4 = np.array([[2.0, 0.0, 0.0, 0.0]])
    u4 = 1.0 + 2.0 / (2.0 * 4.0)
    assert abs(m4.g(X4)[0, 1, 1] - u4 ** 2) < 1e-14


def test_radial_dg_matches_differences():
    b = radial.gaussian(0.2, 3.0, 1.0)
    a = radial.const(1.0) + radial.power(0.5, -1.0)
    m = metrics.radial_metric(a, b, 3)
    X = np.array([[2.0, 0.5, -1.0], [3.0, 1.0, 0.25], [1.5, -2.0, 2.0]])
    dg_a = m.dg(X)
    m_fd = metrics.from_evaluator(m.g, 3)
    _, dg_f, _ = fd_metric_derivatives(m_fd, X)
    assert np.abs(dg_a - dg_f).max() < 5e-4


def test_check_pointwise_rejects_degenerate():
    def bad(X):
        g = np.broadcast_to(np.eye(3), (X.shape[0], 3, 3)).copy()
        g[:, 0, 0] = -1.0
        return g
    m = metrics.from_evaluator(bad, 3)
    with pytest.raises(DegenerateMetricError):
        m.check_pointwise(np.array([[2.0, 0.0, 0.0]]))


def test_check_pointwise_accepts_schwarzschild():
    m = metrics.schwarzschild(0.5, 3)
    X = 2.0 * np.random.default_rng(0).standard_normal((10, 3))
    r = np.sqrt((X ** 2).sum(axis=1))
    m.check_pointwise(X[r > 1.2])


def test_conformal_product_multiplies_factors():
    u1 = metrics.schwarzschild_factor(1.0, 3)
    base = metrics.conformally_flat(u1, 3)
    u2 = radial.const(1.0) + radial.power(0.25, -1.0)
    prod = metrics.conformal_product(base, u2)
    r = np.array([2.0, 5.0])
    expect = u1.value(r) * u2.value(r)
    assert np.abs(prod.conformal_u.value(r) - expect).max() < 1e-14
    X = np.array([[2.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    assert np.abs(prod.g(X)[:, 1, 1] - expect ** 4).max() < 1e-13


def test_rotation_pullback_scalar_curvature():
    # R(Q* g)(x) = R(g)(Qx) within the FD budget 10 h^2
    v = np.array([0.6, -0.3, 0.74])
    v /= np.linalg.norm(v)

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        s = (X @ v) / r
        f = 0.1 * (1.0 + s ** 2)
        return f[:, None, None] * np.eye(3)[None] / r[:, None, None]

    m = metrics.perturbed(metrics.euclidean(3), h)
    th = 0.7
    Q = np.array([[np.cos(th), -np.sin(th), 0.0],
                  [np.sin(th), np.cos(th), 0.0],
                  [0.0, 0.0, 1.0]])
    X = np.array([[2.0, 0.5, -1.0], [3.0, -1.0, 1.5]])
    R_rot = scalar_curvature_bartnik(metrics.rotate(m, Q), X)
    R_base = scalar_curvature_bartnik(m, X @ Q.T)
    hstep = min(0.01 * np.sqrt((X ** 2).sum(axis=1)).min(), 0.05)
    assert np.abs(R_rot - R_base).max() < 10.0 * hstep ** 2


def test_rotate_matches_einsum_congruence():
    # Q^T g(Qx) Q against the explicit index contraction Q_ai g_ab Q_bj, on
    # a non-radial perturbation whose components do not commute with Q
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    B = rng.standard_normal((3, 3))

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        Y = X @ B
        return 0.05 * Y[:, :, None] * Y[:, None, :] / r[:, None, None] ** 3

    m = metrics.perturbed(metrics.schwarzschild(1.0, 3), h)
    U = rng.standard_normal((200, 3))
    X = rng.uniform(2.0, 10.0, 200)[:, None] * U / np.linalg.norm(U, axis=1,
                                                                  keepdims=True)
    ref = np.einsum('ai,pab,bj->pij', Q, m.g(X @ Q.T), Q)
    assert np.abs(metrics.rotate(m, Q).g(X) - ref).max() <= 1e-14


def test_rotate_matches_einsum_congruence_n4():
    # the Kronecker GEMM against Q_ai g_ab Q_bj in four dimensions, on a
    # tensor bump that no rotation leaves invariant
    rng = np.random.default_rng(22)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    B = rng.standard_normal((4, 4))

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        Y = X @ B
        return 0.05 * Y[:, :, None] * Y[:, None, :] / r[:, None, None] ** 4

    m = metrics.perturbed(metrics.schwarzschild(1.0, 4), h)
    U = rng.standard_normal((200, 4))
    X = rng.uniform(2.0, 10.0, 200)[:, None] * U / np.linalg.norm(U, axis=1,
                                                                  keepdims=True)
    ref = np.einsum('ai,pab,bj->pij', Q, m.g(X @ Q.T), Q)
    assert np.abs(metrics.rotate(m, Q).g(X) - ref).max() <= 1e-14


def _radial_dg_reference(form, n, X):
    """d_k g_ij of a(r) delta + b(r) xhat xhat^T as whole-array products."""
    r = np.sqrt((X ** 2).sum(axis=1))
    (_, a1), (b0, b1) = radial.jets((form.a, form.b), r, 1)
    xh = X / r[:, None]
    eye = np.eye(n)
    dg = a1[:, None, None, None] * xh[:, :, None, None] * eye[None, None]
    xxx = xh[:, :, None, None] * xh[:, None, :, None] * xh[:, None, None, :]
    dg = dg + b1[:, None, None, None] * xxx
    bor = (b0 / r)[:, None, None, None]
    return dg + bor * (eye[None, :, :, None] * xh[:, None, None, :]
                       + eye[None, :, None, :] * xh[:, None, :, None]
                       - 2.0 * xxx)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_dg_matches_whole_array_formula(n):
    a = radial.const(1.0) + radial.power(0.5, 2.0 - n)
    b = radial.gaussian(0.2, 3.0, 1.0)
    U = np.random.default_rng(n).standard_normal((300, n))
    X = np.geomspace(1.5, 40.0, 300)[:, None] * U / np.linalg.norm(
        U, axis=1, keepdims=True)
    for m in (metrics.radial_metric(a, b, n), metrics.schwarzschild(1.0, n)):
        ref = _radial_dg_reference(m.radial_form, n, X)
        assert np.abs(m.dg(X) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_conformal_rescale_scales_values():
    m = metrics.schwarzschild(1.0, 3)
    phi = radial.const(1.0) + radial.power(0.3, -1.0)
    m2 = metrics.conformal_product(m, phi)
    X = np.array([[3.0, 1.0, -0.5]])
    r = np.sqrt((X ** 2).sum())
    assert np.abs(m2.g(X) - phi.value(np.array([r]))[0] ** 4 * m.g(X)).max() < 1e-13


@settings(max_examples=20, derandomize=True, deadline=None)
@given(c=st.floats(0.1, 2.0), a=st.floats(-2.5, -0.5))
def test_profile_product_rule(c, a):
    p = radial.power(c, a) + radial.const(0.7)
    q = radial.gaussian(0.4, 2.0, 1.5)
    prod = p * q
    r = np.array([0.8, 1.7, 3.1])
    y, dy, ddy = prod(r)
    yp, dp, ddp = p(r)
    yq, dq, ddq = q(r)
    assert np.abs(y - yp * yq).max() < 1e-13
    assert np.abs(dy - (dp * yq + yp * dq)).max() < 1e-12
    assert np.abs(ddy - (ddp * yq + 2 * dp * dq + yp * ddq)).max() < 1e-12


def test_profile_powc_chain_rule():
    u = radial.const(1.0) + radial.power(0.5, -1.0)
    w = u.powc(4.0)
    r = np.array([1.5, 2.5, 4.0])
    y, dy, ddy = w(r)
    yu, du, ddu = u(r)
    assert np.abs(y - yu ** 4).max() < 1e-13
    assert np.abs(dy - 4.0 * yu ** 3 * du).max() < 1e-12
    assert np.abs(ddy - (12.0 * yu ** 2 * du ** 2 + 4.0 * yu ** 3 * ddu)).max() < 1e-12


def test_smoothstep_endpoints_and_monotonicity():
    t = radial.transition(2.0, 3.0)
    r = np.array([1.0, 2.0, 2.5, 3.0, 5.0])
    y, dy, _ = t(r)
    assert np.abs(y - [0.0, 0.0, 0.5, 1.0, 1.0]).max() < 1e-14
    assert (dy >= -1e-14).all()
    rr = np.linspace(2.0, 3.0, 101)
    yy = t.value(rr)
    assert (np.diff(yy) >= -1e-14).all()


def test_window_profile_support():
    w = radial.window(1.0, 2.0, 3.0, 4.0)
    r = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    y = w.value(r)
    assert abs(y[0]) < 1e-15 and abs(y[4]) < 1e-15
    assert abs(y[2] - 1.0) < 1e-15
    assert 0.0 < y[1] < 1.0 and 0.0 < y[3] < 1.0


def _shell_points(n, count, seed, r0=1.5, r1=20.0):
    U = np.random.default_rng(seed).standard_normal((count, n))
    return np.geomspace(r0, r1, count)[:, None] * U / np.linalg.norm(
        U, axis=1, keepdims=True)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_radial_jet_matches_stencil_at_second_order(n):
    # exact (dg, ddg) of a delta + b xhat xhat^T against the stencil of the
    # bare evaluator: the gap is the stencil's O(h^2) truncation
    a = radial.const(1.0) + radial.power(0.5, 2.0 - n)
    b = radial.gaussian(0.2, 3.0, 1.0) + radial.power(0.1, 1.0 - n)
    m = metrics.radial_metric(a, b, n)
    X = _shell_points(n, 200, n)
    g, dg, ddg = m.jet(X)
    assert np.abs(g - m.g(X)).max() == 0.0
    assert np.abs(dg - m.dg(X)).max() == 0.0
    bare = metrics.from_evaluator(m.g, n)
    gaps = []
    for h in (4e-3, 2e-3):
        _, dg_f, ddg_f = fd_metric_derivatives(bare, X, h)
        gaps.append((np.abs(dg - dg_f).max(), np.abs(ddg - ddg_f).max()))
    (d1, dd1), (d2, dd2) = gaps
    assert dd1 < 1e-4 and d1 < 1e-4
    assert 3.5 < d1 / d2 < 4.5 and 3.5 < dd1 / dd2 < 4.5


def test_rotated_radial_metric_curvature_equals_unrotated():
    # a radial metric is O(n)-invariant, so its pullback has the same R and
    # Ric at x, and Ric(Q* g)(x) = Q^t Ric(g)(Qx) Q, all to roundoff
    n = 3
    a = radial.const(1.0) + radial.power(0.5, -1.0)
    m = metrics.radial_metric(a, radial.gaussian(0.2, 3.0, 1.0), n)
    Q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
    rot = metrics.rotate(m, Q)
    assert rot.radial_form is None
    X = _shell_points(n, 100, 6)
    R, Ric = scalar_curvature_bartnik(m, X), ricci_tensor_fd(m, X)
    scale = np.abs(Ric).max()
    assert np.abs(scalar_curvature_bartnik(rot, X) - R).max() <= 1e-12 * scale
    Ric_rot = ricci_tensor_fd(rot, X)
    assert np.abs(Ric_rot - Ric).max() <= 1e-12 * scale
    pulled = np.einsum('ai,pab,bj->pij', Q, ricci_tensor_fd(m, X @ Q.T), Q)
    assert np.abs(Ric_rot - pulled).max() <= 1e-12 * scale


def test_perturbed_jet_is_base_jet_plus_stencil_of_h():
    v = np.array([0.6, -0.3, 0.74])

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        return (0.1 * (X @ v) / r ** 3)[:, None, None] * np.eye(3)[None]

    base = metrics.schwarzschild(1.0, 3)
    m = metrics.perturbed(base, h)
    X = _shell_points(3, 50, 7)
    h_spec = metrics.from_evaluator(h, 3)
    for got, b, p in zip(m.jet(X), base.jet(X),
                         fd_metric_derivatives(h_spec, X)):
        assert np.abs(got - (b + p)).max() <= 1e-15 * np.abs(b + p).max()
    dg_ref = base.dg(X) + h_spec.dg(X)
    assert np.abs(m.dg(X) - dg_ref).max() <= 1e-15 * np.abs(dg_ref).max()
