"""Pointwise curvature by differencing, checked against closed forms."""
import numpy as np
import pytest

from masskit import _kernels_np, metrics, radial
from masskit.curvature import (decay_audit, fd_metric_derivatives,
                               ricci_tensor_fd, scalar_curvature_bartnik)
from masskit.errors import DegenerateMetricError, DomainError


def round_sphere(n=3):
    phi = radial.bubble(np.sqrt(2.0), 1.0)
    m = metrics.conformally_flat(phi, n, r_min=0.0)
    return m


def test_round_sphere_scalar():
    m = round_sphere()
    X = np.array([[0.3, 0.4, -0.2], [1.0, 1.0, 0.2], [0.05, 0.0, 0.0]])
    R = scalar_curvature_bartnik(m, X, h=1e-3)
    assert np.abs(R - 6.0).max() < 1e-4


def test_fd_truncation_order():
    # halving the step shrinks the error by 4 (+- the usual slack)
    m = round_sphere()
    X = np.array([[0.3, 0.4, -0.2]])
    e1 = abs(scalar_curvature_bartnik(m, X, h=4e-3)[0] - 6.0)
    e2 = abs(scalar_curvature_bartnik(m, X, h=2e-3)[0] - 6.0)
    assert 3.0 < e1 / e2 < 5.0


def test_schwarzschild_scalar_flat():
    X3 = np.array([[2.0, 0.5, -1.0], [3.0, 0.0, 0.0], [1.5, 1.5, 1.5]])
    R3 = scalar_curvature_bartnik(metrics.schwarzschild(1.0, 3), X3)
    assert np.abs(R3).max() < 1e-4
    X4 = np.array([[2.0, 0.5, -1.0, 0.3]])
    R4 = scalar_curvature_bartnik(metrics.schwarzschild(1.0, 4), X4)
    assert np.abs(R4).max() < 1e-4


def test_conformal_flat_dim4_closed_form():
    # phi = sqrt(2)(1+r^2)^{-1/2} in four dimensions: R = 3 (4+r^2)/(1+r^2)
    phi = radial.bubble(np.sqrt(2.0), 1.0)
    m = metrics.conformally_flat(phi, 4, r_min=0.0)
    X = np.array([[0.3, 0.4, -0.2, 0.1], [1.0, 0.0, 0.5, -0.5]])
    r2 = (X ** 2).sum(axis=1)
    expect = 3.0 * (4.0 + r2) / (1.0 + r2)
    R = scalar_curvature_bartnik(m, X, h=1e-3)
    assert np.abs(R - expect).max() < 1e-4


def test_ricci_against_radial_closed_form():
    # conformally flat radial metrics: Ric = alpha delta + beta xhat xhat^T
    u = metrics.schwarzschild_factor(1.0, 3)
    m = metrics.schwarzschild(1.0, 3)
    ab = radial.conformal_ricci_profiles(u, 3)
    X = np.array([[2.0, 0.5, -1.0], [3.0, 0.0, 0.0], [1.5, 1.5, 1.5]])
    r = np.sqrt((X ** 2).sum(axis=1))
    (alpha,), (beta,) = radial.jets(ab, r, 0)
    xh = X / r[:, None]
    expect = (alpha[:, None, None] * np.eye(3)[None]
              + beta[:, None, None] * xh[:, :, None] * xh[:, None, :])
    Ric = ricci_tensor_fd(m, X)
    assert np.abs(Ric - expect).max() < 2e-4
    # scalar-flat but not Ricci-flat: the g-norm stays bounded away from 0
    g = m.g(X)
    gi = np.linalg.inv(g)
    nrm = np.sqrt(np.einsum('pac,pbd,pab,pcd->p', gi, gi, Ric, Ric))
    assert nrm.min() > 0.02
    assert abs(nrm[0] - 0.0623) < 2e-3


def test_trace_consistency():
    m = metrics.schwarzschild(0.5, 3)
    X = np.array([[2.0, 0.5, -1.0], [4.0, 1.0, 2.0]])
    R = scalar_curvature_bartnik(m, X)
    Ric = ricci_tensor_fd(m, X)
    tr = np.einsum('pij,pij->p', np.linalg.inv(m.g(X)), Ric)
    h = np.minimum(0.01 * np.sqrt((X ** 2).sum(axis=1)), 0.05)
    assert np.abs(R - tr).max() < 10.0 * h.min() ** 2


def christoffel_first_kind(metric, X):
    # first-kind Christoffel symbols G1[p,i,j,k] from central differences
    # of order h^2
    g, dg, _ = fd_metric_derivatives(metric, X)
    return _kernels_np.christoffel_first(g, dg)[0]


def test_christoffel_first_kind_shape_and_identity():
    m = metrics.schwarzschild(1.0, 3)
    X = np.array([[2.0, 0.5, -1.0]])
    G1 = christoffel_first_kind(m, X)
    assert G1.shape == (1, 3, 3, 3)
    assert np.abs(G1 - np.einsum('pjik->pijk', G1)).max() < 1e-10


def test_conformal_closed_form_matches_fd():
    phi = radial.bubble(np.sqrt(2.0), 1.0)
    r = np.array([0.5, 1.2])
    R = radial.conformal_scalar(phi, 3)(r)
    assert np.abs(R - 6.0).max() < 1e-12


def test_domain_margin_enforced():
    m = metrics.schwarzschild(1.0, 3)   # chart r_min = 1
    with pytest.raises(DomainError):
        scalar_curvature_bartnik(m, np.array([[1.002, 0.0, 0.0]]))


def test_decay_audit_passes_schwarzschild():
    rep = decay_audit(metrics.schwarzschild(1.0, 3))
    assert rep["pass"]
    assert abs(rep["measured"]["h"]["order"] - (-1.0)) < 0.15
    assert abs(rep["measured"]["dh"]["order"] - (-2.0)) < 0.15


def test_decay_audit_flags_slow_decay():
    m = metrics.schwarzschild(1.0, 3)
    slow = metrics.from_evaluator(m.g, 3, decay_orders=(-2.0, -3.0, -4.0))
    rep = decay_audit(slow)
    assert not rep["pass"]
    names = {v["component"] for v in rep["violations"]}
    assert "h" in names and "dh" in names


def test_decay_audit_flat_vacuous():
    rep = decay_audit(metrics.euclidean(3))
    assert rep["pass"]
    assert rep["measured"]["h"]["order"] is None


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_jet_curvature_matches_radial_scalar(n):
    # at the default step a radial metric's curvature reads its exact jet,
    # so it meets the profile closed form to roundoff
    a = radial.const(1.0) + radial.power(0.5, 2.0 - n)
    b = radial.gaussian(0.2, 3.0, 1.0)
    m = metrics.radial_metric(a, b, n)
    U = np.random.default_rng(n).standard_normal((200, n))
    X = np.geomspace(1.5, 20.0, 200)[:, None] * U / np.linalg.norm(
        U, axis=1, keepdims=True)
    expect = radial.radial_scalar(a, b, n)(np.sqrt((X ** 2).sum(axis=1)))
    R = scalar_curvature_bartnik(m, X)
    assert np.abs(R - expect).max() <= 1e-12 * np.abs(expect).max()
    g = m.g(X)
    tr = np.einsum('pij,pij->p', np.linalg.inv(g), ricci_tensor_fd(m, X))
    assert np.abs(tr - expect).max() <= 1e-12 * np.abs(expect).max()


def test_exact_jet_rejects_non_finite_profile():
    # a profile that is NaN below r = 3 inside the chart r >= 1: the exact
    # jet raises as the stencil does, for curvature, dg and a perturbation
    def nan_inside(at, k):
        c = np.zeros((k + 1,) + at.r.shape)
        c[0] = np.where(at.r < 3.0, np.nan, 1.0)
        return c

    m = metrics.radial_metric(radial.RProfile(nan_inside), None, 3)
    pert = metrics.perturbed(m, lambda X: np.zeros((len(X), 3, 3)))
    inside, outside = np.array([[2.0, 0.0, 0.0]]), np.array([[4.0, 0.0, 0.0]])
    for call in (scalar_curvature_bartnik, ricci_tensor_fd,
                 lambda mm, X: mm.dg(X)):
        for metric in (m, pert):
            with pytest.raises(DegenerateMetricError):
                call(metric, inside)
    assert scalar_curvature_bartnik(pert, outside)[0] == 0.0
    with pytest.raises(DegenerateMetricError):
        fd_metric_derivatives(metrics.from_evaluator(m.g, 3), inside)
