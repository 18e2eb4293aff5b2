"""Orthogonal group actions, quotient-end mass, and fixed points."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masskit import adm, groups, metrics
from masskit.curvature import sample_directions
from masskit.errors import ConfigError, DomainError, RegimeError
from masskit.groups import (GroupAction, ale_lift, fixed_point_of_finite_group,
                            fundamental_domain_mass, invariance_gap)


def antipodal(n=4):
    return GroupAction.from_generators([-np.eye(n)])


def cyclic_four():
    # double rotation by pi/2: eigenvalues +-i, free on S^3
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    R = np.block([[J, np.zeros((2, 2))], [np.zeros((2, 2)), J]])
    return GroupAction.from_generators([R])


def asymmetric_metric():
    # breaks the antipodal map: odd bump in g_11
    def ev(Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        r = np.sqrt((Y ** 2).sum(axis=1))
        out = np.broadcast_to(np.eye(4), (len(Y), 4, 4)).copy()
        out[:, 0, 0] += 0.5 * Y[:, 0] / r ** 3
        return out

    return metrics.from_evaluator(ev, 4, family="asymmetric")


def test_closure_from_generators():
    grp = cyclic_four()
    assert grp.order == 4
    assert grp.n == 4
    powers = [np.linalg.matrix_power(grp.generators[0], k) for k in range(4)]
    for P in powers:
        assert any(np.max(np.abs(P - E)) < 1e-12 for E in grp.elements)
    assert GroupAction.trivial(4).order == 1
    assert antipodal().order == 2


def test_group_construction_validation():
    with pytest.raises(ConfigError, match="orthogonal"):
        GroupAction.from_generators([np.diag([2.0, 1.0, 1.0, 1.0])])
    with pytest.raises(ConfigError, match="not free"):
        GroupAction.from_generators([np.diag([-1.0, -1.0, 1.0])])
    c, s = np.cos(1.0), np.sin(1.0)
    rot = np.eye(4)
    rot[:2, :2] = [[c, -s], [s, c]]
    with pytest.raises(ConfigError, match="did not close"):
        GroupAction.from_generators([rot], cap=64)
    with pytest.raises(ConfigError, match="identity first"):
        GroupAction(elements=(-np.eye(4), np.eye(4)),
                    generators=(-np.eye(4),), n=4)
    with pytest.raises(ConfigError, match="not closed"):
        GroupAction(elements=(np.eye(4), cyclic_four().generators[0]),
                    generators=(), n=4)


def test_fundamental_domain_matches_full_sphere_for_trivial_group():
    g4 = metrics.schwarzschild(1.0, 4)
    fd = fundamental_domain_mass(g4, GroupAction.trivial(4))
    rep = adm.adm_mass(g4, method="quadrature")
    assert fd["nodes_kept"] == fd["nodes_total"] == 8192
    assert np.array_equal(fd["partial_masses"], rep.partial_masses)
    assert abs(fd["mass"] - 1.0) <= 1e-12


def test_fundamental_domain_halves_for_antipodal_group():
    g4 = metrics.schwarzschild(1.0, 4)
    fd = fundamental_domain_mass(g4, antipodal())
    assert fd["nodes_kept"] == 4096 and fd["nodes_total"] == 8192
    rep = adm.adm_mass(g4, method="quadrature")
    # per-rung doubling to roundoff
    assert np.max(np.abs(rep.partial_masses - 2.0 * fd["partial_masses"])) \
        <= 1e-12
    assert abs(fd["mass"] - 0.5) <= 1e-12


@pytest.mark.parametrize("radii", [(0.5, 0.7, 0.9), (1.0, 2.0, 4.0)])
def test_fundamental_domain_refuses_spheres_outside_the_chart(radii):
    # Schwarzschild m=1 has r_min = 1: a rung at or inside it has no flux
    with pytest.raises(DomainError, match="outside chart"):
        fundamental_domain_mass(metrics.schwarzschild(1.0, 3),
                                antipodal(3), radii=np.array(radii))


@pytest.mark.parametrize("radii", [(64.0, 32.0, 16.0, 8.0),
                                   (8.0, 16.0, 16.0, 32.0)])
def test_fundamental_domain_refuses_a_ladder_that_is_not_increasing(radii):
    # adm_mass refuses these ladders, so the quotient-side mass must too
    # instead of extrapolating them
    metric = metrics.schwarzschild(1.0, 3)
    with pytest.raises(ConfigError, match="strictly increasing"):
        adm.adm_mass(metric, radii=radii)
    with pytest.raises(ConfigError, match="strictly increasing"):
        fundamental_domain_mass(metric, antipodal(3), radii=radii)


def test_ale_lift_trivial_group():
    g4 = metrics.schwarzschild(1.0, 4)
    cover, audit = ale_lift(g4, GroupAction.trivial(4))
    assert audit["invariance_gap"] == 0.0
    assert audit["cover_mass"] == 1.0
    assert abs(audit["mass_ratio"] - 1.0) <= 1e-12
    assert audit["ratio_rel_error"] <= 1e-12
    assert cover.family == "schwarzschild-cover"
    assert cover.n == 4


def test_ale_lift_antipodal_group():
    g4 = metrics.schwarzschild(1.0, 4)
    cover, audit = ale_lift(g4, antipodal())
    assert audit["group_order"] == 2
    assert audit["invariance_gap"] == 0.0
    assert abs(audit["quotient_mass"] - 0.5) <= 1e-12
    assert abs(audit["mass_ratio"] - 2.0) <= 1e-12
    assert audit["ratio_rel_error"] <= 1e-3
    assert audit["ale_mass"] == 0.5
    assert (adm.adm_mass(cover).extrapolated / audit["group_order"]
            == audit["ale_mass"])


def test_ale_lift_cyclic_four_group():
    g4 = metrics.schwarzschild(1.0, 4)
    _, audit = ale_lift(g4, cyclic_four())
    assert audit["group_order"] == 4
    assert abs(audit["mass_ratio"] - 4.0) <= 1e-12
    assert audit["nodes_kept"] == 2048


def test_ale_lift_flat_cover_is_neutral():
    _, audit = ale_lift(metrics.euclidean(4), antipodal())
    assert audit["mass_ratio"] is None
    assert audit["quotient_mass"] == 0.0
    assert audit["cover_mass"] == 0.0


def test_ale_lift_rejects_non_invariant_chart():
    bad = asymmetric_metric()
    assert invariance_gap(bad, antipodal()) > 0.1
    with pytest.raises(RegimeError, match="not invariant"):
        ale_lift(bad, antipodal())


def test_invariance_gap_matches_einsum_reference():
    # a tensor bump (x.B)(x.B)^T / r^3 that the double rotation moves, so the
    # gap is O(1) and T^t g(Tx) T mixes every component
    B = np.random.default_rng(4).standard_normal((4, 4))

    def ev(Y):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        r = np.sqrt((Y ** 2).sum(axis=1))
        Z = Y @ B
        return np.eye(4)[None] + 0.2 * (Z[:, :, None] * Z[:, None, :]
                                         / r[:, None, None] ** 3)

    metric = metrics.from_evaluator(ev, 4, family="tensor-bump")
    group = cyclic_four()
    dirs = sample_directions(4, 20, rng=7)
    X = np.concatenate([metric.r_min * s * dirs
                        for s in groups._INVARIANCE_RADII])
    G = metric.g(X)
    ref = max(float(np.abs(np.einsum('ba,qbc,cd->qad', T, metric.g(X @ T.T), T)
                           - G).max())
              for T in group.generators)
    assert ref > 0.1
    assert abs(invariance_gap(metric, group) - ref) <= 1e-13 * ref


def test_ale_lift_dimension_mismatch():
    with pytest.raises(ConfigError, match="dimension"):
        ale_lift(metrics.schwarzschild(1.0, 3), antipodal())


def test_fixed_point_linear_group():
    p = fixed_point_of_finite_group(
        [(np.eye(4), np.zeros(4)), (-np.eye(4), np.zeros(4))])
    assert np.array_equal(p, np.zeros(4))


def test_fixed_point_conjugated_group():
    t = np.array([1.0, 2.0, -0.5, 0.25])
    p = fixed_point_of_finite_group(
        [(np.eye(4), np.zeros(4)), (-np.eye(4), 2.0 * t)])
    assert np.array_equal(p, t)


def test_fixed_point_rejects_translations():
    with pytest.raises(RegimeError, match="no common fixed point"):
        fixed_point_of_finite_group(
            [(np.eye(4), np.zeros(4)),
             (np.eye(4), np.array([1.0, 0.0, 0.0, 0.0]))])


def test_fixed_point_input_validation():
    with pytest.raises(ConfigError, match="orthogonal"):
        fixed_point_of_finite_group([(np.diag([2.0, 1.0]), np.zeros(2))])
    with pytest.raises(ConfigError, match="shape"):
        fixed_point_of_finite_group([(np.eye(3), np.zeros(2))])
    with pytest.raises(ConfigError, match="at least one"):
        fixed_point_of_finite_group([])


@settings(max_examples=40, deadline=None)
@given(t=st.tuples(*(st.floats(min_value=-8.0, max_value=8.0)
                     for _ in range(3))))
def test_fixed_point_recovers_conjugation_center(t):
    t = np.array(t)
    p = fixed_point_of_finite_group(
        [(np.eye(3), np.zeros(3)), (-np.eye(3), 2.0 * t)])
    assert np.array_equal(p, t)


def _flip_zero(x):
    return -x if x == 0.0 else x


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lex_ge_matches_tuple_comparison(data):
    """Rows of B copy a prefix of A's row (with the sign of each zero
    flipped), so ties, shared prefixes and +-0.0 all occur."""
    cols = data.draw(st.integers(1, 6))
    value = st.sampled_from([-1.5, -0.0, 0.0, 2.0]) \
        | st.floats(min_value=-1e300, max_value=1e300)
    row = st.lists(value, min_size=cols, max_size=cols)
    drawn = data.draw(st.lists(st.tuples(row, row, st.integers(0, cols)),
                               min_size=1, max_size=12))
    A = np.array([a for a, _, _ in drawn])
    B = np.array([[_flip_zero(x) for x in a[:k]] + b[k:]
                  for a, b, k in drawn])
    expected = [tuple(a) >= tuple(b) for a, b in zip(A.tolist(), B.tolist())]
    assert groups._lex_ge(A, B).tolist() == expected
