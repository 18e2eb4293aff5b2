"""Capped conformal factor, superharmonic audit, and torus glue."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from masskit import adm, lohkamp, metrics
from masskit.errors import ConfigError, RegimeError
from masskit.lohkamp import (LohkampState, TorusGlueSpec, check_superharmonic,
                             lohkamp_cutoff, lohkamp_metric, lohkamp_zeta,
                             torus_glue)
from masskit.radial import compose, const, flat_laplacian, power
from test_radial import triple


def harmonic_end():
    # u = 1 - 1/(4r): harmonic on flat R^3, end mass -0.5
    return const(1.0) + power(-0.25, -1.0)


@pytest.mark.parametrize("u", [harmonic_end(),
                               harmonic_end() + power(-0.5, -2.0)],
                         ids=["harmonic", "steeper"])
def test_cut_radii_match_brentq(u):
    """Both bisected crossings, bracketed as lohkamp_cutoff brackets them,
    against brentq at the same xtol; each lands on the side u >= level."""
    s1 = 8.0
    state = lohkamp_cutoff(u, s1)
    for level, hi in ((state.t1, 64.0 * s1), (state.t0, state.s2)):
        got = lohkamp._crossing(u, level, s1, hi)
        ref = brentq(lambda r: float(u.value(r)) - level, s1, hi, xtol=1e-12)
        assert abs(got - ref) <= 2e-12
        assert float(u.value(got)) >= level
    assert state.band[0] == lohkamp._crossing(u, state.t0, s1, state.s2)


@functools.lru_cache(maxsize=1)
def cut_state():
    return lohkamp_cutoff(harmonic_end(), 8.0)


@functools.lru_cache(maxsize=1)
def glued():
    return lohkamp_metric(cut_state())


def test_cutoff_recovers_exact_levels():
    state = cut_state()
    assert state.epsilon == 0.03125
    assert state.t0 == 0.9765625
    assert state.t1 == 0.9921875
    assert state.cap == 0.984375
    assert state.s2 == 32.0
    assert state.r_flat == 32.0
    assert state.m_bar == -0.5
    assert abs(state.band[0] - 32.0 / 3.0) <= 1e-9
    assert state.band[1] == state.s2
    assert state.n == 3


def test_capped_profile_plateaus_bitwise():
    state = cut_state()
    u, v = state.u, state.v
    r_lo = np.array([4.0, 6.0, 8.0, 10.0, 10.5])
    assert np.array_equal(v.value(r_lo), u.value(r_lo))
    r_hi = np.array([32.0, 33.0, 48.0, 100.0, 1000.0])
    assert np.all(v.value(r_hi) == state.cap)
    assert np.all(v.d1(r_hi) == 0.0)
    assert np.all(v.d2(r_hi) == 0.0)
    # strictly capped inside the band
    mid = np.array([12.0, 16.0, 24.0])
    assert np.all(v.value(mid) < u.value(mid))
    assert np.all(v.value(mid) > state.t0)


def test_superharmonic_audit_bounds():
    audit = check_superharmonic(cut_state())
    assert audit["passed"]
    assert audit["harmonic_defect"] <= 1e-15
    assert 0.0 <= audit["max_lap"] <= 1e-15
    assert abs(audit["min_band_lap"] - (-1.687558598734477e-4)) <= 1e-12
    lo, hi = audit["band"]
    assert abs(lo - 32.0 / 3.0) <= 1e-9 and hi == 32.0


def test_cap_laplacian_matches_chain_rule():
    state = cut_state()
    grid = np.linspace(4.0, 128.0, 3001)
    uu, du, _ = triple(state.u, grid)
    _, zd1, zd2 = triple(state.zeta, uu)
    lap_u = flat_laplacian(state.u, 3)(grid)
    lap_v = flat_laplacian(state.v, 3)(grid)
    ref = zd2 * du * du + zd1 * lap_u
    assert np.max(np.abs(lap_v - ref)) <= 1e-15


def test_capped_metric_curvature_window():
    metric, audit = glued()
    assert audit["min_R"] >= -1e-15
    assert abs(audit["witness_R"] - 1.494219877868208e-3) <= 1e-12
    assert audit["flat_gap"] == 0.0
    assert audit["constant_factor"] == 0.984375 ** 4
    assert audit["m_bar"] == -0.5
    assert metric.n == 3 and metric.family == "lohkamp"
    X = np.array([[5.0, 1.0, -2.0], [40.0, 0.0, 0.0], [0.0, -30.0, 18.0]])
    metric.check_pointwise(X)
    # exactly Euclidean times the cap factor beyond the flattening radius
    G = metric.g(np.array([[33.0, 0.0, 0.0], [0.0, 48.0, -20.0]]))
    target = (0.984375 ** 4) * np.eye(3)
    assert np.array_equal(G[0], target) and np.array_equal(G[1], target)


def test_end_mass_flux_matches_reported_mass():
    state = cut_state()
    g_in = metrics.conformally_flat(state.u, 3, family="harmonic-end",
                                    r_min=4.0)
    rep = adm.adm_mass(g_in, radii=(8.0, 16.0, 32.0, 64.0))
    assert abs(rep.mass - (-0.5000937544004371)) <= 1e-9
    assert abs(rep.mass - state.m_bar) <= 1e-3


def test_nonnegative_mass_end_is_rejected():
    u_pos = const(1.0) + power(0.25, -1.0)
    with pytest.raises(RegimeError, match="nonnegative mass"):
        lohkamp_cutoff(u_pos, 8.0)


def test_non_harmonic_factor_is_rejected():
    u_bad = harmonic_end() + power(0.005, -2.0)
    state = lohkamp_cutoff(u_bad, 8.0)
    with pytest.raises(ConfigError, match="not harmonic"):
        check_superharmonic(state)


def test_cutoff_input_validation():
    with pytest.raises(ConfigError, match="n >= 3"):
        lohkamp_cutoff(harmonic_end(), 8.0, n=2)
    with pytest.raises(ConfigError, match="positive"):
        lohkamp_cutoff(harmonic_end(), -1.0)
    with pytest.raises(ConfigError, match="eps"):
        lohkamp_zeta(0.0)
    with pytest.raises(ConfigError, match="eps"):
        lohkamp_zeta(1.5)


def test_cutoff_four_dimensional_end():
    u4 = const(1.0) + power(-0.5, -2.0)
    state = lohkamp_cutoff(u4, 8.0, n=4)
    assert state.epsilon == 1.0 / 128.0
    assert state.m_bar == -1.0
    assert state.s2 == 16.0
    audit = check_superharmonic(state)
    assert audit["passed"]
    assert audit["min_band_lap"] < -1e-6


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(min_value=1e-3, max_value=0.5),
       t=st.floats(min_value=0.0, max_value=1.0))
def test_cap_profile_shape(eps, t):
    zeta = lohkamp_zeta(eps)
    y, dy, ddy = (float(a[0]) for a in triple(zeta, np.array([t])))
    cap = 1.0 - 0.5 * eps
    assert y <= t + 1e-15
    assert y <= cap + 1e-15
    assert -1e-15 <= dy <= 1.0 + 1e-15
    assert ddy <= 1e-12
    if t <= 1.0 - 0.75 * eps:
        assert y == t and dy == 1.0 and ddy == 0.0
    if t >= 1.0 - 0.25 * eps:
        assert y == cap and dy == 0.0 and ddy == 0.0


def test_torus_glue_accepts_capped_chart():
    metric, _ = glued()
    spec = TorusGlueSpec(flat_radius=32.0)
    assert spec.side == 512.0 and spec.collar == 32.0
    report = torus_glue(metric, spec)
    assert report["periodicity_gap"] == 0.0
    assert report["derivative_gap"] == 0.0
    assert report["constant_factor"] == 0.984375 ** 4
    assert report["min_R"] >= -1e-15
    assert abs(report["witness_R"] - 1.494200967323248e-3) <= 1e-12
    assert report["positive_witness"]
    assert report["collar_points"] == 88
    assert report["periodicity_pairs"] == 48


def test_torus_glue_flat_chart_is_neutral():
    report = torus_glue(metrics.euclidean(3),
                        TorusGlueSpec(flat_radius=1.0, side=16.0))
    assert report["constant_factor"] == 1.0
    assert report["periodicity_gap"] == 0.0
    assert report["derivative_gap"] == 0.0
    assert report["witness_R"] == 0.0
    assert not report["positive_witness"]


def test_torus_glue_rejects_shrunk_cube():
    metric, _ = glued()
    with pytest.raises(RegimeError, match="collar"):
        torus_glue(metric, TorusGlueSpec(flat_radius=32.0, side=44.0))


def test_torus_glue_requires_conformal_chart():
    flat = metrics.from_evaluator(
        lambda X: np.broadcast_to(np.eye(3), (len(X), 3, 3)).copy(), 3)
    with pytest.raises(ConfigError, match="conformally flat"):
        torus_glue(flat, TorusGlueSpec(flat_radius=1.0))


def test_torus_spec_validation():
    with pytest.raises(ConfigError, match="flat_radius"):
        TorusGlueSpec(flat_radius=0.0)
    with pytest.raises(ConfigError, match="collar"):
        TorusGlueSpec(flat_radius=1.0, side=4.0, collar=3.0)
    # a given zero is a value, not "unset"
    for zero in ({"side": 0.0}, {"collar": 0.0}):
        with pytest.raises(ConfigError, match="must be positive"):
            TorusGlueSpec(flat_radius=1.0, **zero)


def test_state_round_trip_fields():
    state = cut_state()
    assert isinstance(state, LohkampState)
    rebuilt = compose(state.zeta, state.u)
    rr = np.linspace(4.0, 128.0, 513)
    assert np.array_equal(rebuilt.value(rr), state.v.value(rr))


def reference_collar_points(n, half, collar):
    """The collar sample set written out loop by loop: face centers, edge
    midpoints, corners and generic on-face points, then all of them scaled
    to the collar's inner edge."""
    base = []
    for k in range(n):
        for sgn in (-1.0, 1.0):
            x = np.zeros(n)
            x[k] = sgn * half
            base.append(x)
    for i in range(n):
        for j in range(i + 1, n):
            for si in (-1.0, 1.0):
                for sj in (-1.0, 1.0):
                    x = np.zeros(n)
                    x[i] = si * half
                    x[j] = sj * half
                    base.append(x)
    for bits in range(2 ** n):
        base.append(np.array([half if (bits >> k) & 1 else -half
                              for k in range(n)]))
    for k in range(n):
        for sgn in (-1.0, 1.0):
            for a in (-0.45, -0.15, 0.3):
                x = np.full(n, a * 2.0 * half / 3.0)
                x[k] = sgn * half
                base.append(x)
    scale = (half - collar) / half
    return np.array(base + [scale * x for x in base])


def sorted_rows(P):
    return P[np.lexsort(P.T[::-1])]


@pytest.mark.parametrize("n, count",
                         [(3, 88), (4, 144), (5, 224), (6, 344), (7, 536)])
def test_collar_points_match_the_loops(n, count):
    P = lohkamp._collar_points(n, 256.0, 32.0)
    ref = reference_collar_points(n, 256.0, 32.0)
    assert len(P) == len(ref) == count
    assert np.array_equal(sorted_rows(P), sorted_rows(ref))
