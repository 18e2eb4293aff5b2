"""CLI helpers and scenes: the mass ladder fanned out over the CLI's worker
pool against the serial one, byte-identical outputs across repeats and
thread counts, the run ledger's audits and manifest, and the help text of
the command table."""
import json
import types

import numpy as np
import pytest
from click.testing import CliRunner

from masskit import adm, cli, density, lohkamp, metrics
from masskit.errors import InternalFault


def quadrupole_chart(c=0.05):
    """Schwarzschild m=1 plus the traceless l=2 term c (x.Ax) / r^3 delta."""
    A = np.diag([1.0, -0.4, -0.6])

    def h(X):
        r = np.sqrt((X ** 2).sum(axis=1))
        s = c * np.einsum("pi,ij,pj->p", X, A, X) / r ** 3
        return s[:, None, None] * np.eye(3)[None]

    return metrics.perturbed(metrics.schwarzschild(1.0, 3), h)


def test_mass_report_matches_adm_mass_serial_and_threaded(tmp_path):
    chart = quadrupole_chart()
    assert chart.radial_form is None
    radii = np.array([8.0, 16.0, 32.0, 64.0])
    ref = adm.adm_mass(chart, radii, order=16)
    cfg = types.SimpleNamespace(sha256="0" * 64)
    for threads in (1, 2):
        run = cli.Run("mass", cfg, str(tmp_path / str(threads)), 0, threads)
        rep = adm.adm_mass(chart, radii, order=16, map_fn=run.map_ladder)
        assert rep.method == "quadrature" == ref.method
        assert np.array_equal(rep.partial_masses, ref.partial_masses)
        assert rep.extrapolated == ref.extrapolated


# the converge scene of the benchmark's cli-scenes workload at m = 1: FD
# scalar curvature through the contraction kernels at three steps, then a
# mass ladder
CONVERGE_SCENE = {
    "schema": 1,
    "metric": {"family": "schwarzschild", "dimension": 3, "mass": 1.0},
    "converge": {"operations": [
        {"kind": "scalar_flatness", "h_values": [0.08, 0.04, 0.02]},
        {"kind": "mass_ladder", "radii": [8, 16, 32, 64]}]},
}


def _scene_outputs(tmp_path, command, scene, tag, threads):
    """Run one scene through the CLI; the bytes of each non-manifest file."""
    config = tmp_path / ("%s.json" % command)
    config.write_text(json.dumps(scene))
    out = tmp_path / tag
    result = CliRunner().invoke(cli.main, [
        command, "--config", str(config), "--out", str(out),
        "--threads", str(threads), "--seed", "0"])
    assert result.exit_code == 0, result.output
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "run_manifest.json"}


def test_converge_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    first = _scene_outputs(tmp_path, "converge", CONVERGE_SCENE, "a", 1)
    assert "converge_report.json" in first and len(first) >= 3
    assert _scene_outputs(tmp_path, "converge", CONVERGE_SCENE, "b", 1) == first
    assert _scene_outputs(tmp_path, "converge", CONVERGE_SCENE, "c", 2) == first


# the solve-gaussian scene of the benchmark's cli-scenes workload with fixed
# parameters: the exhaustion solve, its audits and the shooting oracle, whose
# A is written to solve_report.json
SOLVE_SCENE = {
    "schema": 1,
    "metric": {"family": "euclidean", "dimension": 3},
    "solve": {"potential": [{"kind": "gaussian", "amplitude": 0.04,
                             "center": 4.0, "width": 0.5}],
              "support_radius": 8,
              "domain": {"truncation_radii": [16, 32, 64]},
              "oracle": {"enabled": True}},
}


def test_solve_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    first = _scene_outputs(tmp_path, "solve", SOLVE_SCENE, "a", 1)
    assert "oracle_A" in json.loads(first["solve_report.json"])
    assert _scene_outputs(tmp_path, "solve", SOLVE_SCENE, "b", 1) == first
    assert _scene_outputs(tmp_path, "solve", SOLVE_SCENE, "c", 2) == first


def test_solve_at_dimension_seven_estimates_its_own_sobolev_constant(
        tmp_path):
    # c_S omitted: the smallness gate runs on the domain's Sobolev estimate
    scene = json.loads(json.dumps(SOLVE_SCENE))
    scene["metric"]["dimension"] = 7
    first = _scene_outputs(tmp_path, "solve", scene, "a", 1)
    report = json.loads(first["solve_report.json"])
    assert report["smallness"]["c_S"] == pytest.approx(23.6743416005,
                                                       rel=1e-9)
    assert "oracle_A" in report
    assert _scene_outputs(tmp_path, "solve", scene, "b", 2) == first


# the solve-roadmap-euclidean scene of the benchmark's cli-scenes workload,
# verbatim: no toy end, so node 0 sits at r_min where the potential is not
# zero, and the cut flux must not count node 0's half-cell source
ROADMAP_SOLVE_EUCLIDEAN = {
    "schema": 1,
    "metric": {"family": "euclidean", "dimension": 3},
    "solve": {"potential": [{"kind": "gaussian", "amplitude": 0.05,
                             "center": 3, "width": 1}],
              "support_radius": 8,
              "domain": {"truncation_radii": [16, 32, 64]},
              "oracle": {"enabled": True}}}


def test_solve_without_toy_end_passes_both_flux_audits(tmp_path):
    result, manifest = _invoke_scene(tmp_path, "solve",
                                     ROADMAP_SOLVE_EUCLIDEAN)
    assert result.exit_code == 0, result.output
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status["outer-flux-vanishes"] == "PASS"
    assert status["energy-flux-vanishes"] == "PASS"


# a flat end cut at r_min = 2: the solver's mesh and the shooting oracle
# both start at the metric's cut (a domain that restated the cut at 1 put
# the solve 3.9e-2 away from the oracle)
INNER_CUT_SOLVE = {
    "schema": 1,
    "metric": {"family": "conformally_flat", "dimension": 3,
               "profile": [{"kind": "const", "value": 1.0}], "r_min": 2},
    "solve": {"potential": [{"kind": "gaussian", "amplitude": 0.05,
                             "center": 2.5, "width": 0.5}],
              "support_radius": 8, "c_S": 3,
              "domain": {"truncation_radii": [16, 32, 64]},
              "oracle": {"enabled": True}}}
# the Euclidean roadmap scene with the toy end: a cylinder schedule
TOY_END_SOLVE = json.loads(json.dumps(ROADMAP_SOLVE_EUCLIDEAN))
TOY_END_SOLVE["solve"]["domain"]["cylinder_lengths"] = [2, 4, 8]


@pytest.mark.parametrize("scene, rtol", [(INNER_CUT_SOLVE, 1e-5),
                                         (TOY_END_SOLVE, 1e-6)],
                         ids=["inner-cut", "toy-end"])
def test_solve_matches_the_oracle_from_the_metric_cut(tmp_path, scene, rtol):
    result, manifest = _invoke_scene(tmp_path, "solve", scene)
    assert result.exit_code == 0, result.output
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status["matches-shooting-oracle"] == "PASS"
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    assert abs(report["A_integral"] - report["oracle_A"]) \
        <= rtol * abs(report["oracle_A"])


# a conformally flat end whose factor carries a Gaussian term beyond the
# potential's support: the oracle's tail of 1/kappa must resolve it (a
# 16-point Gauss-Legendre rule in r_f/r moves oracle_A by 2.1e-4 relative,
# twice the audit's bound)
FAR_GAUSSIAN_SOLVE = {
    "schema": 1,
    "metric": {"family": "conformally_flat", "dimension": 3,
               "profile": [{"kind": "const", "value": 1.0},
                           {"kind": "power", "coefficient": 0.5,
                            "exponent": -1},
                           {"kind": "gaussian", "amplitude": 0.05,
                            "center": 20, "width": 2}]},
    "solve": {"potential": [{"kind": "gaussian", "amplitude": 0.04,
                             "center": 4.0, "width": 0.5}],
              "support_radius": 8,
              "domain": {"truncation_radii": [16, 32, 64, 128, 256]},
              "oracle": {"enabled": True}}}


def test_solve_with_a_far_field_metric_term_matches_the_oracle(tmp_path):
    result, manifest = _invoke_scene(tmp_path, "solve", FAR_GAUSSIAN_SOLVE)
    assert result.exit_code == 0, result.output
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status["matches-shooting-oracle"] == "PASS"
    report = json.loads((tmp_path / "out" / "solve_report.json").read_text())
    # QUADPACK's adaptive tail with no absolute tolerance gives the same A
    assert report["oracle_A"] == pytest.approx(-0.9284670361946455,
                                               rel=1e-12)


# the mass-schwarzschild scene of the benchmark's cli-scenes workload at
# m = 1: the closed-form ladder fanned out over the worker pool
MASS_SCENE = {
    "schema": 1,
    "metric": {"family": "schwarzschild", "dimension": 3, "mass": 1.0},
    "mass": {"radii": [8, 16, 32, 64], "expected": 1.0},
}


def test_mass_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    first = _scene_outputs(tmp_path, "mass", MASS_SCENE, "a", 1)
    assert set(first) == {"mass_report.json", "mass_ladder.csv"}
    assert _scene_outputs(tmp_path, "mass", MASS_SCENE, "b", 1) == first
    assert _scene_outputs(tmp_path, "mass", MASS_SCENE, "c", 2) == first


# the deform-toy scene of the benchmark's cli-scenes workload with a fixed
# remainder: the deformation ladder, its tau blend and the independent mass
# check
DEFORM_SCENE = {
    "schema": 1,
    "metric": {"family": "conformally_flat", "dimension": 3,
               "profile": [{"kind": "schwarzschild", "mass": 1.0},
                           {"kind": "power", "coefficient": -0.1,
                            "exponent": -2.0}]},
    "deform": {"eps_target": 0.01, "c_S": 3.0, "mass": 1.0},
}


def test_deform_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    first = _scene_outputs(tmp_path, "deform", DEFORM_SCENE, "a", 1)
    assert set(first) == {"deform_report.json", "deform_trend.csv"}
    assert _scene_outputs(tmp_path, "deform", DEFORM_SCENE, "b", 1) == first
    assert _scene_outputs(tmp_path, "deform", DEFORM_SCENE, "c", 2) == first


def test_deform_size_bound_failure_exits_as_regime_failure(tmp_path):
    scene = json.loads(json.dumps(DEFORM_SCENE))
    scene["deform"]["c_S"] = 0.1
    config = tmp_path / "deform.json"
    config.write_text(json.dumps(scene))
    result = CliRunner().invoke(cli.main, [
        "deform", "--config", str(config), "--out", str(tmp_path / "out"),
        "--threads", "1", "--seed", "0"])
    assert result.exit_code == 2, result.output
    assert "regime failure" in result.output
    assert "satisfies the size bound" in result.output


def test_deform_ladder_that_is_not_increasing_exits_before_any_rung(
        tmp_path, monkeypatch):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran")

    monkeypatch.setattr(density, "deform_rung", no_rung)
    scene = json.loads(json.dumps(DEFORM_SCENE))
    scene["deform"]["s_ladder"] = [32, 16, 8]
    result, manifest = _invoke_scene(tmp_path, "deform", scene)
    assert result.exit_code == 1, result.output
    assert "s_ladder must be strictly increasing" in result.output
    assert manifest["status"] == "config-error"


def test_deform_delta_accepted_at_its_ceiling_passes_the_ceiling_audit(
        tmp_path):
    # at s = 9.147 delta = delta0 with no bisection, and delta0 (1 + volume)
    # rounds one ulp above 1/s: only the margin delta0 - delta reads 0
    scene = json.loads(json.dumps(DEFORM_SCENE))
    scene["deform"]["s_ladder"] = [9.147, 18.294, 36.588]
    result, manifest = _invoke_scene(tmp_path, "deform", scene)
    assert result.exit_code == 0, result.output
    ceiling = [rec for rec in manifest["outcomes"]
               if rec["audit"] == "scale-ceiling"]
    assert ceiling[0]["status"] == "PASS" and ceiling[0]["lhs"] == 0.0


# the compactify-harmonic scene of the benchmark's cli-scenes workload at
# c = -0.25: the Lohkamp cap composed onto a harmonic factor with negative
# mass, its curvature audits and the torus glue
COMPACTIFY_SCENE = {
    "schema": 1,
    "metric": {"family": "conformally_flat", "dimension": 3,
               "profile": [{"kind": "const", "value": 1.0},
                           {"kind": "power", "coefficient": -0.25,
                            "exponent": -1.0}]},
    "compactify": {"s1": 8.0},
}


def test_compactify_outputs_byte_identical_across_repeats_and_threads(
        tmp_path):
    first = _scene_outputs(tmp_path, "compactify", COMPACTIFY_SCENE, "a", 1)
    assert json.loads(first["compactify_report.json"])["cut"]["m_bar"] == -0.5
    assert _scene_outputs(tmp_path, "compactify", COMPACTIFY_SCENE, "b",
                          1) == first
    assert _scene_outputs(tmp_path, "compactify", COMPACTIFY_SCENE, "c",
                          2) == first


# the report field each compactify audit reads as its left-hand side
COMPACTIFY_AUDIT_FIELDS = {
    "cap-never-subharmonic": ("superharmonic", "max_lap"),
    "cap-superharmonic-in-band": ("superharmonic", "min_band_lap"),
    "curvature-floor": ("capped_metric", "min_R"),
    "curvature-witness": ("capped_metric", "witness_R"),
    "flat-outside-cap": ("capped_metric", "flat_gap"),
    "torus-collar-constant": ("torus", "collar_gap"),
    "torus-faces-periodic": ("torus", "periodicity_gap"),
    "torus-derivative-match": ("torus", "derivative_gap"),
    "torus-curvature-floor": ("torus", "min_R"),
    "torus-curvature-witness": ("torus", "witness_R"),
}


def test_compactify_audits_read_their_report_fields(tmp_path, monkeypatch):
    # the glue's three gaps are 0 on every chart it accepts, so they are
    # replaced by distinct values: an audit that reads the wrong gap shows
    glue = lohkamp.torus_glue

    def marked_glue(metric, spec):
        report = glue(metric, spec)
        assert report["collar_gap"] == report["periodicity_gap"] == 0.0
        report.update(collar_gap=1.0, periodicity_gap=2.0, derivative_gap=3.0)
        return report

    monkeypatch.setattr(lohkamp, "torus_glue", marked_glue)
    config = tmp_path / "compactify.json"
    config.write_text(json.dumps(COMPACTIFY_SCENE))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "compactify", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 2, result.output
    report = json.loads((out / "compactify_report.json").read_text())
    outcomes = json.loads((out / "run_manifest.json").read_text())["outcomes"]
    assert [rec["audit"] for rec in outcomes] == list(COMPACTIFY_AUDIT_FIELDS)
    for rec in outcomes:
        section, field = COMPACTIFY_AUDIT_FIELDS[rec["audit"]]
        assert rec["lhs"] == report[section][field], rec["audit"]


def test_mass_scene_on_a_close_ladder_exits_zero(tmp_path):
    # an arithmetic ladder extrapolates from its own spacing to the mass
    scene = {"schema": 1,
             "metric": {"family": "schwarzschild", "dimension": 3,
                        "mass": 1.0},
             "mass": {"radii": [20, 22, 24, 26]}}
    out = _scene_outputs(tmp_path, "mass", scene, "a", 1)
    rep = json.loads(out["mass_report.json"])
    assert rep["method"] == "closed_form"
    assert abs(rep["extrapolated"] - 1.0) < 0.01
    assert not rep["low_confidence"]


@pytest.mark.parametrize("method", [None, "auto", "closed_form",
                                    "quadrature"])
def test_mass_quadrature_order_needs_the_quadrature_method(tmp_path, method):
    scene = {"schema": 1,
             "metric": {"family": "schwarzschild", "dimension": 3,
                        "mass": 1.0},
             "mass": {"radii": [8, 16, 32, 64], "quadrature_order": 32}}
    if method is not None:
        scene["mass"]["method"] = method
    result, manifest = _invoke_scene(tmp_path, "mass", scene)
    if method == "quadrature":
        assert result.exit_code == 0, result.output
        rep = json.loads((tmp_path / "out" / "mass_report.json").read_text())
        assert (rep["method"], rep["quadrature_order"]) == ("quadrature", 32)
        return
    assert result.exit_code == 1, result.output
    assert "config error: mass.quadrature_order is not read" in result.output
    assert manifest["status"] == "config-error"


def test_threads_below_one_is_a_usage_error_before_the_scene(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "mass", "--config", str(tmp_path / "absent.json"), "--out", str(out),
        "--threads", "0"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--threads'" in result.output
    assert "config error" not in result.output
    assert not out.exists()


def test_mass_scene_on_a_ladder_that_is_not_increasing_exits_as_config_error(
        tmp_path):
    scene = {"schema": 1,
             "metric": {"family": "schwarzschild", "dimension": 3,
                        "mass": 1.0},
             "mass": {"radii": [8, 32, 16]}}
    result, manifest = _invoke_scene(tmp_path, "mass", scene)
    assert result.exit_code == 1, result.output
    assert "mass ladder must be strictly increasing" in result.output
    assert manifest["status"] == "config-error"


# the ale-antipodal scene of the benchmark's cli-scenes workload at m = 1:
# the quotient lift under -I and its cover/quotient mass ratio
ALE_SCENE = {
    "schema": 1,
    "metric": {"family": "schwarzschild", "dimension": 3, "mass": 1.0},
    "ale": {"generators": [[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                            [0.0, 0.0, -1.0]]]},
}


def test_ale_outputs_byte_identical_across_repeats_and_threads(tmp_path):
    first = _scene_outputs(tmp_path, "ale", ALE_SCENE, "a", 1)
    rep = json.loads(first["ale_report.json"])
    assert abs(rep["mass_ratio"] / rep["group_order"] - 1.0) <= 1e-3
    assert _scene_outputs(tmp_path, "ale", ALE_SCENE, "b", 1) == first
    assert _scene_outputs(tmp_path, "ale", ALE_SCENE, "c", 2) == first


# the same scene at n = 5: the fundamental domain keeps 65,536 of the
# 131,072 nodes of the order-16 sphere rule
ALE_SCENE_5D = {
    "schema": 1,
    "metric": {"family": "schwarzschild", "dimension": 5, "mass": 1.0},
    "ale": {"generators": [(-np.eye(5)).tolist()]},
}


def test_ale_runs_at_dimension_five(tmp_path):
    first = _scene_outputs(tmp_path, "ale", ALE_SCENE_5D, "a", 1)
    rep = json.loads(first["ale_report.json"])
    assert rep["nodes_total"] == 131072 and rep["nodes_kept"] == 65536
    assert rep["ratio_rel_error"] <= 1e-12
    assert _scene_outputs(tmp_path, "ale", ALE_SCENE_5D, "b", 2) == first


@pytest.mark.parametrize("mass", [1.5e-10, 5e-11])
def test_ale_vanishing_masses_audit_the_quotient_share_of_the_cover(
        tmp_path, mass):
    # under -I the cover mass is twice the quotient's, so at m = 1.5e-10
    # only max(|quotient|, |cover| / |G|) stays within VANISHING_MASS
    scene = json.loads(json.dumps(ALE_SCENE))
    scene["metric"]["mass"] = mass
    result, manifest = _invoke_scene(tmp_path, "ale", scene)
    assert result.exit_code == 0, result.output
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status["masses-both-vanish"] == "PASS"


def test_ale_fixed_point_of_the_antipodal_pair(tmp_path):
    scene = json.loads(json.dumps(ALE_SCENE))
    scene["ale"]["fixed_point"] = {"elements": [
        {"matrix": np.eye(3).tolist()},
        {"matrix": (-np.eye(3)).tolist(), "offset": [2.0, -4.0, 6.0]}]}
    out = _scene_outputs(tmp_path, "ale", scene, "a", 1)
    assert json.loads(out["ale_report.json"])["fixed_point"] == [1, -2, 3]
    manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status["common-fixed-point"] == "PASS"


def test_ale_fixed_point_of_a_translation_exits_as_regime_failure(tmp_path):
    scene = json.loads(json.dumps(ALE_SCENE))
    scene["ale"]["fixed_point"] = {"elements": [
        {"matrix": np.eye(3).tolist(), "offset": [1.0, 0.0, 0.0]}]}
    result, manifest = _invoke_scene(tmp_path, "ale", scene)
    assert result.exit_code == 2, result.output
    assert "no common fixed point" in result.output
    assert manifest["status"] == "fail"


RAGGED = [[-1.0, 0.0, 0.0], [0.0, -1.0], [0.0, 0.0, -1.0]]


@pytest.mark.parametrize("block, path", [
    ({"generators": [RAGGED]}, "ale.generators[0]"),
    ({"generators": ALE_SCENE["ale"]["generators"],
      "fixed_point": {"elements": [{"matrix": RAGGED}]}},
     "ale.fixed_point.elements[0].matrix")], ids=["generator", "fixed-point"])
def test_ale_ragged_matrix_exits_as_configuration_error(tmp_path, block, path):
    scene = dict(ALE_SCENE, ale=block)
    result, manifest = _invoke_scene(tmp_path, "ale", scene)
    assert result.exit_code == 1, result.output
    assert "config error: %s must be a 3x3 matrix" % path in result.output
    assert manifest["status"] == "config-error"


def test_ale_at_dimension_seven_exits_as_configuration_error(tmp_path):
    scene = {"schema": 1,
             "metric": {"family": "schwarzschild", "dimension": 7,
                        "mass": 1.0},
             "ale": {"generators": [(-np.eye(7)).tolist()]}}
    config = tmp_path / "ale.json"
    config.write_text(json.dumps(scene))
    result = CliRunner().invoke(cli.main, [
        "ale", "--config", str(config), "--out", str(tmp_path / "out"),
        "--threads", "1", "--seed", "0"])
    assert result.exit_code == 1, result.output
    assert "33554432 nodes" in result.output


def test_converge_on_exactly_flat_metric_writes_empty_orders(tmp_path):
    # every FD error of the flat metric is exactly 0, so no order exists
    scene = {"schema": 1,
             "metric": {"family": "euclidean", "dimension": 3},
             "converge": {"operations": [
                 {"kind": "scalar_flatness",
                  "h_values": [0.08, 0.04, 0.02]}]}}
    config = tmp_path / "converge.json"
    config.write_text(json.dumps(scene))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "converge", "--config", str(config), "--out", str(out),
        "--threads", "1", "--seed", "0"])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    rows = (out / "converge_op0_scalar.csv").read_text().splitlines()
    assert rows[0] == "h,max_abs_R,observed_order"
    assert [row.split(",")[1:] for row in rows[1:]] == [["0", ""]] * 3
    report = json.loads((out / "converge_report.json").read_text())
    assert report["operations"][0]["observed_orders"] == [None, None]


# the scene's largest FD error, at h = 0.02, is 9.46e-8
@pytest.mark.parametrize("ceiling, code, status",
                         [(1e-6, 0, "PASS"), (1e-8, 2, "FAIL")])
def test_converge_scalar_ceiling_audit(tmp_path, ceiling, code, status):
    scene = json.loads(json.dumps(CONVERGE_SCENE))
    scene["converge"]["operations"][0]["ceiling"] = ceiling
    result, manifest = _invoke_scene(tmp_path, "converge", scene)
    assert result.exit_code == code, result.output
    outcome = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert outcome["scalar-ceiling#0"] == status


@pytest.mark.parametrize("op, message", [
    ({"kind": "scalar_flatness", "h_values": [0.02, 0.04]},
     "operations[1].h_values must be strictly decreasing"),
    ({"kind": "scalar_flatness"},
     "operations[1] of kind scalar_flatness needs h_values"),
    ({"kind": "mass_ladder", "radii": [8, 16]},
     "operations[1] of kind mass_ladder needs at least 3 radii"),
    ({"kind": "mass_ladder", "radii": [8, 32, 16]},
     "operations[1].radii must be strictly increasing"),
])
def test_converge_config_errors_name_their_operation(tmp_path, op, message):
    scene = json.loads(json.dumps(CONVERGE_SCENE))
    scene["converge"]["operations"] = [
        {"kind": "mass_ladder", "radii": [8, 16, 32, 64]}, op]
    result, manifest = _invoke_scene(tmp_path, "converge", scene)
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert manifest["status"] == "config-error"


COMMANDS = (
    ("mass", "ADM mass ladder with extrapolation for the configured metric."),
    ("solve", "Conformal-factor solve with flux audits and an iteration log."),
    ("deform", "Scalar-curvature deformation ladder with the per-scale trend."),
    ("compactify", "Cap a negative-mass end flat and glue it into a cubical "
                   "torus."),
    ("ale", "Lift a quotient end to its cover and audit the mass ratio."),
    ("converge", "Refinement studies: step-halving and radius-ladder order "
                 "tables."),
)


def test_help_lists_commands_and_their_options():
    listing = CliRunner().invoke(cli.main, ["--help"])
    assert listing.exit_code == 0, listing.output
    # click lists commands by name and cuts a long summary short with "..."
    listed = dict(line.split(None, 1) for line in
                  listing.output.split("Commands:\n")[1].splitlines())
    assert list(listed) == sorted(name for name, _ in COMMANDS)
    for name, summary in COMMANDS:
        assert summary.startswith(listed[name].rstrip("."))
    for name, summary in COMMANDS:
        result = CliRunner().invoke(cli.main, [name, "--help"])
        assert result.exit_code == 0, result.output
        assert summary in result.output
        flags = [line.split()[0] for line in result.output.splitlines()
                 if line.startswith("  --")]
        assert flags == ["--config", "--out", "--threads", "--seed", "--help"]


def _bare_run(tmp_path):
    cfg = types.SimpleNamespace(sha256="0" * 64)
    return cli.Run("mass", cfg, str(tmp_path / "out"), 0, 1)


def test_run_audit_rejects_unknown_comparison_and_repeated_name(tmp_path):
    run = _bare_run(tmp_path)
    with pytest.raises(InternalFault, match="comparison"):
        run.audit("a", "==", 1.0, 1.0)
    assert run.audit("a", "<=", 1.0, 2.0)
    with pytest.raises(InternalFault, match="twice"):
        run.audit("a", "<=", 1.0, 2.0)


def test_zero_margin_fails_strict_and_passes_nonstrict_audits(tmp_path):
    run = _bare_run(tmp_path)
    assert not run.audit("strict-less", "<", 1.0, 1.0)
    assert not run.audit("strict-greater", ">", 1.0, 1.0)
    assert run.audit("less-or-equal", "<=", 1.0, 1.0)
    assert run.audit("greater-or-equal", ">=", 1.0, 1.0)
    run.close("fail", 0.0)
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert [(rec["audit"], rec["status"], rec["margin"])
            for rec in manifest["outcomes"]] == [
        ("strict-less", "FAIL", 0.0), ("strict-greater", "FAIL", 0.0),
        ("less-or-equal", "PASS", 0.0), ("greater-or-equal", "PASS", 0.0)]


def _invoke_scene(tmp_path, command, scene):
    config = tmp_path / ("%s.json" % command)
    config.write_text(json.dumps(scene))
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        command, "--config", str(config), "--out", str(out),
        "--threads", "1", "--seed", "0"])
    return result, json.loads((out / "run_manifest.json").read_text())


def test_ok_manifest_keys_and_outputs_in_emission_order(tmp_path):
    result, manifest = _invoke_scene(tmp_path, "mass", MASS_SCENE)
    assert result.exit_code == 0, result.output
    assert set(manifest) == {"command", "config_hash", "seed", "threads",
                             "status", "outcomes", "outputs", "wall_clock",
                             "error"}
    assert manifest["status"] == "ok" and manifest["error"] is None
    assert manifest["outputs"] == ["mass_report.json", "mass_ladder.csv"]
    assert [rec["audit"] for rec in manifest["outcomes"]] == [
        "extrapolation-confident", "mass-matches-expected"]


def test_mass_far_from_expected_exits_as_audit_failure(tmp_path):
    scene = json.loads(json.dumps(MASS_SCENE))
    scene["mass"]["expected"] = 5.0
    result, manifest = _invoke_scene(tmp_path, "mass", scene)
    assert result.exit_code == 2, result.output
    assert "FAIL mass-matches-expected" in result.output
    assert manifest["status"] == "fail" and manifest["error"] is None
    failed = [rec for rec in manifest["outcomes"] if rec["status"] == "FAIL"]
    assert [rec["audit"] for rec in failed] == ["mass-matches-expected"]
    assert failed[0]["margin"] < 0.0


def test_solve_size_bound_failure_exits_from_the_solver_gate(tmp_path):
    scene = json.loads(json.dumps(SOLVE_SCENE))
    scene["solve"]["potential"][0]["amplitude"] = -0.04
    scene["solve"]["c_S"] = 0.01
    result, manifest = _invoke_scene(tmp_path, "solve", scene)
    assert result.exit_code == 2, result.output
    assert "negative-part size" in result.output
    status = {rec["audit"]: rec["status"] for rec in manifest["outcomes"]}
    assert status == {"potential-smallness": "FAIL"}
