"""CLI helpers and scenes: the mass ladder fanned out over the CLI's worker
pool against the serial one, and byte-identical outputs across repeats and
thread counts."""
import json
import types

import numpy as np
from click.testing import CliRunner

from masskit import adm, cli, metrics


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
