"""Scene schema and the messages that point at a bad field."""
import copy
import json

import pytest
from click.testing import CliRunner
from jsonschema.validators import validator_for

from masskit import cli, config
from masskit.errors import ConfigError


def test_scene_schema_is_valid_against_its_metaschema():
    validator_for(config.SCENE_SCHEMA).check_schema(config.SCENE_SCHEMA)


@pytest.mark.parametrize("scene, message", [
    ({"schema": 1}, "at $: 'metric' is a required property"),
    ({"schema": 1, "metric": {"family": "euclidean", "dimension": 2}},
     "at $.metric.dimension: 2 is less than the minimum of 3"),
    # the schema reads the floor of grids.sphere_quadrature
    ({"schema": 1, "metric": {"family": "euclidean", "dimension": 3},
      "mass": {"radii": [8, 16, 32], "quadrature_order": 4}},
     "at $.mass.quadrature_order: 4 is less than the minimum of 8"),
    # a zero collar is refused, not read as "unset"
    ({"schema": 1, "metric": {"family": "euclidean", "dimension": 3},
      "compactify": {"s1": 8.0, "torus": {"collar": 0}}},
     "at $.compactify.torus.collar: 0 is less than or equal to the minimum "
     "of 0"),
])
def test_schema_error_names_the_field(tmp_path, scene, message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    with pytest.raises(ConfigError) as err:
        config.load_config(path)
    assert str(err.value) == message


def test_valid_scene_loads(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"schema": 1, "metric": {
        "family": "schwarzschild", "dimension": 3, "mass": 1.0}}))
    cfg = config.load_config(path)
    assert cfg.data["metric"]["mass"] == 1.0
    assert len(cfg.sha256) == 64


EYE = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# a valid scene holding every object of the schema
FULL_SCENE = {
    "schema": 1, "seed": 0,
    "metric": {"family": "conformally_flat", "dimension": 3, "r_min": 1.0,
               "profile": [{"kind": "const", "value": 1.0}]},
    "mass": {"radii": [8, 16, 32]},
    "solve": {"potential": [{"kind": "const", "value": 0.0}],
              "support_radius": 4, "domain": {"truncation_radii": [16]},
              "oracle": {"enabled": False}},
    "deform": {"eps_target": 0.01},
    "compactify": {"s1": 8.0, "torus": {"collar": 1.0}},
    "ale": {"generators": [EYE],
            "fixed_point": {"elements": [{"matrix": EYE}]}},
    "converge": {"operations": [{"kind": "mass_ladder"}]},
}
OBJECTS = [(), ("metric",), ("metric", "profile", 0), ("mass",), ("solve",),
           ("solve", "potential", 0), ("solve", "domain"), ("solve", "oracle"),
           ("deform",), ("compactify",), ("compactify", "torus"), ("ale",),
           ("ale", "fixed_point"), ("ale", "fixed_point", "elements", 0),
           ("converge",), ("converge", "operations", 0)]
# keys the schema once accepted and no code read, or read only to restate
# a constant or the metric's r_min
RETIRED = [((), "threads"), ((), "output"), (("mass",), "rtol"),
           (("mass",), "atol"), (("solve", "oracle"), "tolerance"),
           (("solve", "domain"), "r_min"),
           (("solve", "domain"), "annulus_nodes"),
           (("solve", "domain"), "cylinder_nodes_per_unit"),
           (("deform",), "annulus_nodes"), (("deform",), "verify_rtol"),
           (("compactify",), "grid_points"),
           (("compactify",), "chart_samples"),
           (("compactify", "torus"), "side"),
           (("converge", "operations", 0), "directions")]


def _run_mass(tmp_path, scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    return CliRunner().invoke(cli.main, [
        "mass", "--config", str(path), "--out", str(tmp_path / "out")])


def test_full_scene_is_valid(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(FULL_SCENE))
    assert config.load_config(path).data == FULL_SCENE


@pytest.mark.parametrize(
    "where, key", RETIRED + [(where, "colour") for where in OBJECTS],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else v)
def test_unread_key_exits_1_naming_its_path(tmp_path, where, key):
    scene = copy.deepcopy(FULL_SCENE)
    block = scene
    for step in where:
        block = block[step]
    block[key] = 1
    result = _run_mass(tmp_path, scene)
    assert result.exit_code == 1, result.output
    path = "$" + "".join("[%d]" % s if isinstance(s, int) else "." + s
                         for s in where)
    assert ("config error: at %s: Additional properties are not allowed "
            "(%r was unexpected)" % (path, key)) in result.output


@pytest.mark.parametrize("metric, message", [
    ({"family": "euclidean", "dimension": 3, "mass": 1.0},
     "metric.mass is not read for family 'euclidean'"),
    ({"family": "schwarzschild", "dimension": 3, "mass": 1.0, "r_min": 2.0},
     "metric.r_min is not read for family 'schwarzschild'"),
    ({"family": "schwarzschild", "dimension": 3},
     "metric.mass is required for family 'schwarzschild'"),
    ({"family": "conformally_flat", "dimension": 3,
      "profile": [{"kind": "power", "coefficient": 1.0, "exponent": -1.0},
                  {"kind": "const", "value": 1.0, "width": 2.0}]},
     "metric.profile[1].width is not read by a const term"),
    ({"family": "conformally_flat", "dimension": 3,
      "profile": [{"kind": "gaussian", "amplitude": 1.0, "center": 2.0}]},
     "metric.profile[0] (gaussian term) needs 'width'"),
])
def test_metric_holds_only_what_its_family_and_terms_read(tmp_path, metric,
                                                          message):
    scene = dict(FULL_SCENE, metric=metric)
    result = _run_mass(tmp_path, scene)
    assert result.exit_code == 1, result.output
    assert "config error: " + message in result.output


def test_ale_needs_a_generator(tmp_path):
    scene = dict(FULL_SCENE, ale={"generators": []})
    result = _run_mass(tmp_path, scene)
    assert result.exit_code == 1, result.output
    assert "at $.ale.generators: [] should be non-empty" in result.output
