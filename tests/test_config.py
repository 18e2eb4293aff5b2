"""Scene schema and the messages that point at a bad field."""
import json

import pytest
from jsonschema.validators import validator_for

from masskit import config
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
