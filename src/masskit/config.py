"""Scene configuration: schema-checked JSON naming a metric, a domain,
radial profiles, and per-command parameters for the workbench.

All quantities are dimensionless.  The file must carry `"schema": 1`;
validation failures point at the offending field.  Radial profiles are
sums of primitive terms so that configs stay diff-friendly:

    {"kind": "const", "value": c}                       c
    {"kind": "power", "coefficient": c, "exponent": a}  c r^a
    {"kind": "gaussian", "amplitude": c,
     "center": r0, "width": w}                          c exp(-((r-r0)/w)^2)
    {"kind": "schwarzschild", "mass": m}                1 + m/(2 r^{n-2})
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import metrics, radial
from .elliptic import DomainModel
from .errors import ConfigError
from .grids import MIN_QUADRATURE_ORDER

SCHEMA_VERSION = 1

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POS_ARRAY = {"type": "array", "items": _POS, "minItems": 1}
_LADDER = {"type": "array", "items": _POS, "minItems": 3}

_PROFILE_TERM = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["const", "power", "gaussian", "schwarzschild"]},
    },
}
_PROFILE = {"type": "array", "items": _PROFILE_TERM, "minItems": 1}

_MATRIX = {
    "type": "array",
    "minItems": 2,
    "items": {"type": "array", "items": _NUM, "minItems": 2},
}

# the keys build_domain forwards to DomainModel
_DOMAIN = {
    "type": "object",
    "required": ["truncation_radii"],
    "properties": {
        "r_min": _POS,
        "truncation_radii": _POS_ARRAY,
        "annulus_nodes": {"type": "integer", "minimum": 33},
        "cylinder_lengths": {"type": "array", "items": _POS},
        "cylinder_nodes_per_unit": {"type": "integer", "minimum": 1},
    },
}

SCENE_SCHEMA = {
    "type": "object",
    "required": ["schema", "metric"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "output": {"type": "string", "minLength": 1},
        "metric": {
            "type": "object",
            "required": ["family", "dimension"],
            "properties": {
                "family": {"enum": ["euclidean", "schwarzschild",
                                    "conformally_flat"]},
                "dimension": {"type": "integer", "minimum": 3},
                "mass": _NUM,
                "profile": _PROFILE,
                "r_min": _POS,
            },
        },
        "mass": {
            "type": "object",
            "required": ["radii"],
            "properties": {
                "radii": _LADDER,
                "quadrature_order": {"type": "integer",
                                     "minimum": MIN_QUADRATURE_ORDER},
                "method": {"enum": ["auto", "quadrature", "closed_form"]},
                "expected": _NUM,
                "rtol": _NONNEG,
                "atol": _NONNEG,
            },
        },
        "solve": {
            "type": "object",
            "required": ["potential", "support_radius", "domain"],
            "properties": {
                "potential": _PROFILE,
                "support_radius": _POS,
                "c_S": _POS,
                "domain": _DOMAIN,
                "oracle": {
                    "type": "object",
                    "properties": {
                        "enabled": {"type": "boolean"},
                        "tolerance": _POS,
                    },
                },
            },
        },
        "deform": {
            "type": "object",
            "required": ["eps_target"],
            "properties": {
                "eps_target": _POS,
                "s_ladder": _POS_ARRAY,
                "c_S": _POS,
                "mass": _NUM,
                "annulus_nodes": {"type": "integer", "minimum": 200},
                "verify_rtol": _POS,
            },
        },
        "compactify": {
            "type": "object",
            "required": ["s1"],
            "properties": {
                "s1": _POS,
                "grid_points": {"type": "integer", "minimum": 101},
                "torus": {
                    "type": "object",
                    "properties": {
                        "flat_radius": _POS,
                        "side": _NONNEG,
                        "collar": _NONNEG,
                    },
                },
                "chart_samples": {"type": "integer", "minimum": 2},
            },
        },
        "ale": {
            "type": "object",
            "required": ["generators"],
            "properties": {
                "generators": {"type": "array", "items": _MATRIX},
                "radii": _LADDER,
                "fixed_point": {
                    "type": "object",
                    "required": ["elements"],
                    "properties": {
                        "elements": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "object",
                                "required": ["matrix"],
                                "properties": {
                                    "matrix": _MATRIX,
                                    "offset": {"type": "array",
                                               "items": _NUM},
                                },
                            },
                        },
                    },
                },
            },
        },
        "converge": {
            "type": "object",
            "required": ["operations"],
            "properties": {
                "operations": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["kind"],
                        "properties": {
                            "kind": {"enum": ["scalar_flatness",
                                              "mass_ladder"]},
                            "h_values": {"type": "array", "items": _POS,
                                         "minItems": 2},
                            "radii": {"type": "array", "items": _POS,
                                      "minItems": 1},
                            "directions": {"type": "integer", "minimum": 1},
                            "ceiling": _POS,
                        },
                    },
                },
            },
        },
    },
}

# built once: jsonschema.validate would re-check the constant schema per call
_SCENE_VALIDATOR = validator_for(SCENE_SCHEMA)(SCENE_SCHEMA)


@dataclass(frozen=True)
class SceneConfig:
    """Validated scene; `sha256` digests the raw file bytes."""

    data: dict
    sha256: str
    path: str

    @property
    def seed(self):
        return int(self.data.get("seed", 0))

    @property
    def threads(self):
        return self.data.get("threads")

    @property
    def output(self):
        return self.data.get("output", "masskit-out")

    def block(self, name):
        if name not in self.data:
            raise ConfigError("config has no %r section" % name)
        return self.data[name]


def load_config(path):
    """Read, hash, parse, and schema-validate one scene file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    version = data.get("schema")
    if version != SCHEMA_VERSION:
        raise ConfigError("config schema version %r unsupported (expected %d)"
                          % (version, SCHEMA_VERSION))
    error = best_match(_SCENE_VALIDATOR.iter_errors(data))
    if error is not None:
        raise ConfigError("at %s: %s" % (error.json_path, error.message))
    return SceneConfig(data=data, sha256=digest, path=str(path))


def _field(term, key, spot):
    if key not in term:
        raise ConfigError("%s (%s term) needs %r" % (spot, term["kind"], key))
    return float(term[key])


def build_profile(terms, n, where="profile"):
    """Sum of primitive radial terms from their JSON descriptions."""
    total = None
    for i, term in enumerate(terms):
        spot = "%s[%d]" % (where, i)
        kind = term["kind"]
        if kind == "const":
            prof = radial.const(_field(term, "value", spot))
        elif kind == "power":
            prof = radial.power(_field(term, "coefficient", spot),
                                _field(term, "exponent", spot))
        elif kind == "gaussian":
            prof = radial.gaussian(_field(term, "amplitude", spot),
                                   _field(term, "center", spot),
                                   _field(term, "width", spot))
        else:
            prof = metrics.schwarzschild_factor(_field(term, "mass", spot), n)
        total = prof if total is None else total + prof
    return total


def build_metric(cfg: SceneConfig):
    """Metric named by the top-level metric block."""
    spec = cfg.data["metric"]
    n = int(spec["dimension"])
    family = spec["family"]
    if family == "euclidean":
        return metrics.euclidean(n)
    if family == "schwarzschild":
        if "mass" not in spec:
            raise ConfigError("metric.mass is required for family "
                              "'schwarzschild'")
        return metrics.schwarzschild(float(spec["mass"]), n)
    if "profile" not in spec:
        raise ConfigError("metric.profile is required for family "
                          "'conformally_flat'")
    u = build_profile(spec["profile"], n, where="metric.profile")
    return metrics.conformally_flat(u, n, r_min=float(spec.get("r_min", 1.0)))


def build_domain(block, n):
    """DomainModel from the solve-domain description; keys the scene leaves
    out take the DomainModel defaults, keys the schema does not name are
    ignored."""
    return DomainModel(n=n, **{key: block[key]
                               for key in _DOMAIN["properties"]
                               if key in block})
