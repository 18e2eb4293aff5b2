"""Scene configuration: schema-checked JSON naming a metric, a domain,
radial profiles, and per-command parameters for the workbench.

All quantities are dimensionless.  The file must carry `"schema": 1`.
The schema is closed: every object refuses a key it does not name, and
it names only keys that some code reads, so a retired or misspelled key
is a configuration error at its JSON path, never a silent default.  The
accepted keys (* required):

    schema*, seed
    metric: family*, dimension*, mass (schwarzschild), profile and r_min
        (conformally_flat; r_min is the chart's inner cut, default 1)
    mass: radii*, method, quadrature_order (method quadrature), expected
    solve: potential*, support_radius*, c_S, oracle {enabled},
        domain* {truncation_radii*, cylinder_lengths}
    deform: eps_target*, s_ladder, c_S, mass
    compactify: s1*, torus {flat_radius, collar}
    ale: generators*, radii, fixed_point {elements* [{matrix*, offset}]}
    converge: operations* [{kind*, h_values, radii, ceiling}]

Run settings (output directory, worker threads) are command-line flags,
not scene keys.  A metric block holds only the keys its family reads.
Radial profiles are sums of primitive terms so that configs stay
diff-friendly; a term holds exactly the fields of its kind:

    {"kind": "const", "value": c}                       c
    {"kind": "power", "coefficient": c, "exponent": a}  c r^a
    {"kind": "gaussian", "amplitude": c,
     "center": r0, "width": w}                          c exp(-((r-r0)/w)^2)
    {"kind": "schwarzschild", "mass": m}                1 + m/(2 r^{n-2})
"""
from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

from . import metrics, radial
from .errors import ConfigError
from .grids import MIN_QUADRATURE_ORDER

SCHEMA_VERSION = 1


def _object(*required, **properties):
    """A closed object schema: the named properties, of which `required`
    must be present, and no other key."""
    schema = {"type": "object", "properties": properties,
              "additionalProperties": False}
    if required:
        schema["required"] = list(required)
    return schema


def _array(items, min_items=0):
    return {"type": "array", "items": items, "minItems": min_items}


_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_POS_ARRAY = _array(_POS, 1)
_LADDER = _array(_POS, 3)
_PROFILE = _array(_object(
    "kind", kind={"enum": ["const", "power", "gaussian", "schwarzschild"]},
    value=_NUM, coefficient=_NUM, exponent=_NUM, amplitude=_NUM, center=_NUM,
    width=_NUM, mass=_NUM), 1)
_MATRIX = _array(_array(_NUM, 2), 2)

SCENE_SCHEMA = _object(
    "schema", "metric",
    schema={"const": SCHEMA_VERSION},
    seed={"type": "integer", "minimum": 0},
    metric=_object(
        "family", "dimension",
        family={"enum": ["euclidean", "schwarzschild", "conformally_flat"]},
        dimension={"type": "integer", "minimum": 3},
        mass=_NUM, profile=_PROFILE, r_min=_POS),
    mass=_object(
        "radii", radii=_LADDER,
        quadrature_order={"type": "integer", "minimum": MIN_QUADRATURE_ORDER},
        method={"enum": ["auto", "quadrature", "closed_form"]},
        expected=_NUM),
    solve=_object(
        "potential", "support_radius", "domain",
        potential=_PROFILE, support_radius=_POS, c_S=_POS,
        domain=_object("truncation_radii", truncation_radii=_POS_ARRAY,
                       cylinder_lengths=_array(_POS)),
        oracle=_object(enabled={"type": "boolean"})),
    deform=_object("eps_target", eps_target=_POS, s_ladder=_POS_ARRAY,
                   c_S=_POS, mass=_NUM),
    compactify=_object("s1", s1=_POS,
                       torus=_object(flat_radius=_POS, collar=_POS)),
    ale=_object(
        "generators", generators=_array(_MATRIX, 1), radii=_LADDER,
        fixed_point=_object("elements", elements=_array(_object(
            "matrix", matrix=_MATRIX,
            offset=_array(_NUM)), 1))),
    converge=_object("operations", operations=_array(_object(
        "kind", kind={"enum": ["scalar_flatness", "mass_ladder"]},
        h_values=_array(_POS, 2), radii=_array(_POS, 1), ceiling=_POS), 1)),
)


@functools.lru_cache(maxsize=None)
def _scene_validator():
    """The schema's validator, built on first use: jsonschema.validate would
    re-check the constant schema per call, and importing jsonschema (with
    its format checkers) is the largest import a command that validates no
    scene, such as --help, would otherwise pay."""
    from jsonschema.validators import validator_for
    return validator_for(SCENE_SCHEMA)(SCENE_SCHEMA)


@dataclass(frozen=True)
class SceneConfig:
    """Validated scene; `sha256` digests the raw file bytes."""

    data: dict
    sha256: str

    @property
    def seed(self):
        return int(self.data.get("seed", 0))

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
    from jsonschema.exceptions import best_match
    error = best_match(_scene_validator().iter_errors(data))
    if error is not None:
        raise ConfigError("at %s: %s" % (error.json_path, error.message))
    return SceneConfig(data=data, sha256=digest)


# the numeric fields each profile-term kind reads, in argument order
_TERM_FIELDS = {"const": ("value",), "power": ("coefficient", "exponent"),
                "gaussian": ("amplitude", "center", "width"),
                "schwarzschild": ("mass",)}
# the metric keys each family reads beside family and dimension
_FAMILY_KEYS = {"euclidean": (), "schwarzschild": ("mass",),
                "conformally_flat": ("profile", "r_min")}


def build_profile(terms, n, where="profile"):
    """Sum of primitive radial terms from their JSON descriptions; a term
    must give each field its kind reads and no other."""
    total = None
    for i, term in enumerate(terms):
        kind = term["kind"]
        fields = _TERM_FIELDS[kind]
        extra = sorted(set(term) - {"kind", *fields})
        if extra:
            raise ConfigError("%s[%d].%s is not read by a %s term"
                              % (where, i, extra[0], kind))
        missing = [key for key in fields if key not in term]
        if missing:
            raise ConfigError("%s[%d] (%s term) needs %r"
                              % (where, i, kind, missing[0]))
        args = [float(term[key]) for key in fields]
        if kind == "const":
            prof = radial.const(*args)
        elif kind == "power":
            prof = radial.power(*args)
        elif kind == "gaussian":
            prof = radial.gaussian(*args)
        else:
            prof = metrics.schwarzschild_factor(args[0], n)
        total = prof if total is None else total + prof
    return total


def build_metric(cfg: SceneConfig):
    """Metric named by the top-level metric block, which may hold only the
    keys its family reads.  Its r_min, the chart's inner cut, is where
    every solve and the shooting oracle start."""
    spec = cfg.data["metric"]
    n = int(spec["dimension"])
    family = spec["family"]
    extra = sorted(set(spec) - {"family", "dimension", *_FAMILY_KEYS[family]})
    if extra:
        raise ConfigError("metric.%s is not read for family %r"
                          % (extra[0], family))
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
    """DomainModel from the solve-domain description; its inner cut is the
    metric's r_min."""
    from .elliptic import DomainModel
    return DomainModel(n=n, truncation_radii=block["truncation_radii"],
                       cylinder_lengths=block.get("cylinder_lengths", ()))
