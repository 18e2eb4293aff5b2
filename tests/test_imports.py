"""The import contract: which scipy modules masskit loads, and where.

Every module uses scipy's public API only, because a private path can move
between scipy releases without notice.

The mass-and-curvature tier is numpy only, and each CLI command imports the
modules it runs, so fresh interpreters that import that tier, print the
CLI's help or run a radial mass scene load no scipy module at all.  The
scene schema's validator is built on first use, so the help loads no
jsonschema module either.  The radial harmonic tail, which the shooting
oracle integrates with scipy's `cubature`, loads no multiprocessing module.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "masskit"


def private_scipy_imports(path):
    """Dotted scipy paths imported by the file with a component that starts
    with an underscore."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = ["%s.%s" % (node.module, alias.name)
                     for alias in node.names]
        else:
            continue
        found += [p for p in paths if p.split(".")[0] == "scipy"
                  and any(part.startswith("_") for part in p.split("."))]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_private_scipy_imports_only_in_the_documented_fork(path):
    assert private_scipy_imports(path) == []


# a fresh interpreter runs the snippet, then prints the modules loaded from
# one top-level package
CHILD = """
import sys
sys.path.insert(0, %r)
%s
print(sorted(m for m in sys.modules if m.split(".")[0] == %r))
"""
# click's entry point exits, with code 0 on success
CLI_RUN = """
import masskit.cli
try:
    masskit.cli.main(%r)
except SystemExit as exc:
    assert exc.code == 0, exc.code
"""
MASS_SCENE = {"schema": 1,
              "metric": {"family": "schwarzschild", "dimension": 3,
                         "mass": 1.0},
              "mass": {"radii": [8, 16, 32, 64]}}


def modules_after(snippet, cwd, package):
    proc = subprocess.run([sys.executable, "-c",
                           CHILD % (str(SRC.parent), snippet, package)],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def scipy_modules_after(snippet, cwd):
    return modules_after(snippet, cwd, "scipy")


def test_numpy_tier_imports_no_scipy(tmp_path):
    assert scipy_modules_after(
        "import masskit.adm, masskit.curvature, masskit.groups, "
        "masskit.grids, masskit.metrics, masskit.radial", tmp_path) == "[]"


def test_cli_help_imports_no_scipy(tmp_path):
    assert scipy_modules_after(CLI_RUN % (["--help"],), tmp_path) == "[]"


def test_cli_help_imports_no_jsonschema(tmp_path):
    assert modules_after(CLI_RUN % (["--help"],), tmp_path,
                         "jsonschema") == "[]"


def test_radial_mass_scene_imports_no_scipy(tmp_path):
    config = tmp_path / "mass.json"
    config.write_text(json.dumps(MASS_SCENE))
    assert scipy_modules_after(
        CLI_RUN % (["mass", "--config", "mass.json", "--out", "out"],),
        tmp_path) == "[]"
    report = json.loads((tmp_path / "out" / "mass_report.json").read_text())
    assert abs(report["extrapolated"] - 1.0) < 0.01


def test_harmonic_tail_imports_no_multiprocessing(tmp_path):
    assert modules_after(
        "from masskit import grids, metrics\n"
        "grids.harmonic_tail(metrics.schwarzschild(1.0, 3), 4.0)",
        tmp_path, "multiprocessing") == "[]"


def test_tier1_and_its_subprocesses_write_no_bytecode(tmp_path):
    assert sys.dont_write_bytecode
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; print(sys.dont_write_bytecode)"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=120)
    assert proc.stdout.strip() == "True"


def unused_imports(path):
    """Names the file binds by an import statement, anywhere in it, and
    never reads; `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_finds_an_unread_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "from .errors import ConfigError, RegimeError as RE\n"
                    "def f():\n    import json\n    raise ConfigError(json)\n")
    assert unused_imports(path) == ["RE", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []
