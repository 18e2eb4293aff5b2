"""scipy's private modules stay confined to the one documented fork.

``oracles`` subclasses scipy's DOP853 stepper and so reads its step
constants from ``scipy.integrate._ivp.rk`` (see its module docstring).
Every other module uses scipy's public API only, because a private path can
move between scipy releases without notice.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "masskit"
# the one module allowed a private scipy path: the DOP853 step-attempt fork
FORK = "oracles.py"


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
    found = private_scipy_imports(path)
    if path.name == FORK:
        assert found, "%s no longer needs its exemption" % path.name
    else:
        assert found == []
