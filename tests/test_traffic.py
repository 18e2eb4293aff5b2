"""tools/traffic.py: its executable-line map and its line tracer."""
import inspect
import os
import runpy

from masskit import density

TRAFFIC = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                      "tools", "traffic.py"))


def test_tracer_records_the_masskit_lines_a_call_ran():
    status, hits = TRAFFIC["_traced"](lambda: density.conformal_constant(3))
    assert status == 0.125
    path = inspect.getsourcefile(density.conformal_constant)
    lines, first = inspect.getsourcelines(density.conformal_constant)
    body = first + len(lines) - 1
    assert hits == {path: [body]}
    assert body in TRAFFIC["executable_lines"](path)
