"""tools/traffic.py: its executable-line map and its line tracer."""
import inspect
import os
import runpy

import pytest

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


@pytest.mark.parametrize("status, code", [(0, 0), (1, 1)])
def test_main_exits_nonzero_after_the_report_when_a_phase_fails(
        monkeypatch, capsys, status, code):
    # the functions read the script's own globals, not runpy's copy of them
    monkeypatch.setitem(TRAFFIC["main"].__globals__, "run_phase",
                        lambda phase: (status, {}))
    assert TRAFFIC["main"](["tests"]) == code
    out = capsys.readouterr().out
    assert "# phase tests            exit %d" % status in out
    assert "\ntotal " in out
