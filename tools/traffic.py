"""Line traffic of src/masskit: which lines tier-1 and the benchmark run.

    python3 tools/traffic.py                     # tier-1 and every workload
    python3 tools/traffic.py probe-oracles -v    # one workload, list lines
    python3 tools/traffic.py tests cli-scenes

A phase is `tests` (tier-1, run in-process through pytest.main) or a
workload name from BENCHMARK.json (`bench/run.py --workload W --seconds 1
--trace 0`, run through runpy).  Each phase runs in a fresh interpreter, so
module-level lines count for every phase that imports the module, under
sys.settrace and threading.settrace; only frames whose file lies under
src/masskit are traced line by line.

Per module the report gives the executable lines (those the compiled code
objects map instructions to), the lines no phase ran, and, when tier-1 and
at least one workload ran, the lines only tier-1 ran.  -v lists those
lines with their source.  The exit status is 1 when any phase failed,
since its counts then overstate the never-run lines.  Stdlib only; a
traced tier-1 run takes about twice as long as an untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "masskit")
BENCH_RUN = os.path.join(ROOT, "bench", "run.py")


def executable_lines(path):
    """Line numbers that some instruction of the module's code maps to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def _traced(run):
    """Call run() under a line tracer for src/masskit; (its result, the
    lines hit per file)."""
    prefix = PKG + os.sep
    hits, local_for = {}, {}

    def local(path):
        seen = hits.setdefault(path, set())

        def trace_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_line
        return trace_line

    def trace_call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        if path not in local_for:
            local_for[path] = local(path)
        return local_for[path]

    outer = sys.gettrace(), threading.gettrace()
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return status, {p: sorted(s) for p, s in hits.items()}


def _run_tests():
    import pytest
    return int(pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"]))


def _run_workload(name):
    def run():
        sys.argv = [BENCH_RUN, "--workload", name, "--seconds", "1",
                    "--trace", "0"]
        try:
            runpy.run_path(BENCH_RUN, run_name="__main__")
        except SystemExit as exc:
            return exc.code or 0
        return 0
    return run


def child(phase, out):
    """One phase in this interpreter; writes {status, hits} to out and
    exits nonzero when the phase failed."""
    os.chdir(ROOT)
    run = _run_tests if phase == "tests" else _run_workload(phase)
    status, hits = _traced(run)
    with open(out, "w") as fh:
        json.dump({"status": status, "hits": hits}, fh)
    return 1 if status else 0


def run_phase(phase):
    """Run one phase in a fresh interpreter; (exit status, lines hit per
    file).  The phase's own output is shown only when it fails."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "hits.json")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", phase,
             "--out", out], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0 or not os.path.exists(out):
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        if not os.path.exists(out):
            raise SystemExit("phase %s left no trace (exit %d)"
                             % (phase, proc.returncode))
        with open(out) as fh:
            data = json.load(fh)
    return data["status"], {p: set(v) for p, v in data["hits"].items()}


def _workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def report(phases, verbose):
    """Run the phases; print per-module counts and, with verbose, lines.
    Returns the names of the phases that exited nonzero."""
    tests, bench, failed = {}, {}, []
    for phase in phases:
        status, hits = run_phase(phase)
        print("# phase %-16s exit %s" % (phase, status), flush=True)
        if status:
            failed.append(phase)
        into = tests if phase == "tests" else bench
        for path, lines in hits.items():
            into.setdefault(path, set()).update(lines)
    split = "tests" in phases and len(phases) > 1
    print("%-16s %6s %6s %11s" % ("module", "lines", "never", "tests-only"))
    totals = [0, 0, 0]
    listing = []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        lines = executable_lines(path)
        ran_t, ran_b = tests.get(path, set()), bench.get(path, set())
        never = sorted(lines - ran_t - ran_b)
        only = sorted(lines & ran_t - ran_b) if split else []
        totals = [totals[0] + len(lines), totals[1] + len(never),
                  totals[2] + len(only)]
        print("%-16s %6d %6d %11s" % (name, len(lines), len(never),
                                      len(only) if split else "-"))
        if verbose:
            with open(path) as fh:
                src = fh.read().splitlines()
            listing += ["never      %s:%d  %s" % (name, k, src[k - 1].strip())
                        for k in never]
            listing += ["tests-only %s:%d  %s" % (name, k, src[k - 1].strip())
                        for k in only]
    print("%-16s %6d %6d %11s" % ("total", totals[0], totals[1],
                                  totals[2] if split else "-"))
    for line in listing:
        print(line)
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("phases", nargs="*",
                    help="'tests' and/or workload names (default: all)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="list the never-run and tests-only lines")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child, args.out)
    known = ["tests"] + _workload_names()
    phases = args.phases or known
    unknown = [p for p in phases if p not in known]
    if unknown:
        ap.error("unknown phase %s (choose from %s)"
                 % (", ".join(unknown), ", ".join(known)))
    return 1 if report(phases, args.verbose) else 0


if __name__ == "__main__":
    sys.exit(main())
