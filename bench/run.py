"""masskit benchmark runner: one workload, one seed, one measured run.

    python3 bench/run.py --workload probe-oracles --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; masskit is imported from ``src/``.
The run builds the workload's inputs from the seed, makes one warm-up pass
(the modules it loads beyond the harness's own fix the module set behind
``setup_s``), times ``setup_s`` in fresh interpreters, then repeats full
passes for about ``--seconds``.
Every pass re-checks every task against its reference and against the
digests of the first pass.  The last line of stdout is the JSON result;
the lines before it print each metric with its unit and every check.  With
``--trace 1`` half of the passes run traced and the per-layer metrics are
reported instead of the end-to-end ones.  Full results (environment,
digests, checks, pass times, spans) go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# one BLAS thread: every workload is single-threaded except the CLI scenes'
# --threads 2 run, so the process stays within nproc = 2 threads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 20220412
SETUP_REPEATS = 7
# nominal time of _calibration() on the reference host; a pass time is
# reported as raw time * CALIBRATION_REF_S / mean of the two calibrations
# that bracket it
CALIBRATION_REF_S = 0.2
# nominal time of the harness's own imports in a fresh interpreter on the
# reference host; a set-up child's time is reported as its set-up time *
# HARNESS_REF_S / the time its own harness imports took just before
HARNESS_REF_S = 0.12

# fresh interpreter: time the harness's own imports (those of run.py, which
# include numpy), then time importing the modules a first pass left loaded,
# in the order they were loaded, and building the workload's inputs
SETUP_CHILD = r"""
import json, sys, time
cfg = json.loads(sys.stdin.read())
t_harness = time.perf_counter()
sys.path[:0] = cfg["path"]
import importlib.util
import run, tracing, workloads
build = workloads.WORKLOADS[cfg["workload"]][0]
t0 = time.perf_counter()
skipped = 0
for name in cfg["modules"]:
    try:
        importlib.import_module(name)
    except ImportError:
        skipped += 1
build(cfg["seed"])
print(json.dumps({"setup_s": time.perf_counter() - t0,
                  "harness_s": t0 - t_harness, "skipped": skipped}))
"""


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _calibration():
    """Time a fixed kernel that runs no masskit code.

    A Python loop, dense BLAS with sorting, and elementwise numpy: the mix
    masskit's passes spend their time in.  On a shared VM the pass time of
    identical work drifts by up to 40% over minutes, and this kernel's time
    drifts with it, so their ratio is what the end-to-end times report.
    """
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500000):
        acc += (i % 7) * 0.5
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    for _ in range(60):
        np.sort((a @ a).ravel())
    x = rng.standard_normal(200000)
    for _ in range(20):
        np.exp(-x * x).sum()
    return time.perf_counter() - t0


def _environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # a source checkout without .git may sit inside some other repository
    sha = out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else None
    return {"nproc": os.cpu_count(), "blas": blas,
            "blas_threads": int(BLAS_THREADS),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha, "seed": seed}


def _setup_child(workload, seed, modules):
    """One fresh interpreter's set-up: seconds, seconds of the harness's
    imports before it, and how many of the modules could not be imported
    by name."""
    cfg = json.dumps({"path": [HERE, SRC], "modules": modules,
                      "workload": workload, "seed": seed})
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], input=cfg,
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError("set-up child failed:\n" + proc.stderr)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["setup_s"], res["harness_s"], res["skipped"]


class Pass:
    """Runs every task of a workload once and scores the outcomes."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.first_digests = {}

    def run(self):
        records = []
        t0 = time.perf_counter()
        for name, fn in self.tasks:
            t_task = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a raising task is a failed task
                records.append({"task": name, "raised": repr(exc),
                                "traceback": traceback.format_exc(),
                                "checks": [], "failed": True})
                continue
            t_task = time.perf_counter() - t_task
            checks = [vars(c) for c in out.checks]
            ref = self.first_digests.setdefault(name, out.digest)
            checks.append({"name": "digest-repeats",
                           "passed": out.digest == ref, "rel_err": None,
                           "detail": "%s vs first pass %s" % (out.digest,
                                                              ref)})
            failed = (out.failed_reason is not None
                      or not all(c["passed"] for c in checks))
            records.append({"task": name, "seconds": t_task,
                            "digest": out.digest,
                            "failed": failed, "reason": out.failed_reason,
                            "layer_values": out.layer_values,
                            "checks": checks})
        return time.perf_counter() - t0, records


def _score(records):
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    correct = all("raised" not in r and all(c["passed"] for c in r["checks"])
                  for r in records)
    errs = [c["rel_err"] for r in records for c in r["checks"]
            if c["rel_err"] is not None]
    # -log10 of the worst relative error, capped at double precision
    digits = min((-math.log10(max(e, 1e-16)) for e in errs), default=16.0)
    return attempted, failed, correct, digits


def _top_spans(spans, count=12):
    """Outermost spans per function: calls and inclusive seconds, largest
    first (used to compare single layer calls with ROADMAP timings)."""
    totals = {}
    for _, _, layer, name, t0, t1, _ in spans:
        key = "%s.%s" % (layer, name)
        calls, total = totals.get(key, (0, 0.0))
        totals[key] = (calls + 1, total + (t1 - t0))
    ranked = sorted(totals.items(), key=lambda kv: -kv[1][1])[:count]
    return [(key, calls, total) for key, (calls, total) in ranked]


def _print_summary(report, all_records, units, per_layer):
    """The '#' lines: environment, checks, digests, passes, metrics."""
    env = report["env"]
    print("# %s seed=%d  python %s numpy %s scipy %s  %s (%d thread)  "
          "nproc %s  git %s"
          % (report["workload"], env["seed"], env["python"], env["numpy"],
             env["scipy"], env["blas"], env["blas_threads"], env["nproc"],
             env["git_sha"]))
    for rec in all_records[0]:
        for c in rec["checks"]:
            print("# check %-28s %-34s %s  %s" % (
                rec["task"], c["name"], "PASS" if c["passed"] else "FAIL",
                c["detail"]))
        if rec.get("raised") or rec.get("reason"):
            print("# task  %-28s FAILED: %s"
                  % (rec["task"], rec.get("raised") or rec["reason"]))
        if "digest" in rec:
            print("# digest %-27s %s" % (rec["task"], rec["digest"]))
    later = {(rec["task"], c["name"]): c["detail"]
             for recs in all_records[1:] for rec in recs
             for c in rec["checks"] if not c["passed"]}
    later.update({(rec["task"], "raised"): rec["raised"]
                  for recs in all_records[1:] for rec in recs
                  if "raised" in rec})
    for (task, name), detail in sorted(later.items()):
        print("# later pass: %s %s FAIL  %s" % (task, name, detail))
    passes, traced = report["untraced_pass_s"], report["traced_pass_s"]
    q1, q3 = _quartiles(passes)
    print("# passes: warm-up %.3f s, %d timed, raw median %.3f s (quartiles "
          "%.3f .. %.3f s)%s" % (report["warm_pass_s"], len(passes),
                                 statistics.median(passes), q1, q3,
                                 ", %d traced" % len(traced) if traced else ""))
    print("# calibration: median %.4f s against reference %.2f s"
          % (statistics.median(report["calibration_s"]), CALIBRATION_REF_S))
    print("# setup: %d children importing %d modules (%d not importable by "
          "name), raw median %.3f s after harness imports of median %.3f s"
          % (len(report["setup_raw_s"]), len(report["setup_modules"]),
             report["setup_skipped"], statistics.median(report["setup_raw_s"]),
             statistics.median(report["setup_harness_s"])))
    print("# tasks attempted %d, failed %d, all checks correct: %s"
          % (report["attempted"], report["failed"], report["correct"]))
    for name, calls, total in report.get("top_spans", []):
        print("# span %-44s %6d calls %9.4f s" % (name, calls, total))
    for key, value in report["metrics"].items():
        extra = ""
        if per_layer is not None:
            extra = "  (moves %s on %s)" % per_layer[key][2:]
        print("# metric %-28s %.6g %s%s" % (key, value, units[key], extra))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [HERE, SRC]
    import importlib.util
    import tracing
    import workloads
    # masskit itself is first imported by the warm-up pass; here only check
    # that it will come from src/
    spec = importlib.util.find_spec("masskit")
    where = list(spec.submodule_search_locations or ()) if spec else []
    if os.path.join(SRC, "masskit") not in where:
        print("masskit is not importable from %s (found: %s)" % (SRC, where),
              file=sys.stderr)
        return 2
    baseline = set(sys.modules)
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    scene_dir = os.path.join(OUT, "scenes")
    os.makedirs(scene_dir, exist_ok=True)
    build, make_tasks = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    runner = Pass(make_tasks(inputs, scene_dir))

    warm_s, warm = runner.run()
    modules = [m for m in sys.modules if m not in baseline]
    setup, harness = [], []
    for _ in range(SETUP_REPEATS):
        raw, h, skipped = _setup_child(args.workload, args.seed, modules)
        setup.append(raw)
        harness.append(h)
    cal = [_calibration()]

    def scaled(raw):
        """raw time in reference seconds, by the calibrations around it."""
        cal.append(_calibration())
        return raw * CALIBRATION_REF_S / (0.5 * (cal[-2] + cal[-1]))

    untraced, traced, all_records = [], [], [warm]
    untraced_ref, traced_ref = [], []
    layer_runs, spans = [], None
    start = time.perf_counter()
    while True:
        dt, records = runner.run()
        untraced.append(dt)
        untraced_ref.append(scaled(dt))
        all_records.append(records)
        if args.trace:
            with tracing.Tracer() as tracer:
                tracer.install()
                dt, records = runner.run()
            traced.append(dt)
            traced_ref.append(scaled(dt))
            all_records.append(records)
            values = tracer.layer_metrics()
            # per-layer values only a task's reference check can supply
            for rec in records:
                for key, v in rec.get("layer_values", {}).items():
                    values[key] = max(values[key], v)
            layer_runs.append(values)
            if spans is None:
                spans = tracer.spans
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds:
            break

    flat = [r for recs in all_records for r in recs]
    attempted, failed, correct, digits = _score(flat)
    if args.trace:
        metrics = {k: statistics.median(run[k] for run in layer_runs)
                   for k in layer_runs[0]}
        metrics["trace.overhead_frac"] = (statistics.median(traced_ref)
                                          / statistics.median(untraced_ref)
                                          - 1.0)
        units = {k: v[0] for k, v in tracing.PER_LAYER.items()}
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": statistics.median(untraced_ref),
                   "setup_s": HARNESS_REF_S * statistics.median(
                       s / h for s, h in zip(setup, harness)),
                   "peak_rss_mib": rss,
                   "pass_frac": (attempted - failed) / attempted,
                   "ref_digits": digits}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                 "pass_frac": "ratio", "ref_digits": "digits"}

    env = _environment(args.seed)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report = {"workload": args.workload, "env": env, "metrics": metrics,
              "warm_pass_s": warm_s, "untraced_pass_s": untraced,
              "untraced_pass_ref_s": untraced_ref, "traced_pass_s": traced,
              "setup_raw_s": setup, "setup_harness_s": harness,
              "calibration_s": cal, "calibration_ref_s": CALIBRATION_REF_S,
              "setup_modules": modules, "setup_skipped": skipped,
              "attempted": attempted, "failed": failed, "correct": correct,
              "tasks": all_records[0]}
    if spans is not None:
        report["top_spans"] = _top_spans(spans)
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    if spans is not None:
        with open(os.path.join(OUT, tag + ".spans.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "name", "t0", "t1",
                                  "thread"], "spans": spans}, fh)

    _print_summary(report, all_records, units,
                   tracing.PER_LAYER if args.trace else None)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
