"""Paired benchmark runs of a parent and a change, folded into the committed
perf trajectory.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload probe-oracles --workload cli-scenes --pairs 10 \\
        --title "..." --parent-commit <sha> [--claim probe-oracles:wall_s]
    python3 tools/bench_pairs.py ... --seed 8675309 --other-seed

--parent and --change are two source checkouts, each with its own bench/
and src/.  Per workload, pair k runs `python3 bench/run.py --workload W
--seed S --seconds T --trace 0` once in each checkout, the parent first on
odd k and the change first on even k, and reads the JSON result on the
last line of its stdout.  The fold keeps, per end-to-end metric of
BENCHMARK.json, each side's median and quartiles (`statistics.quantiles`,
as bench/run.py reports them) and the pairs the change won (better by the
metric's direction, ties for neither), rounded to 4 decimals.

Without --other-seed the result is a new entry at the end of the
trajectory's `entries`; with it, the runs are added to the last entry's
`other_seeds`.  Each side's `src/` is named by its git tree hash, computed
from the files (`__pycache__` and `*.pyc` skipped), so a checkout with
uncommitted changes or no .git still gets one.  The runs write no
bytecode, and the tool refuses checkouts that hold a `__pycache__` under
src/ or bench/: a cache on one side only spares that side the compiling
and lowers its `setup_s`.  A claim `W:M` is met when the change won at
least 9 in 10 of the pairs and its median beats the parent's by more than
the parent's interquartile range.  Each new entry records the machine
the pairs ran on: the CPU model from /proc/cpuinfo, the usable CPUs, and
the Python, numpy, scipy and BLAS versions of the interpreter that runs
bench/run.py.  An entry's `change` is null until a commit holds its src/
tree: each run first fills every null `change` with the oldest commit in
`git rev-list HEAD` whose `:src` tree is the entry's `change_src_tree`.
Stdlib only at import; the per-pair values are printed as they come.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_full3d-bounds.json")
DEFAULT_SEED = 20220412


def end_to_end():
    """{metric: better} for the end-to-end metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def src_tree(path):
    """The git tree hash of the directory at path, as `git rev-parse
    <commit>:src` names a committed one."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if name == "__pycache__" or name.endswith(".pyc"):
            continue
        if os.path.isdir(full):
            entries.append((name + "/", b"40000", name, src_tree(full)))
        else:
            mode = b"100755" if os.access(full, os.X_OK) else b"100644"
            with open(full, "rb") as fh:
                data = fh.read()
            blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            entries.append((name, mode, name, blob))
    body = b"".join(mode + b" " + name.encode() + b"\0" + bytes.fromhex(sha)
                    for _, mode, name, sha in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def machine():
    """The host and the numerical stack the runs use."""
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def bytecode_caches(checkout):
    """The __pycache__ directories under checkout's src/ and bench/."""
    found = []
    for top in ("src", "bench"):
        for path, dirs, _ in os.walk(os.path.join(checkout, top)):
            found += [os.path.join(path, d) for d in dirs
                      if d == "__pycache__"]
    return sorted(found)


def run_once(checkout, workload, seed, seconds):
    """One bench/run.py run in checkout; {metric: value}."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise SystemExit("bench/run.py failed in %s:\n%s"
                         % (checkout, proc.stderr[-4000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def measure(parent, change, workload, seed, pairs, seconds, run=run_once):
    """pairs alternating runs; a list of (parent, change) metric dicts."""
    out = []
    for k in range(1, pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        got = {side: run(parent if side == "parent" else change, workload,
                         seed, seconds) for side in order}
        out.append((got["parent"], got["change"]))
        print("# %s pair %d: %s" % (workload, k, "  ".join(
            "%s %.4f/%.4f" % (m, got["parent"][m], got["change"][m])
            for m in got["parent"])), flush=True)
    return out


def _summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 4),
            "iqr": [round(q[0], 4), round(q[2], 4)]}


def fold(results, better):
    """The trajectory's per-workload block from (parent, change) pairs."""
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        par = [p[name] for p, _ in results]
        chg = [c[name] for _, c in results]
        metrics[name] = {"parent": _summary(par), "change": _summary(chg),
                         "pairs_won": sum(sign * (c - p) > 0.0
                                          for p, c in zip(par, chg))}
    return {"pairs": len(results), "metrics": metrics}


def claim_met(block, metric, direction):
    """At least 9 in 10 pairs won, and the median gap beyond the parent's
    interquartile range."""
    m = block["metrics"][metric]
    sign = 1.0 if direction == "higher" else -1.0
    gap = sign * (m["change"]["median"] - m["parent"]["median"])
    lo, hi = m["parent"]["iqr"]
    return m["pairs_won"] >= 0.9 * block["pairs"] and gap > hi - lo


def fill_changes(trajectory, repo):
    """Name the commit of every entry whose `change` is null: the oldest
    commit in `git rev-list HEAD` of repo whose src/ tree is the entry's
    change_src_tree.  An entry whose tree no commit has stays null."""
    def git(*cmd, stdin=None):
        return subprocess.run(["git", "-C", repo, *cmd], input=stdin,
                              capture_output=True, text=True,
                              check=True).stdout

    pending = [e for e in trajectory["entries"]
               if e.get("change") is None and e.get("change_src_tree")]
    if not pending:
        return
    commits = git("rev-list", "HEAD").split()
    # one object name per commit, or "<commit>:src missing"
    trees = git("cat-file", "--batch-check=%(objectname)",
                stdin="".join(c + ":src\n" for c in commits)).splitlines()
    oldest = {}
    for commit, tree in zip(commits, trees):
        oldest[tree] = commit          # rev-list lists the newest first
    for entry in pending:
        entry["change"] = oldest.get(entry["change_src_tree"])


def append(trajectory, args, workloads, better):
    """Add the folded runs to the trajectory dict, as a new entry or as
    another seed of the last one."""
    if args.other_seed:
        trajectory["entries"][-1].setdefault("other_seeds", []).append(
            {"seed": args.seed, "workloads": workloads})
        return
    claim = None
    if args.claim:
        w, m = args.claim.split(":")
        claim = {"workload": w, "metric": m,
                 "met": claim_met(workloads[w], m, better[m])}
    trajectory["entries"].append({
        "change": args.change_commit,
        "change_src_tree": src_tree(os.path.join(args.change, "src")),
        "parent": args.parent_commit,
        "parent_src_tree": src_tree(os.path.join(args.parent, "src")),
        "title": args.title, "source": "measured", "seed": args.seed,
        "note": args.note, "claim": claim, "machine": machine(),
        "workloads": workloads})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--title", default="")
    ap.add_argument("--note", default="")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--parent-commit")
    ap.add_argument("--change-commit")
    ap.add_argument("--other-seed", action="store_true",
                    help="add the runs to the last entry's other_seeds")
    ap.add_argument("--out", default=TRAJECTORY)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    caches = bytecode_caches(args.parent) + bytecode_caches(args.change)
    if caches:
        ap.error("remove the bytecode caches first: " + ", ".join(caches))
    with open(args.out) as fh:
        trajectory = json.load(fh)
    # before the runs, so a checkout git cannot read fails at once
    fill_changes(trajectory, ROOT)
    better = end_to_end()
    workloads = {w: fold(measure(args.parent, args.change, w, args.seed,
                                 args.pairs, args.seconds), better)
                 for w in args.workload}
    append(trajectory, args, workloads, better)
    with open(args.out, "w") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
