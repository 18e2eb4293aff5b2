"""tools/bench_pairs.py: pair order, the fold of canned results, the claim
rule, the trajectory entry, the src/ tree hash and the commits it fills
in."""
import argparse
import os
import platform
import runpy
import subprocess

import numpy as np
import pytest
import scipy

PAIRS = runpy.run_path(os.path.join(os.path.dirname(__file__), os.pardir,
                                    "tools", "bench_pairs.py"))
BETTER = {"wall_s": "lower", "pass_frac": "higher"}

# wall_s and pass_frac of ten (parent, change) pairs
CANNED = [({"wall_s": p, "pass_frac": 0.8}, {"wall_s": c, "pass_frac": f})
          for p, c, f in [(0.110, 0.085, 0.8), (0.105, 0.084, 0.9),
                          (0.108, 0.086, 0.9), (0.112, 0.083, 0.9),
                          (0.104, 0.087, 0.9), (0.109, 0.082, 0.9),
                          (0.107, 0.085, 0.9), (0.111, 0.084, 0.9),
                          (0.106, 0.112, 0.9), (0.103, 0.086, 0.9)]]


def test_fold_of_canned_pairs():
    block = PAIRS["fold"](CANNED, BETTER)
    assert block["pairs"] == 10
    wall = block["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 0.1075, "iqr": [0.1047, 0.1103]}
    assert wall["change"] == {"median": 0.085, "iqr": [0.0838, 0.0862]}
    assert wall["pairs_won"] == 9
    # higher is better; the tie in the first pair counts for neither side
    frac = block["metrics"]["pass_frac"]
    assert frac["pairs_won"] == 9
    assert frac["parent"] == {"median": 0.8, "iqr": [0.8, 0.8]}


def test_claim_needs_nine_in_ten_and_a_gap_beyond_the_parent_iqr():
    block = PAIRS["fold"](CANNED, BETTER)
    assert PAIRS["claim_met"](block, "wall_s", "lower")
    eight = PAIRS["fold"](CANNED[:9] + [(c, p) for p, c in CANNED[9:]],
                          BETTER)
    assert eight["metrics"]["wall_s"]["pairs_won"] == 8
    assert not PAIRS["claim_met"](eight, "wall_s", "lower")
    close = PAIRS["fold"]([(p, {"wall_s": p["wall_s"] - 1e-4,
                                "pass_frac": 0.8}) for p, _ in CANNED],
                          BETTER)
    assert close["metrics"]["wall_s"]["pairs_won"] == 10
    assert not PAIRS["claim_met"](close, "wall_s", "lower")


def test_measure_runs_the_parent_first_on_odd_pairs():
    order = []

    def run(checkout, workload, seed, seconds):
        order.append(checkout)
        return {"wall_s": 1.0 if checkout == "P" else 0.5}

    out = PAIRS["measure"]("P", "C", "w", 7, 3, 1.0, run=run)
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert out == [({"wall_s": 1.0}, {"wall_s": 0.5})] * 3


def _tree(root):
    """src/ with an empty file, an executable script, a nested file and a
    bytecode cache that the hash skips; `git rev-parse HEAD:src` of it
    committed is the hash the test expects."""
    src = root / "src"
    (src / "d" / "__pycache__").mkdir(parents=True)
    (src / "a").write_bytes(b"")
    (src / "d" / "b").write_bytes(b"x\n")
    (src / "d" / "__pycache__" / "m.pyc").write_bytes(b"junk\n")
    (src / "run.sh").write_bytes(b"#!/bin/sh\n")
    os.chmod(src / "run.sh", 0o755)
    return src


def test_src_tree_is_the_git_tree_hash(tmp_path):
    assert PAIRS["src_tree"](str(_tree(tmp_path))) \
        == "01347d487770fad81c65a4f733de38f16fdf7386"


def test_bytecode_caches_are_found_under_src_and_bench(tmp_path):
    _tree(tmp_path)
    (tmp_path / "bench" / "__pycache__").mkdir(parents=True)
    (tmp_path / "tests" / "__pycache__").mkdir(parents=True)
    assert PAIRS["bytecode_caches"](str(tmp_path)) == [
        str(tmp_path / "bench" / "__pycache__"),
        str(tmp_path / "src" / "d" / "__pycache__")]


@pytest.mark.parametrize("other_seed", [False, True])
def test_append_adds_an_entry_or_another_seed(tmp_path, other_seed):
    _tree(tmp_path)
    args = argparse.Namespace(
        other_seed=other_seed, seed=5, claim="w:wall_s", title="t",
        note="n", change=str(tmp_path), parent=str(tmp_path),
        change_commit=None, parent_commit="abc")
    workloads = {"w": PAIRS["fold"](CANNED, BETTER)}
    trajectory = {"entries": [{"title": "old"}]}
    PAIRS["append"](trajectory, args, workloads, BETTER)
    if other_seed:
        assert trajectory["entries"] == [{"title": "old", "other_seeds": [
            {"seed": 5, "workloads": workloads}]}]
        return
    entry = trajectory["entries"][-1]
    assert entry["claim"] == {"workload": "w", "metric": "wall_s",
                              "met": True}
    assert entry["change_src_tree"] == entry["parent_src_tree"] \
        == "01347d487770fad81c65a4f733de38f16fdf7386"
    assert (entry["change"], entry["parent"], entry["seed"]) \
        == (None, "abc", 5)
    assert entry["workloads"] is workloads
    host = entry["machine"]
    assert set(host) == {"cpu", "cpus", "python", "numpy", "scipy", "blas"}
    assert host["cpus"] >= 1
    assert host["python"] == platform.python_version()
    assert (host["numpy"], host["scipy"]) == (np.__version__,
                                              scipy.__version__)


def test_fill_changes_names_the_oldest_commit_with_the_src_tree(tmp_path):
    # a throwaway repo: commits 1 and 2 share one src/ tree (2 changes only
    # a file outside src/), commit 3 changes src/
    def git(*cmd):
        return subprocess.run(
            ["git", "-C", str(tmp_path), "-c", "user.name=t",
             "-c", "user.email=t@t", *cmd], capture_output=True, text=True,
            check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "src").mkdir()
    commits, trees = [], []
    for name, body in [("src/a", "1\n"), ("notes", "x\n"), ("src/a", "2\n")]:
        (tmp_path / name).write_text(body)
        git("add", "-A")
        git("commit", "-q", "-m", name)
        commits.append(git("rev-parse", "HEAD"))
        trees.append(PAIRS["src_tree"](str(tmp_path / "src")))
    assert trees[0] == trees[1] == git("rev-parse", "HEAD~2:src")
    trajectory = {"entries": [
        {"change": "kept", "change_src_tree": trees[2]},
        {"change": None, "change_src_tree": trees[0]},
        {"change": None, "change_src_tree": trees[2]},
        {"change": None, "change_src_tree": "0" * 40},
        {"change": None}]}
    PAIRS["fill_changes"](trajectory, str(tmp_path))
    assert [e["change"] for e in trajectory["entries"]] \
        == ["kept", commits[0], commits[2], None, None]
