#!/usr/bin/env python3
"""Gate a change on the end-to-end benchmark, in alternating parent/change pairs.

    python3 bench/gate.py REV

Run from the repository root.  REV, the parent revision, is checked out
afresh under .bench_build/parent; the change is the working tree as it
stands, uncommitted edits included.  Each side builds through its own
bench/e2e/run.sh.  Pair i runs every BENCHMARK.json workload on both sides
with seed SEED + i, the parent first when i is even, and appends the runs
to .bench_build/pairs/{parent,change}.jsonl in calibrate.py's format.

Stdout is one Markdown table: per workload and end-to-end metric, both
medians with their quartiles, the change's relative move (positive is
worse, in the metric's own direction), the pairs the change won, and

    worse       worse by more than THRESHOLD, and by more than the parent's IQR
    unresolved  worse by more than THRESHOLD, but within the parent's IQR
    better      better in at least 9/10 of the pairs, by more than the parent's IQR
    ok          otherwise

Every row of a workload reads failed instead when one of its change runs
answered incorrectly, or when the change failed a larger share of the
operations it attempted than the parent did.  Exit 1 on any worse or failed
row, else 0.  A side that gives no result (its build failed, say) ends the
gate at once: exit 1, with a last line on stderr that names it and its tree.
"""

import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # nothing may be written under bench/e2e
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "e2e"))
import calibrate  # noqa: E402

# The fewest pairs (even, so each side runs first equally often) and a threshold with
# which a planted 10% slowdown reads worse and HEAD passes against itself (docs/PERF.md).
PAIRS = 6
THRESHOLD = 0.05
SEED = 101  # disjoint from the seeds 1-20 of the committed calibration runs
SIDES = ("parent", "change")


def judge(better, parent, change):
    """Verdict on one metric from its values per pair (value i of each side
    is pair i): (relative move, positive is worse; pairs won; verdict)."""
    sign = 1 if better == "lower" else -1
    p_med, p_iqr = calibrate.spread(parent)
    c_med, _ = calibrate.spread(change)
    move = sign * (c_med - p_med) / p_med
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    beyond = abs(c_med - p_med) > p_iqr * p_med
    if move > THRESHOLD:
        return move, wins, "worse" if beyond else "unresolved"
    if move < 0 and beyond and 10 * wins >= 9 * len(parent):
        return move, wins, "better"
    return move, wins, "ok"


def failed(parent, change):
    """Workloads whose change runs answered incorrectly, or failed a larger
    share of their operations than the parent's runs did."""

    def share(runs, w):
        runs = [r for r in runs if r["workload"] == w]
        return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

    return {r["workload"] for r in change
            if not r["correct"] or share(change, r["workload"]) > share(parent, r["workload"])}


def rows(spec, parent, change, bad):
    """Table rows from two calibrate.load_set sets; workloads in [bad] read failed."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = []
    for w, name in sorted(parent):
        p, c = parent[(w, name)], change[(w, name)]
        move, wins, verdict = judge(metrics[name]["better"], p, c)
        out.append((w, name, metrics[name]["unit"], p, c, move, wins,
                    "failed" if w in bad else verdict))
    return out


def cell(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)  # as calibrate.spread
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def render(table):
    lines = ["| workload | metric | parent median [q1, q3] | change median [q1, q3] "
             "| change | change better | verdict |",
             "|---|---|---|---|---|---|---|"]
    for w, name, unit, p, c, move, wins, verdict in table:
        lines.append(f"| {w} | {name} ({unit}) | {cell(p)} | {cell(c)} | {move:+.2%} "
                     f"| {wins}/{len(p)} | {verdict} |")
    return "\n".join(lines)


def run_pairs(spec, trees, out):
    """Both sides' runs in PAIRS alternating pairs; None, or why a side gave none."""
    names = [w["name"] for w in spec["workloads"]]
    for i in range(PAIRS):
        for side in SIDES if i % 2 == 0 else reversed(SIDES):
            os.chdir(trees[side])
            os.makedirs(".bench_build", exist_ok=True)
            try:
                calibrate.run_set(spec, names, 1, SEED + i, 0, out[side])
            except (IndexError, KeyError, ValueError, OSError) as e:
                # run_set reads a result that a failed build or run never wrote
                return f"no result from the {side} side in {trees[side]}, pair {i}: {e!r}"
    return None


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/gate.py REV")
    root = os.getcwd()
    spec = calibrate.load_spec()
    trees = {"parent": os.path.join(root, ".bench_build", "parent"), "change": root}
    shutil.rmtree(trees["parent"], ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], check=True)
    subprocess.run(["git", "worktree", "add", "--detach", trees["parent"], sys.argv[1]],
                   check=True, stdout=sys.stderr)
    os.makedirs(os.path.join(root, ".bench_build", "pairs"), exist_ok=True)
    out = {s: os.path.join(root, ".bench_build", "pairs", s + ".jsonl") for s in SIDES}
    for path in out.values():
        open(path, "w").close()
    with contextlib.redirect_stdout(sys.stderr):
        error = run_pairs(spec, trees, out)
    os.chdir(root)
    if error:
        sys.exit(f"gate: {error}; bash bench/e2e/run.sh --workload all --smoke there shows why")
    bad = failed(read(out["parent"]), read(out["change"]))
    table = rows(spec, calibrate.load_set(out["parent"]), calibrate.load_set(out["change"]), bad)
    print(render(table))
    sys.exit(1 if any(r[-1] in ("worse", "failed") for r in table) else 0)


if __name__ == "__main__":
    main()
