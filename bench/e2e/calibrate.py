#!/usr/bin/env python3
"""Run the benchmark repeatedly and report its run-to-run spread.

    python3 bench/e2e/calibrate.py --runs 10 --first-seed 1 --out bench/e2e/runs/set1.jsonl
    python3 bench/e2e/calibrate.py --compare bench/e2e/runs/set1.jsonl bench/e2e/runs/set2.jsonl
    python3 bench/e2e/calibrate.py --runs 1 --trace 1 --out bench/e2e/runs/trace.jsonl

Run from the repository root.  Each run uses its own seed, as a regression
check does.  For every end-to-end metric the report gives the median and
the distance between the first and third quartiles as a share of the
median, and the bound BENCHMARK.json fixes; a spread under a third of the
bound leaves room to tell a regression from noise.  --compare checks that
the two sets' medians differ, in either direction, by no more than the
bound.  Each line of the output file is one run's full result JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(spec, workloads, runs, first_seed, trace, out):
    with open(out, "a") as sink:
        for i in range(runs):
            seed = first_seed + i
            for w in workloads:
                with tempfile.NamedTemporaryFile(suffix=".json", delete=False, dir=".bench_build") as tmp:
                    result_file = tmp.name
                cmd = spec["command"] + [
                    "--workload", w, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                    "--out", result_file,
                ]
                t0 = time.monotonic()
                p = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.monotonic() - t0
                last = json.loads(p.stdout.strip().splitlines()[-1])
                with open(result_file) as f:
                    full = json.load(f)
                os.unlink(result_file)
                full["wall_s"] = wall
                sink.write(json.dumps(full) + "\n")
                sink.flush()
                print(f"{w} seed {seed}: exit {p.returncode} correct {last['correct']} "
                      f"failed {last['failed']}/{last['attempted']} wall {wall:.1f}s", flush=True)
                if p.returncode != 0:
                    sys.stderr.write(p.stderr)


def load_set(path):
    by = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            for name, m in r["metrics"].items():
                if m["kind"] == "end_to_end":
                    by.setdefault((r["workload"], name), []).append(m["value"])
    return by


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def report(spec, path):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':12} {'metric':12} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
    for (w, name), vals in sorted(load_set(path).items()):
        med, s = spread(vals)
        flag = "" if name == "setup_s" or s < bounds[name] / 3 else "  WIDE"
        ok = ok and flag == ""
        print(f"{w:12} {name:12} {len(vals):3} {med:12.6g} {s:8.2%} {bounds[name]:6.0%}{flag}")
    return ok


def compare(spec, first, second):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = load_set(first), load_set(second)
    ok = True
    for key in sorted(a):
        w, name = key
        m = metrics[name]
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = "  APART" if abs(worse) > m["bound"] else ""
        ok = ok and flag == ""
        print(f"{w:12} {name:12} {ma:12.6g} {mb:12.6g} {worse:+8.2%} {m['bound']:6.0%}{flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    a = ap.parse_args()
    spec = load_spec()
    if a.compare:
        sys.exit(0 if compare(spec, *a.compare) else 1)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]
    os.makedirs(".bench_build", exist_ok=True)
    run_set(spec, workloads, a.runs, a.first_seed, a.trace, a.out)
    if not a.trace:
        sys.exit(0 if report(spec, a.out) else 1)


if __name__ == "__main__":
    main()
