#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough to gate on?

Runs one workload as two sets of runs, each run with its own seed, and
prints, for every end-to-end metric and for host.calib_ms, each set's
median and quartiles, IQR/median, and the difference between the two set
medians, both against the metric's bound in BENCHMARK.json; the last row
of each metric pools every run.  host.calib_ms times a fixed CPU loop that
does not depend on the library, so host speed drift between the sets
shows there.

    python3 perfbench/steadiness.py --workload tlm-table1 --runs 5

Exits 1 when a spread or a set difference is beyond its bound (setup_s's
spread is reported but not gated: its bound limits only the drift).  A
spread above a third of its bound is marked "wide": steady, but with
little margin.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

CALIB_RE = re.compile(r"host\.calib_ms ([0-9.]+)")
SETS = 2
FIRST_SEED = 1000


def one_run(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode:
        raise RuntimeError("run.py failed (seed %d):\n%s" % (seed, p.stderr))
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise RuntimeError("seed %d: %d of %d operations failed:\n%s" % (
            seed, out["failed"], out["attempted"], p.stderr))
    values = {k: v["value"] for k, v in out["metrics"].items()}
    m = CALIB_RE.search(p.stderr)
    values["host.calib_ms"] = float(m.group(1)) if m else float("nan")
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    sets = []
    seed = FIRST_SEED
    for s in range(SETS):
        runs = []
        for _ in range(args.runs):
            runs.append(one_run(args.workload, seed, seconds))
            seed += 1
            print("set %d run %d: %s" % (s + 1, len(runs), json.dumps(
                {k: round(v, 6) for k, v in runs[-1].items()})),
                file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    print("workload %s: %d sets x %d runs, %g s each" % (
        args.workload, SETS, args.runs, seconds))
    print("%-20s %5s %12s %12s %12s %9s %9s %7s" % (
        "metric", "set", "q1", "median", "q3", "iqr/med", "vs set1", "bound"))
    for name in list(bounds) + ["host.calib_ms"]:
        bound = bounds.get(name)
        base = None
        rows = list(enumerate(sets)) + [("all", sum(sets, []))]
        for n, runs in rows:
            values = [r[name] for r in runs]
            q1, med, q3 = metrics.quartiles(values)
            share = metrics.iqr_share(values)
            diff = 0.0 if base is None else (med - base) / base
            base = med if base is None else base
            flag = ""
            if bound is not None:
                if name != "setup_s" and share > bound:
                    flag, ok = " SPREAD", False
                elif share > bound / 3:
                    flag = " wide"
                if abs(diff) > bound:
                    flag, ok = flag + " DRIFT", False
            print("%-20s %5s %12.6g %12.6g %12.6g %9.4f %+9.4f %7s%s" % (
                name, n if n == "all" else n + 1, q1, med, q3, share, diff,
                "-" if bound is None else bound, flag))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
