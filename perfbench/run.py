#!/usr/bin/env python3
"""AHB+ TLM benchmark: end-to-end and per-layer metrics for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload tlm-table1 --seed 11 --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the ahbp_perf measuring
program) into .bench_build/perfbench, runs the workload for about
--seconds, checks its outputs and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Progress and diagnostics go to stderr.

Workloads (see perfbench/workloads.json for the rationale):
  tlm-table1      the 12 Table-1 mixes on the TLM only
  rtl-accuracy    the same mixes on both models, with the cycle error
  sweep-warmfork  a 64-point warm-forked sweep of the wbuf-stress preset
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Configure and build the benchmark package; returns the binary path."""
    if not os.path.isfile(os.path.join(root, "src", "core", "platform.hpp")):
        raise RuntimeError("library sources not found under %s/src" % root)
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    exe = os.path.join(out, "ahbp_perf")
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE,
             "text": True}
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        log("configuring %s" % out)
        p = subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], **quiet)
        if p.returncode:
            raise RuntimeError("cmake configure failed:\n" + p.stderr)
    p = subprocess.run(["cmake", "--build", out, "-j", "4"], **quiet)
    if p.returncode or not os.path.isfile(exe):
        raise RuntimeError("build failed:\n" + p.stderr)
    return exe


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    root = os.path.dirname(HERE)
    try:
        exe = build(root)
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ahbp_perf exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if p.returncode:
        log("ahbp_perf exited with %d" % p.returncode)
        return 1
    raw = json.loads(p.stdout.strip().splitlines()[-1])
    out, problems = metrics.result(raw, bool(args.trace))
    for msg in problems:
        log("FAILED " + msg)
    log("%d passes, host.calib_ms %.3f" % (
        len(raw["passes"]), metrics.fastest(raw["calib_ns"]) / 1e6))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
