#!/usr/bin/env python3
"""Regression gate for BENCH_SPEED.json.

Compares a freshly measured BENCH_SPEED.json against the committed
reference artifact and fails when any model's cycles/sec regressed beyond
the tolerance.

Raw kcycles/sec are machine-dependent (CI runners differ run to run), so
the gate is *median-ratio normalized*: for every model present in both
files it computes ratio = new/old, takes the median ratio as the "this
machine vs the reference machine" speed factor, and fails any model whose
ratio falls below tolerance x median.  A uniform slowdown (slower runner)
passes; one model regressing relative to the others fails.

Each row's kcycles/sec is the median of `reps` timed runs, written with
their min and IQR.

Also re-asserts the artifact's shape invariants (shape_ok, positive
throughputs, a consistent spread per row, phase tables) so the gate subsumes the old shape check, and
that the fresh run simulated exactly what the reference did: the same
`items`, and identical `cycles` and `kernel_activity` (TLM component
evaluations, RTL delta cycles) on every row of both files.  Neither depends
on the host, so any difference is a behaviour change, not noise.

usage: check_bench_speed.py NEW.json REFERENCE.json [--tolerance 0.85]
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("new_json")
    ap.add_argument("ref_json")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.85,
        help="fail a model below tolerance x median ratio (default 0.85 "
        "= >15%% relative regression)",
    )
    args = ap.parse_args()

    new = load(args.new_json)
    ref = load(args.ref_json)

    # Shape invariants of the fresh run.
    assert new.get("shape_ok"), "shape_ok is false in fresh run"
    for m, row in new["models"].items():
        assert row["kcycles_per_sec"] > 0, f"non-positive throughput: {m}"
        assert row["reps"] >= 1, f"no timed runs: {m}"
        assert 0 < row["kcycles_per_sec_min"] <= row["kcycles_per_sec"], (
            f"{m}: min above median"
        )
        assert row["kcycles_per_sec_iqr"] >= 0, f"{m}: negative IQR"
    assert new["phases"]["tlm"] and new["phases"]["rtl"], "missing phase tables"

    # Simulated behaviour is host-independent: same workload, same cycles.
    assert new["items"] == ref["items"], (
        f"items differ: fresh {new['items']} vs reference {ref['items']}"
    )
    assert set(new["models"]) == set(ref["models"]), (
        f"rows differ: fresh {sorted(new['models'])} vs reference "
        f"{sorted(ref['models'])}"
    )
    for m, row in new["models"].items():
        for key in ("cycles", "kernel_activity"):
            assert row[key] == ref["models"][m][key], (
                f"{m}: fresh run has {key} {row[key]}, reference "
                f"{ref['models'][m][key]}"
            )

    models = sorted(new["models"])
    if not models:
        print("no models in the artifacts")
        return 1

    ratios = {}
    for m in models:
        old_k = ref["models"][m]["kcycles_per_sec"]
        new_k = new["models"][m]["kcycles_per_sec"]
        if old_k <= 0:
            print(f"reference has non-positive throughput for {m}; skipping")
            continue
        ratios[m] = new_k / old_k

    med = statistics.median(ratios.values())
    floor = args.tolerance * med
    print(f"machine speed factor (median new/ref ratio): {med:.3f}")
    print(f"per-model floor: {floor:.3f}")

    failed = []
    for m in models:
        r = ratios.get(m)
        if r is None:
            continue
        verdict = "ok" if r >= floor else "REGRESSED"
        print(
            f"  {m:16s} ref {ref['models'][m]['kcycles_per_sec']:10.1f} "
            f"new {new['models'][m]['kcycles_per_sec']:10.1f} "
            f"(IQR {new['models'][m]['kcycles_per_sec_iqr']:8.1f}) "
            f"ratio {r:.3f}  {verdict}"
        )
        if r < floor:
            failed.append(m)

    if failed:
        print(
            f"FAIL: {', '.join(failed)} regressed >"
            f"{(1 - args.tolerance) * 100:.0f}% relative to the fleet"
        )
        return 1
    print("PASS: no model regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
