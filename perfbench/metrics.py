"""Turn the raw facts printed by ahbp_perf into checked metrics.

ahbp_perf measures; this module decides.  It holds the estimators (the
fastest of several identical passes or of their identical pieces, taken
over fixed-size windows of passes; quartiles, percentiles), the
correctness checks
(every model run drained with zero protocol errors, identical simulated
results across the passes of one run, the accuracy figure equal to
core::compare_suite) and the metric names with their units.
"""

import math
import re
import statistics

WORKLOADS = ("tlm-table1", "rtl-accuracy", "sweep-warmfork")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Passes per estimate (kMinPasses in ahbp_perf.cpp).  A faster program fits
# more passes into a run; a fixed window keeps the number of samples behind
# each fastest-of estimate, and so its bias, independent of that.
WINDOW = 6

# name -> unit.  Every run with --trace 0 reports exactly these.
END_TO_END = {
    "sim_kcycles_per_s": "kcycles/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cycle_error_pct": "%",
}

# Spans recorded around public library calls in the traced passes.
SPANS = (
    "pass",
    "mix",
    "scenario.parse",
    "core.expand_stimulus",
    "core.construct",
    "platform.run",
    "core.write_stats_json",
    "sweep.parse_spec",
    "sweep.warm_snapshots",
    "sweep.points",
    "sweep.simulate_point",
    "sweep.write_point_csv",
    "state.save",
    "state.restore",
)

# name -> unit.  Every run with --trace 1 reports exactly these.  Layers a
# workload does not exercise come from the traced run's companions.
PER_LAYER = {
    "scenario.parse_ms": "ms",
    "traffic.expand_ms": "ms",
    "traffic.txns": "count",
    "core.construct_self_ms": "ms",
    "tlm.sim_s": "s",
    "tlm.evals": "count",
    "tlm.ns_per_eval": "ns",
    "tlm.bus_ms": "ms",
    "tlm.masters_ms": "ms",
    "assertions.overhead_pct": "%",
    "rtl.sim_s": "s",
    "rtl.deltas": "count",
    "rtl.ns_per_delta": "ns",
    "rtl.arbiter_ms": "ms",
    "rtl.ddrc_ms": "ms",
    "rtl.rt_detail_ms": "ms",
    "rtl.masters_ms": "ms",
    "rtl.pin_blast_ms": "ms",
    "state.save_ms": "ms",
    "state.restore_ms": "ms",
    "state.snapshot_kb": "KiB",
    "sweep.warm_ms": "ms",
    "sweep.point_ms_p50": "ms",
    "sweep.point_ms_p90": "ms",
    "sweep.demoted": "count",
    "core.report_ms": "ms",
    "sim.cycles": "cycles",
    "bus.utilization": "ratio",
    "bus.handovers": "count",
    "stall.arb_wait": "cycles",
    "stall.bus_busy": "cycles",
    "stall.ddr_busy": "cycles",
    "stall.wbuf_full": "cycles",
    "wbuf.full_stalls": "cycles",
    "wbuf.occupancy_avg": "entries",
    "ddr.row_hit_rate": "ratio",
    "ddr.commands": "count",
    "probe.arbitrate_ns": "ns",
    "probe.ddrc_step_ns": "ns",
    "probe.can_issue_ns": "ns",
    "trace.overhead_pct": "%",
    "host.calib_ms": "ms",
}
for _span in SPANS:
    PER_LAYER["span." + _span + ".incl_ms"] = "ms"
    PER_LAYER["span." + _span + ".self_ms"] = "ms"


# ------------------------------------------------------------ estimators --

def fastest(values):
    """Fastest of several identical passes.  Host noise only ever adds
    time, so the minimum is the steadiest estimate of the work itself."""
    if not values:
        raise ValueError("fastest() of no values")
    return min(values)


def windowed(passes, estimate):
    """Median of `estimate` over every run of WINDOW consecutive passes
    (all of them, if there are fewer)."""
    n = max(1, len(passes) - WINDOW + 1)
    return statistics.median(estimate(passes[i:i + WINDOW])
                             for i in range(n))


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# ------------------------------------------------------------ correctness --

def _run_key(run):
    return (run["cycles"], run["ran_cycles"], run["completed"])


def _run_problem(run):
    if run["error"]:
        return "threw: " + run["error"]
    if not run["finished"]:
        return "did not drain"
    if run["protocol_errors"]:
        return "%d protocol errors" % run["protocol_errors"]
    return None


def check(raw):
    """Correctness verdict over one ahbp_perf result.

    Returns (attempted, failed, problems).  Every model run is one
    operation; a run that did not drain, saw a protocol error or threw is
    failed, and so is every run whose simulated result differs from the
    same run in another pass of this invocation.  The traced run's
    profiled and companion passes run other sizes or models, so their runs
    are checked on their own.
    """
    passes = list(raw["passes"])
    trace = raw.get("trace")
    companions = []
    if trace:
        passes += trace["traced_passes"] + trace["checkers_off_passes"]
        companions = trace["companion_passes"]
    problems = []
    attempted = 0
    bad = set()
    first = {}
    for n, p in enumerate(passes):
        for run in p["runs"]:
            attempted += 1
            rid = run["id"]
            what = _run_problem(run)
            if what is None and rid in first and first[rid] != _run_key(run):
                what = "simulated result differs between passes"
            first.setdefault(rid, _run_key(run))
            if what:
                bad.add((n, rid))
                problems.append("pass %d %s: %s" % (n, rid, what))
        if p["csv_hash"] != passes[0]["csv_hash"]:
            problems.append("pass %d: per-point CSV differs" % n)
            bad.add((n, "csv"))
    for n, p in enumerate(companions):
        for run in p["runs"]:
            attempted += 1
            what = _run_problem(run)
            if what:
                bad.add(("companion", n, run["id"]))
                problems.append("companion %d %s: %s" % (n, run["id"], what))

    rows = raw["accuracy"]["rows"]
    for row in rows:
        attempted += 1
        if not row["both_finished"] or row["protocol_errors"]:
            bad.add(("accuracy", row["name"]))
            problems.append("compare_suite %s: not clean" % row["name"])
    if raw["workload"] == "rtl-accuracy":
        for row in rows:
            for model in ("tlm", "rtl"):
                got = first.get(row["name"] + "/" + model)
                want = row[model + "_cycles"]
                if got is None or got[0] != want:
                    bad.add(("accuracy", row["name"] + "/" + model))
                    problems.append(
                        "%s/%s: %s cycles in the passes, %d in compare_suite"
                        % (row["name"], model, got and got[0], want))
    return attempted, len(bad), problems


# --------------------------------------------------------------- metrics --

def _sim_ns(p):
    return p["tlm_sim_ns"] + p["rtl_sim_ns"]


def fastest_pieces(passes, model=""):
    """Simulate time of one pass with every identical piece of work at its
    fastest: the sum, over the timed Platform::run chunks of every table
    run (or every whole sweep point), of that piece's fastest time across
    the passes.  The host's slow spells last from milliseconds to seconds,
    so a piece of a few milliseconds is far likelier than a whole pass to
    have run once undisturbed.  `model` keeps only that model's runs.
    Callers pass a window of WINDOW passes (see windowed)."""
    best = {}
    for p in passes:
        for run in p["runs"]:
            if model and not run["id"].endswith("/" + model):
                continue
            for j, ns in enumerate(run["chunk_ns"] or [run["sim_ns"]]):
                key = (run["id"], j)
                best[key] = min(best.get(key, ns), ns)
    return sum(best.values())


def wall_ns(workload, passes):
    """One full pass.  A table pass runs its pieces one after another, so it
    is the fastest pieces plus the fastest remainder (parse, construct,
    report) of any pass.  A sweep's points run on parallel threads and do
    not add up to its wall time: there it is the fastest whole pass."""
    if workload == "sweep-warmfork":
        return fastest([p["wall_ns"] for p in passes])
    return fastest_pieces(passes) + \
        fastest([p["wall_ns"] - _sim_ns(p) for p in passes])


def end_to_end(raw):
    passes = raw["passes"]
    cycles = passes[0]["tlm_cycles"] + passes[0]["rtl_cycles"]
    sim_s = windowed(passes, fastest_pieces) / 1e9
    return {
        "sim_kcycles_per_s": cycles / sim_s / 1e3 if sim_s else 0.0,
        "wall_s": windowed(
            passes, lambda w: wall_ns(raw["workload"], w)) / 1e9,
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        # core::compare_suite's own average, printed with all its digits.
        "cycle_error_pct":
            100.0 * float(raw["accuracy"]["average_error"]),
    }


def _percentile(values, q):
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def per_layer(raw):
    t = raw["trace"]
    passes = raw["passes"]
    spans = {s["name"]: s for s in t["spans"]}
    prof = {ph["name"]: ph["ns"] / 1e6 for ph in t["profile"]}

    def incl_ms(name):
        return spans[name]["incl_ns"] / 1e6 if name in spans else 0.0

    def mean_ms(name):
        s = spans.get(name)
        return s["incl_ns"] / s["count"] / 1e6 if s else 0.0

    def prof_sum(pred):
        return sum(ms for name, ms in prof.items() if pred(name))

    def probe_ns(name):
        pr = t["probes"][name]
        return pr["best_ns"] / pr["calls"]

    def sim_s(model):
        """The workload's own simulate time for `model`, or the companions'
        for a model the workload does not run."""
        def pieces(w):
            return fastest_pieces(w, model)
        return (windowed(passes, pieces) or
                windowed(t["companion_passes"], pieces)) / 1e9

    def activity(key):
        return passes[0][key] or sum(p[key] for p in t["companion_passes"])

    # The profile reports the stimulus expansion inside the constructors
    # that profiled_construct_ns timed.
    construct_self_ms = t["profiled_construct_ns"] / 1e6 - \
        prof.get("platform.expand-stimulus", 0.0)
    tlm_s = sim_s("tlm")
    rtl_s = sim_s("rtl")
    evals = activity("tlm_evals")
    deltas = activity("rtl_deltas")
    plain_sim = windowed(passes, fastest_pieces)
    off_sim = windowed(t["checkers_off_passes"], fastest_pieces)

    def wall(w):
        return wall_ns(raw["workload"], w)
    plain_wall = windowed(passes, wall)
    traced_wall = windowed(t["traced_passes"], wall)
    c = raw["counters"]
    point_ms = [d / 1e6 for d in
                spans.get("sweep.simulate_point", {}).get("each_ns", [])]

    m = {
        "scenario.parse_ms": incl_ms("scenario.parse") +
                             incl_ms("sweep.parse_spec"),
        "traffic.expand_ms": incl_ms("core.expand_stimulus"),
        "traffic.txns": t["txns"],
        "core.construct_self_ms": construct_self_ms,
        "tlm.sim_s": tlm_s,
        "tlm.evals": evals,
        "tlm.ns_per_eval": tlm_s * 1e9 / evals if evals else 0.0,
        "tlm.bus_ms": prof.get("tlm.ahb+bus", 0.0),
        "tlm.masters_ms": prof_sum(lambda n: n.startswith("tlm.tlm-master")),
        "assertions.overhead_pct":
            100.0 * (plain_sim / off_sim - 1.0) if off_sim else 0.0,
        "rtl.sim_s": rtl_s,
        "rtl.deltas": deltas,
        "rtl.ns_per_delta": rtl_s * 1e9 / deltas if deltas else 0.0,
        "rtl.arbiter_ms": prof.get("rtl.rtl-arbiter", 0.0),
        "rtl.ddrc_ms": prof.get("rtl.rtl-ddrc", 0.0),
        "rtl.rt_detail_ms": prof.get("rtl.rt-detail", 0.0),
        "rtl.masters_ms": prof_sum(lambda n: n.startswith("rtl.rtl-master")),
        "rtl.pin_blast_ms": prof_sum(
            lambda n: n.startswith("rtl.pin.") and n.endswith(".blast")),
        "state.save_ms": mean_ms("state.save"),
        "state.restore_ms": mean_ms("state.restore"),
        "state.snapshot_kb": t["snapshot_bytes"] / 1024.0,
        "sweep.warm_ms": incl_ms("sweep.warm_snapshots"),
        "sweep.point_ms_p50": _percentile(point_ms, 50),
        "sweep.point_ms_p90": _percentile(point_ms, 90),
        "sweep.demoted": sum(r["demoted"] for r in passes[0]["runs"]),
        "core.report_ms": windowed(passes, lambda w: fastest(
            [p["report_ns"] for p in w])) / 1e6,
        "sim.cycles": c["ran_cycles"],
        "bus.utilization":
            c["bus_busy"] / c["bus_cycles"] if c["bus_cycles"] else 0.0,
        "bus.handovers": c["handovers"],
        "stall.arb_wait": c["stall_arb_wait"],
        "stall.bus_busy": c["stall_bus_busy"],
        "stall.ddr_busy": c["stall_ddr_busy"],
        "stall.wbuf_full": c["stall_wbuf_full"],
        "wbuf.full_stalls": c["wbuf_full_stalls"],
        "wbuf.occupancy_avg": c["wbuf_occ_sum"] / c["wbuf_occ_count"]
                              if c["wbuf_occ_count"] else 0.0,
        "ddr.row_hit_rate":
            c["row_hits"] / c["row_lookups"] if c["row_lookups"] else 0.0,
        "ddr.commands": c["ddr_commands"],
        "probe.arbitrate_ns": probe_ns("arbitrate"),
        "probe.ddrc_step_ns": probe_ns("ddrc_step"),
        "probe.can_issue_ns": probe_ns("can_issue"),
        "trace.overhead_pct":
            100.0 * (traced_wall / plain_wall - 1.0),
        "host.calib_ms": fastest(raw["calib_ns"]) / 1e6,
    }
    for name in SPANS:
        s = spans.get(name)
        m["span." + name + ".incl_ms"] = s["incl_ns"] / 1e6 if s else 0.0
        m["span." + name + ".self_ms"] = s["self_ns"] / 1e6 if s else 0.0
    return m


def result(raw, trace):
    """The benchmark's final JSON object for one run."""
    attempted, failed, problems = check(raw)
    values = per_layer(raw) if trace else end_to_end(raw)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }, problems
