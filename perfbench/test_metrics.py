"""Tests for the benchmark's own code: estimators, metric names and the
correctness verdict.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import statistics
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


def make_run(rid, cycles=1000, chunk_ns=(20, 30), **kw):
    run = {"id": rid, "cycles": cycles, "ran_cycles": cycles + 1,
           "completed": 40, "finished": True, "protocol_errors": 0,
           "chunk_ns": list(chunk_ns), "error": "", "demoted": False}
    run.update(kw)
    return run


def make_pass(wall_ns, runs):
    """A pass whose simulate times are its runs' timed chunks."""
    for run in runs:
        run["sim_ns"] = sum(run["chunk_ns"])

    def sim(model):
        return sum(r["sim_ns"] for r in runs if r["id"].endswith(model))
    return {"wall_ns": wall_ns, "report_ns": 1000, "tlm_sim_ns": sim("/tlm"),
            "rtl_sim_ns": sim("/rtl"), "tlm_cycles": 3000,
            "rtl_cycles": 3000, "tlm_evals": 12000, "rtl_deltas": 9000,
            "report_bytes": 10, "csv_hash": 0, "runs": runs}


def make_raw(workload="rtl-accuracy", walls=(3000, 2000, 2500)):
    runs = [make_run("cpu-1/tlm", 1000), make_run("cpu-1/rtl", 1040),
            make_run("dma-1/tlm", 2000), make_run("dma-1/rtl", 1900)]
    return {
        "workload": workload,
        "seed": 11,
        "items": 10,
        "peak_rss_kb": 20480,
        "calib_ns": [12_000_000, 11_000_000, 13_000_000],
        "setup_ns": [250, 400, 300],
        "passes": [make_pass(w, copy.deepcopy(runs)) for w in walls],
        "counters": {"ran_cycles": 6000, "bus_cycles": 6000,
                     "bus_busy": 3000, "handovers": 7,
                     "stall_running": 1, "stall_arb_wait": 2,
                     "stall_bus_busy": 3, "stall_ddr_busy": 4,
                     "stall_wbuf_full": 5, "stall_think": 6,
                     "wbuf_full_stalls": 5, "wbuf_occ_sum": 30,
                     "wbuf_occ_count": 10, "row_hits": 3,
                     "row_lookups": 4, "ddr_commands": 99},
        "accuracy": {"items": 10, "average_error": "0.045301456", "rows": [
            {"name": "cpu-1", "tlm_cycles": 1000, "rtl_cycles": 1040,
             "both_finished": True, "protocol_errors": 0},
            {"name": "dma-1", "tlm_cycles": 2000, "rtl_cycles": 1900,
             "both_finished": True, "protocol_errors": 0}]},
    }


def add_trace(raw):
    runs = raw["passes"][0]["runs"]
    raw["trace"] = {
        "traced_passes": [make_pass(w + 2000, copy.deepcopy(runs))
                          for w in (3000, 2000)],
        "checkers_off_passes": [make_pass(
            1800, [make_run(r["id"], r["cycles"], (18, 27)) for r in runs])],
        "spans": [{"name": "scenario.parse", "count": 2, "incl_ns": 4000,
                   "self_ns": 4000, "each_ns": [2000, 2000]},
                  {"name": "sweep.simulate_point", "count": 4,
                   "incl_ns": 10_000_000, "self_ns": 10_000_000,
                   "each_ns": [1_000_000, 2_000_000, 3_000_000,
                               4_000_000]}],
        "profile": [{"name": "tlm.ahb+bus", "calls": 5, "ns": 2_000_000},
                    {"name": "tlm.tlm-master0", "calls": 5, "ns": 1_000_000},
                    {"name": "tlm.tlm-master1", "calls": 5, "ns": 1_000_000},
                    {"name": "rtl.pin.m0.blast", "calls": 1, "ns": 500_000},
                    {"name": "rtl.pin.m0.stepdec", "calls": 1, "ns": 9}],
        "companion_passes": [
            make_pass(9000, [make_run("cpu-1/rtl", 77, (100, 125))])],
        "profiled_construct_ns": 0,
        "snapshot_bytes": 2048,
        "txns": 80,
        "probes": {k: {"calls": 100, "best_ns": 1234}
                   for k in ("arbitrate", "ddrc_step", "can_issue")},
    }
    return raw


class Estimators(unittest.TestCase):
    def test_fastest_is_the_minimum(self):
        self.assertEqual(metrics.fastest([3.5, 1.25, 2.0]), 1.25)
        self.assertEqual(metrics.fastest([7]), 7)

    def test_fastest_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.fastest([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 12.0, 9.0, 11.5, 30.0, 10.5, 9.5, 11.0, 10.0, 12.5]
        self.assertEqual(metrics.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, med, q3 = metrics.quartiles(values)
        self.assertAlmostEqual(metrics.iqr_share(values), (q3 - q1) / med)

    def test_iqr_share_of_identical_values_is_zero(self):
        self.assertEqual(metrics.iqr_share([4.0] * 10), 0.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(10, 0, -1))
        self.assertEqual(metrics._percentile(values, 30), 3)
        self.assertEqual(metrics._percentile(values, 50), 5)
        self.assertEqual(metrics._percentile(values, 90), 9)
        self.assertEqual(metrics._percentile(values, 100), 10)
        self.assertEqual(metrics._percentile([], 50), 0.0)

    def test_sweep_wall_is_the_fastest_pass(self):
        e = metrics.end_to_end(make_raw(workload="sweep-warmfork"))
        self.assertAlmostEqual(e["wall_s"], 2000e-9)
        self.assertAlmostEqual(e["peak_rss_mb"], 20.0)

    def test_setup_is_the_median_of_the_repetitions(self):
        self.assertAlmostEqual(metrics.end_to_end(make_raw())["setup_s"],
                               300e-9)

    def test_fewer_passes_than_a_window_make_one_window(self):
        seen = []
        got = metrics.windowed([1, 2, 3], lambda w: seen.append(w) or 7)
        self.assertEqual((got, seen), (7, [[1, 2, 3]]))

    def test_every_estimate_sees_exactly_one_window_of_passes(self):
        passes = list(range(metrics.WINDOW + 3))
        seen = []
        metrics.windowed(passes, lambda w: seen.append(w) or 0)
        self.assertEqual(len(seen), 4)
        for start, w in enumerate(seen):
            self.assertEqual(w, passes[start:start + metrics.WINDOW])

    def test_more_passes_do_not_make_the_estimate_faster(self):
        # One lucky pass among many moves the median of the windows not
        # at all, where the fastest of all passes would take it.
        walls = [3000] * (3 * metrics.WINDOW) + [1000]
        e = metrics.end_to_end(make_raw(workload="sweep-warmfork",
                                        walls=walls))
        self.assertAlmostEqual(e["wall_s"], 3000e-9)

    def test_each_piece_counts_at_its_fastest(self):
        runs = [make_run("cpu-1/tlm", chunk_ns=(10, 30)),
                make_run("cpu-1/rtl")]
        other = [make_run("cpu-1/tlm", chunk_ns=(20, 12)),
                 make_run("cpu-1/rtl", chunk_ns=(25, 40))]
        passes = [make_pass(3000, runs), make_pass(2000, other)]
        # cpu-1/tlm at 10 + 12 ns, cpu-1/rtl at 20 + 30 ns.
        self.assertEqual(metrics.fastest_pieces(passes), 22 + 50)
        self.assertEqual(metrics.fastest_pieces(passes, "tlm"), 22)
        self.assertEqual(metrics.fastest_pieces(passes, "rtl"), 50)

    def test_table_rates_and_wall_take_each_piece_at_its_fastest(self):
        raw = make_raw(walls=(3000, 2000))
        first, second = raw["passes"]
        first["runs"][0]["chunk_ns"] = [10, 30]
        second["runs"][0]["chunk_ns"] = [20, 12]
        raw["passes"] = [make_pass(3000, first["runs"]),
                         make_pass(2000, second["runs"])]
        e = metrics.end_to_end(raw)
        # Run 0 at 10 + 12 ns, the other three runs at 20 + 30 ns each.
        self.assertAlmostEqual(e["sim_kcycles_per_s"],
                               6000 / 172e-9 / 1e3)
        # ... plus the fastest remainder: 2000 - 182 ns in the second pass.
        self.assertAlmostEqual(e["wall_s"], (172 + 1818) * 1e-9)

    def test_a_run_without_chunks_is_one_piece(self):
        raw = make_raw(workload="sweep-warmfork", walls=(300, 200))
        for n, p in enumerate(raw["passes"]):
            for run in p["runs"]:
                run["chunk_ns"] = []
                run["sim_ns"] = 40 + n
        self.assertEqual(metrics.fastest_pieces(raw["passes"]), 4 * 40)

    def test_cycle_error_is_compare_suites_average(self):
        e = metrics.end_to_end(make_raw())
        self.assertEqual(e["cycle_error_pct"], 100 * 0.045301456)


class Names(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(metrics.NAME_RE.match(name), name)

    def test_benchmark_json_lists_exactly_the_reported_metrics(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            bench = json.load(f)
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, metrics.END_TO_END)
        self.assertEqual(layer, metrics.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(metrics.WORKLOADS))

    def test_results_carry_exactly_the_declared_metrics(self):
        out, _ = metrics.result(make_raw(), trace=False)
        self.assertEqual(set(out["metrics"]), set(metrics.END_TO_END))
        out, _ = metrics.result(add_trace(make_raw()), trace=True)
        self.assertEqual(set(out["metrics"]), set(metrics.PER_LAYER))
        for m in out["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))


class Verdict(unittest.TestCase):
    def test_clean_result_is_correct(self):
        out, problems = metrics.result(make_raw(), trace=False)
        self.assertTrue(out["correct"], problems)
        self.assertEqual(out["failed"], 0)
        # 3 passes x 4 runs + 2 compare_suite rows.
        self.assertEqual(out["attempted"], 14)

    def test_protocol_errors_fail(self):
        raw = make_raw()
        raw["passes"][1]["runs"][2]["protocol_errors"] = 3
        out, problems = metrics.result(raw, trace=False)
        self.assertFalse(out["correct"])
        self.assertEqual(out["failed"], 1)
        self.assertIn("protocol errors", problems[0])

    def test_undrained_or_throwing_runs_fail(self):
        raw = make_raw()
        raw["passes"][0]["runs"][0]["finished"] = False
        raw["passes"][2]["runs"][1]["error"] = "boom"
        out, _ = metrics.result(raw, trace=False)
        self.assertEqual(out["failed"], 2)

    def test_cycles_that_differ_between_passes_fail(self):
        raw = make_raw()
        raw["passes"][2]["runs"][3]["cycles"] += 1
        out, problems = metrics.result(raw, trace=False)
        self.assertFalse(out["correct"])
        self.assertIn("differs between passes", problems[0])

    def test_traced_pass_must_match_the_plain_passes(self):
        raw = add_trace(make_raw())
        raw["trace"]["traced_passes"][1]["runs"][0]["ran_cycles"] += 5
        out, _ = metrics.result(raw, trace=True)
        self.assertFalse(out["correct"])

    def test_accuracy_must_equal_compare_suite(self):
        raw = make_raw()
        raw["accuracy"]["rows"][1]["rtl_cycles"] = 1901
        out, problems = metrics.result(raw, trace=False)
        self.assertFalse(out["correct"])
        self.assertIn("compare_suite", problems[0])

    def test_unclean_compare_suite_row_fails(self):
        raw = make_raw(workload="tlm-table1")
        raw["accuracy"]["rows"][0]["protocol_errors"] = 1
        out, _ = metrics.result(raw, trace=False)
        self.assertEqual(out["failed"], 1)

    def test_sweep_csv_must_be_identical(self):
        raw = make_raw(workload="sweep-warmfork")
        raw["passes"][1]["csv_hash"] = 42
        out, problems = metrics.result(raw, trace=False)
        self.assertFalse(out["correct"])
        self.assertIn("CSV", problems[0])

    def test_a_failure_is_not_reported_as_slowness(self):
        raw = make_raw()
        raw["passes"][0]["runs"][0]["protocol_errors"] = 1
        bad, _ = metrics.result(raw, trace=False)
        good, _ = metrics.result(make_raw(), trace=False)
        self.assertEqual(bad["metrics"], good["metrics"])
        self.assertEqual(bad["failed"], 1)


class Layers(unittest.TestCase):
    def test_per_layer_derivations(self):
        out, _ = metrics.result(add_trace(make_raw()), trace=True)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertAlmostEqual(m["tlm.bus_ms"], 2.0)
        self.assertAlmostEqual(m["tlm.masters_ms"], 2.0)
        self.assertAlmostEqual(m["rtl.pin_blast_ms"], 0.5)
        self.assertAlmostEqual(m["probe.can_issue_ns"], 12.34)
        self.assertAlmostEqual(m["host.calib_ms"], 11.0)
        self.assertAlmostEqual(m["state.snapshot_kb"], 2.0)
        self.assertEqual(m["sweep.point_ms_p50"], 2.0)
        self.assertEqual(m["sweep.point_ms_p90"], 4.0)
        # traced 4000 ns against the fastest plain 2000 ns.
        self.assertAlmostEqual(m["trace.overhead_pct"], 100.0)
        # plain sim 200 ns against 180 ns with checkers off.
        self.assertAlmostEqual(m["assertions.overhead_pct"],
                               100 * (200 / 180 - 1))
        self.assertAlmostEqual(m["span.scenario.parse.incl_ms"], 0.004)
        self.assertEqual(m["span.state.save.incl_ms"], 0.0)

    def test_a_model_the_workload_lacks_comes_from_the_companions(self):
        raw = make_raw(workload="tlm-table1")
        for p in raw["passes"]:
            p["runs"] = [r for r in p["runs"] if r["id"].endswith("/tlm")]
            p["rtl_sim_ns"] = 0
            p["rtl_deltas"] = 0
        add_trace(raw)
        out, _ = metrics.result(raw, trace=True)
        m = {k: v["value"] for k, v in out["metrics"].items()}
        self.assertAlmostEqual(m["rtl.sim_s"], 225e-9)
        self.assertEqual(m["rtl.deltas"], 9000)
        self.assertAlmostEqual(m["rtl.ns_per_delta"], 225 / 9000)
        self.assertAlmostEqual(m["tlm.sim_s"], 100e-9)

    def test_construct_self_time_excludes_its_stimulus_expansion(self):
        raw = add_trace(make_raw())
        raw["trace"]["profiled_construct_ns"] = 10_000_000
        raw["trace"]["profile"].append(
            {"name": "platform.expand-stimulus", "calls": 4,
             "ns": 6_000_000})
        out, _ = metrics.result(raw, trace=True)
        self.assertAlmostEqual(out["metrics"]["core.construct_self_ms"]
                               ["value"], 10.0 - 6.0)

    def test_a_failing_companion_run_fails_the_result(self):
        raw = add_trace(make_raw())
        raw["trace"]["companion_passes"][0]["runs"][0]["finished"] = False
        out, problems = metrics.result(raw, trace=True)
        self.assertEqual(out["failed"], 1)
        self.assertIn("companion", problems[0])


if __name__ == "__main__":
    unittest.main()
