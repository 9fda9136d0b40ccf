// Checkpoint economics: what a snapshot costs (bytes, save/restore
// latency, both models) and what fork-from-warm-up buys (wall-clock
// speedup of a 16-point sweep that shares a warmed-up prefix vs. re-cold-
// starting every point).  Writes BENCH_CHECKPOINT.json so the trajectory
// can be tracked across PRs.
//
// The forked sweep is also *verified* against the cold sweep point by
// point — a speedup that changed the answers would be a bug, and the bench
// exits non-zero.
//
// Usage: bench_checkpoint [items-per-master] [repeats]

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/checkpoint.hpp"
#include "obs/json.hpp"
#include "scenario/registry.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SnapshotCost {
  std::size_t bytes = 0;
  double save_ms = 0;
  double restore_ms = 0;
};

SnapshotCost measure_snapshot(const ahbp::core::PlatformConfig& cfg,
                              ahbp::core::ModelKind model,
                              ahbp::sim::Cycle warmup, unsigned repeats) {
  using namespace ahbp;
  SnapshotCost cost;
  core::Platform warm(cfg, model);
  warm.run(warmup);

  std::vector<std::uint8_t> bytes;
  cost.save_ms = 1e300;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    state::StateWriter w;
    warm.save_state(w);
    bytes = w.finish();
    cost.save_ms = std::min(cost.save_ms, seconds_since(t0) * 1e3);
  }
  cost.bytes = bytes.size();

  cost.restore_ms = 1e300;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    core::Platform fork(cfg, model);
    state::StateReader r(bytes.data(), bytes.size());
    fork.restore_state(r);
    cost.restore_ms = std::min(cost.restore_ms, seconds_since(t0) * 1e3);
  }
  return cost;
}

}  // namespace

constexpr char kUsage[] = "bench_checkpoint [items-per-master] [repeats]";

int main(int argc, char** argv) {
  using namespace ahbp;
  const unsigned items = bench::count_arg(argc, argv, 1, 400, kUsage);
  const unsigned repeats = bench::count_arg(argc, argv, 2, 3, kUsage);

  // Warm-up-dominated exploration batch: the rt-1 mix, 16 points extending
  // the rt stream's and the random mix's transaction counts — axes that
  // leave the shared prefix invariant, so the fork is exact.
  sweep::SweepSpec spec;
  spec.base = "table1/rt-1";
  spec.base_config =
      scenario::ScenarioRegistry::builtin().build("table1/rt-1", items, 7);
  const auto pct = [items](unsigned p) {
    return std::to_string(items + items * p / 100);
  };
  spec.axes.push_back(
      {"master0.items", {pct(0), pct(12), pct(25), pct(50)}});
  spec.axes.push_back(
      {"master3.items", {pct(0), pct(12), pct(25), pct(50)}});
  const auto points = sweep::expand(spec);

  // Size the warm-up from the base run: half the cold run is warm-up — by
  // then the banks/buffers/arbiter have long left their cold transient —
  // while the swept 60-items-per-48-cycle rt stream is still issuing.
  const core::SimResult base_run = core::run_tlm(spec.base_config);
  if (!base_run.finished) {
    std::cerr << "base scenario timed out\n";
    return 1;
  }
  const sim::Cycle warmup = base_run.ran_cycles / 2;

  std::cout << "=== Checkpoint: table1/rt-1, " << items
            << " txns/master, warm-up " << warmup << " of "
            << base_run.ran_cycles << " cycles, best of " << repeats
            << " ===\n\n";

  // --- snapshot cost, both models ---
  const SnapshotCost tlm_cost = measure_snapshot(
      spec.base_config, core::ModelKind::kTlm, warmup, repeats);
  const SnapshotCost rtl_cost = measure_snapshot(
      spec.base_config, core::ModelKind::kRtl, warmup, repeats);

  stats::TextTable cost_table(
      {"model", "snapshot bytes", "save ms", "restore ms"});
  cost_table.add_row({"tlm", std::to_string(tlm_cost.bytes),
                      stats::fmt_double(tlm_cost.save_ms, 3),
                      stats::fmt_double(tlm_cost.restore_ms, 3)});
  cost_table.add_row({"rtl", std::to_string(rtl_cost.bytes),
                      stats::fmt_double(rtl_cost.save_ms, 3),
                      stats::fmt_double(rtl_cost.restore_ms, 3)});
  cost_table.print(std::cout);

  // --- 16-point sweep: cold vs forked (single worker: pure wall ratio) ---
  const sweep::SweepRunner runner(1);
  double cold_s = 1e300, forked_s = 1e300;
  std::vector<sweep::PointOutcome> cold, forked;
  for (unsigned rep = 0; rep < repeats; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    cold = runner.run(points, sweep::Model::kTlm);
    cold_s = std::min(cold_s, seconds_since(t0));

    t0 = std::chrono::steady_clock::now();
    forked =
        runner.run(points, sweep::Model::kTlm, spec.base_config, warmup);
    forked_s = std::min(forked_s, seconds_since(t0));
  }

  // The speedup must not change the answers.
  for (std::size_t i = 0; i < cold.size(); ++i) {
    if (!cold[i].error.empty() || !forked[i].error.empty() ||
        cold[i].tlm.cycles != forked[i].tlm.cycles ||
        cold[i].tlm.completed != forked[i].tlm.completed ||
        cold[i].tlm.qos_warnings != forked[i].tlm.qos_warnings) {
      std::cerr << "point " << i << " (" << cold[i].label
                << "): forked sweep diverged from cold sweep\n"
                << "  cold:   " << cold[i].tlm.cycles << " cycles, err '"
                << cold[i].error << "'\n"
                << "  forked: " << forked[i].tlm.cycles << " cycles, err '"
                << forked[i].error << "'\n";
      return 1;
    }
  }

  const double speedup = cold_s / forked_s;
  std::cout << "\n16-point sweep, cold:   "
            << stats::fmt_double(cold_s, 3) << " s\n";
  std::cout << "16-point sweep, forked: " << stats::fmt_double(forked_s, 3)
            << " s  (" << stats::fmt_double(speedup, 2)
            << "x, answers verified identical)\n";

  std::ofstream json("BENCH_CHECKPOINT.json");
  if (json) {
    obs::JsonWriter j(json);
    j.begin_object()
        .member("bench", "checkpoint")
        .member("items_per_master", items)
        .member("warmup_cycles", static_cast<std::uint64_t>(warmup))
        .member("base_cycles", static_cast<std::uint64_t>(base_run.ran_cycles))
        .key("snapshot")
        .begin_object()
        .member("tlm_bytes", static_cast<std::uint64_t>(tlm_cost.bytes))
        .member("tlm_save_ms", tlm_cost.save_ms)
        .member("tlm_restore_ms", tlm_cost.restore_ms)
        .member("rtl_bytes", static_cast<std::uint64_t>(rtl_cost.bytes))
        .member("rtl_save_ms", rtl_cost.save_ms)
        .member("rtl_restore_ms", rtl_cost.restore_ms)
        .end_object()
        .key("sweep")
        .begin_object()
        .member("points", static_cast<std::uint64_t>(points.size()))
        .member("model", "tlm")
        .member("cold_seconds", cold_s)
        .member("forked_seconds", forked_s)
        .member("speedup", speedup)
        .end_object()
        .end_object();
    json << '\n';
    std::cout << "wrote BENCH_CHECKPOINT.json\n";
  }
  return 0;
}
