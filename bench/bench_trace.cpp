// Trace replay throughput: what does swapping synthetic expansion for
// recorded-trace parsing cost on the stimulus path?
//
// The capture→replay loop turns a synthetic Table-1 preset into per-master
// trace files and feeds them back through `pattern = trace`.  This bench
// pins the stages against each other — synthetic expansion, save_trace
// serialization, load_trace parsing — in transactions/sec, and
// cross-checks that a full TLM replay reproduces the synthetic run's cycle
// count exactly (the equivalence the closed-loop tests gate).  Writes
// BENCH_TRACE.json so the stimulus-path trajectory is tracked.
//
// Usage: bench_trace [items-per-master] [repeats]

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_args.hpp"
#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "obs/json.hpp"
#include "scenario/registry.hpp"
#include "stats/report.hpp"
#include "traffic/stimulus.hpp"
#include "traffic/trace.hpp"

constexpr char kUsage[] = "bench_trace [items-per-master] [repeats]";

int main(int argc, char** argv) {
  using namespace ahbp;
  using Clock = std::chrono::steady_clock;
  const unsigned items = bench::count_arg(argc, argv, 1, 2000, kUsage);
  const unsigned repeats = bench::count_arg(argc, argv, 2, 5, kUsage);

  const core::PlatformConfig cfg =
      scenario::ScenarioRegistry::builtin().build("table1/rt-1", items, 7);
  const std::size_t total_txns = [&] {
    std::size_t n = 0;
    for (const auto& s : core::expand_stimulus(cfg)) {
      n += s.size();
    }
    return n;
  }();

  const auto best_of = [&](auto&& fn) {
    double best = 1e300;
    for (unsigned r = 0; r < repeats; ++r) {
      const auto t0 = Clock::now();
      fn();
      const auto t1 = Clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };

  // --- stage 1: synthetic expansion (the baseline stimulus path) ---
  const double synth_s = best_of([&] { core::expand_stimulus(cfg); });

  // --- stage 2: capture serialization (save_trace) ---
  const auto scripts = core::expand_stimulus(cfg);
  std::vector<std::string> texts(scripts.size());
  const double save_s = best_of([&] {
    for (std::size_t m = 0; m < scripts.size(); ++m) {
      std::ostringstream os;
      traffic::save_trace(os, scripts[m]);
      texts[m] = os.str();
    }
  });

  // --- stage 3: replay expansion (load_trace from resolved text) ---
  core::PlatformConfig replay = cfg;
  for (std::size_t m = 0; m < replay.masters.size(); ++m) {
    auto& spec = replay.masters[m].traffic;
    spec.source = traffic::StimulusSource::kTrace;
    spec.trace_text = texts[m];
  }
  const double load_s = best_of([&] { core::expand_stimulus(replay); });

  std::uint64_t trace_bytes = 0;
  for (const std::string& t : texts) {
    trace_bytes += t.size();
  }

  // --- cross-check: replay runs must land on the synthetic cycle count ---
  // (equality of outcome, not completion: a million-transaction workload
  // legitimately hits the cycle cap — the replay must hit it identically)
  const core::SimResult synth_run = core::run_tlm(cfg);
  const core::SimResult replay_run = core::run_tlm(replay);
  if (synth_run.finished != replay_run.finished ||
      synth_run.cycles != replay_run.cycles ||
      synth_run.completed != replay_run.completed) {
    std::cerr << "replay diverged: synthetic " << synth_run.cycles
              << " cycles / " << synth_run.completed << " txns vs replay "
              << replay_run.cycles << " / " << replay_run.completed << "\n";
    return 1;
  }

  const double txns = static_cast<double>(total_txns);
  std::cout << "=== Trace replay vs synthetic expansion: " << total_txns
            << " txns over " << cfg.masters.size() << " masters, best of "
            << repeats << " ===\n\n";
  stats::TextTable table({"stage", "wall ms", "txns/sec"});
  const auto row = [&](const char* stage, double s) {
    table.add_row({stage, stats::fmt_double(s * 1e3, 3),
                   stats::fmt_double(txns / s, 0)});
  };
  row("synthetic expansion", synth_s);
  row("save_trace", save_s);
  row("load_trace (replay)", load_s);
  table.print(std::cout);
  std::cout << "\ntrace size: text " << trace_bytes << " bytes ("
            << stats::fmt_double(static_cast<double>(trace_bytes) / txns, 1)
            << " bytes/txn); replay == synthetic at " << synth_run.cycles
            << " cycles\n";

  std::ofstream json("BENCH_TRACE.json");
  if (json) {
    obs::JsonWriter j(json);
    j.begin_object()
        .member("bench", "trace_replay")
        .member("items_per_master", items)
        .member("total_txns", static_cast<std::uint64_t>(total_txns))
        .member("trace_bytes", trace_bytes)
        .member("synthetic_expand_txns_per_sec", txns / synth_s)
        .member("save_trace_txns_per_sec", txns / save_s)
        .member("load_trace_txns_per_sec", txns / load_s)
        .member("replay_vs_synthetic_expand", synth_s / load_s)
        .member("replay_cycles_equal", true)
        .end_object();
    json << '\n';
    std::cout << "wrote BENCH_TRACE.json\n";
  }
  return 0;
}
