// Quickstart: build a 4-master AHB+ platform, run the transaction-level
// model, and print the profiling report the paper's §3.6 describes
// (utilization, contention, throughput, per-master latencies).
//
//   $ ./quickstart
//
// Everything goes through the public core API: describe the platform in a
// PlatformConfig, call run_tlm(), read the SimResult.

#include <iostream>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "stats/report.hpp"

int main() {
  using namespace ahbp;

  // A platform: DDR-266 behind the AHB+ bus, four masters.
  core::PlatformConfig cfg = core::default_platform(/*masters=*/4,
                                                    /*seed=*/42,
                                                    /*items_per_master=*/400);

  // Customize the masters: one real-time video stream, one DMA engine,
  // two CPU-like cores (see traffic::PatternKind for the archetypes).
  cfg.masters[0].qos = {ahb::MasterClass::kRealTime, /*objective=*/48};
  cfg.masters[0].traffic.kind = traffic::PatternKind::kRtStream;
  cfg.masters[0].traffic.period = 40;
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.masters[1].traffic.dma_burst_beats = 16;
  cfg.masters[2].traffic.kind = traffic::PatternKind::kCpu;
  cfg.masters[3].traffic.kind = traffic::PatternKind::kCpu;

  // AHB+ knobs (§3.7): all seven filters, 4-deep write buffer and BI bank
  // hints — the defaults; shown for discoverability.
  cfg.bus.filter_mask = ahb::kAllFilters;
  cfg.bus.write_buffer_depth = 4;
  cfg.bus.bi_hints_enabled = true;

  std::cout << "running the AHB+ TLM...\n\n";
  const core::SimResult result = core::run_tlm(cfg);

  if (!result.finished) {
    std::cerr << "workload did not drain within " << cfg.max_cycles
              << " cycles\n";
    return 1;
  }

  stats::print_report(std::cout, result.profile, "quickstart platform");

  std::cout << "\nsimulation speed: "
            << stats::fmt_double(core::kcycles_per_sec(result), 1)
            << " Kcycles/s\n";
  std::cout << "protocol checkers: " << result.protocol_errors << " errors, "
            << result.qos_warnings << " QoS warnings\n";
  if (result.qos_warnings > 0) {
    std::cout << result.first_violations;
  }
  return 0;
}
