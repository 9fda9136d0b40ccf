// Design-space exploration — the use case the paper's introduction builds
// toward: "the one of main challenges in the platform based design is how
// to exploit the optional architecture, which requires highly abstracted
// simulation models".  The fast TLM makes a full sweep over write-buffer
// depth x arbitration configuration interactive; the same sweep on the
// pin-accurate model would take orders of magnitude longer.

#include <chrono>
#include <iostream>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "stats/report.hpp"

int main() {
  using namespace ahbp;
  const auto t0 = std::chrono::steady_clock::now();

  stats::TextTable t({"wbuf depth", "bank filter", "BI hints", "cycles",
                      "util", "RT misses"});

  struct Best {
    sim::Cycle cycles = ~sim::Cycle{0};
    std::string name;
  } best;

  for (const unsigned depth : {0u, 2u, 4u, 8u}) {
    for (const bool bank : {false, true}) {
      for (const bool bi : {false, true}) {
        auto cfg = core::table1_workloads(200, 99)[8].config;  // rt-1 mix
        cfg.bus.write_buffer_depth = depth;
        cfg.bus.bi_hints_enabled = bi;
        cfg.bus.filter_mask = ahb::with_filter(
            ahb::kAllFilters, ahb::FilterBit::kBank, bank);
        const auto r = core::run_tlm(cfg);
        const std::string name = "depth=" + std::to_string(depth) +
                                 " bank=" + (bank ? "on" : "off") +
                                 " bi=" + (bi ? "on" : "off");
        if (r.cycles < best.cycles) {
          best = {r.cycles, name};
        }
        t.add_row({depth == 0 ? "off" : std::to_string(depth),
                   bank ? "on" : "off", bi ? "on" : "off",
                   std::to_string(r.cycles),
                   stats::fmt_percent(r.profile.bus.utilization()),
                   std::to_string(r.profile.masters[0].qos_misses)});
      }
    }
  }

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::cout << "16-point design-space sweep (rt-1 mix, 200 txns/master):\n\n";
  t.print(std::cout);
  std::cout << "\nfastest configuration: " << best.name << " ("
            << best.cycles << " cycles)\n";
  std::cout << "whole sweep took " << stats::fmt_double(secs, 2)
            << "s on the TLM — the interactivity the paper's introduction"
               " asks of\narchitecture models.\n";
  return 0;
}
