// Side-by-side model comparison on one workload — the per-row view behind
// Table 1.  Runs the same stimulus through the TLM and the signal-level
// reference, prints cycle counts, the error, simulation speeds and a
// profile diff, and cross-checks the work-conservation invariants.
//
//   $ ./model_compare            # default: the dma-2 Table-1 row
//   $ ./model_compare rt-1 300   # any Table-1 row name + txns/master

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/compare.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "stats/report.hpp"

int main(int argc, char** argv) {
  using namespace ahbp;
  const std::string row = argc > 1 ? argv[1] : "dma-2";
  const unsigned items =
      argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 200;

  core::PlatformConfig cfg;
  bool found = false;
  for (const auto& w : core::table1_workloads(items, 11)) {
    if (w.name == row) {
      cfg = w.config;
      found = true;
      break;
    }
  }
  if (!found) {
    std::cerr << "unknown workload '" << row << "' — use one of:";
    for (const auto& w : core::table1_workloads(10)) {
      std::cerr << ' ' << w.name;
    }
    std::cerr << '\n';
    return 1;
  }

  std::cout << "workload " << row << " (" << items
            << " txns/master, 4 masters)\n\n";
  const core::SimResult rtl = core::run_rtl(cfg);
  const core::SimResult tlm = core::run_tlm(cfg);

  const double err = core::cycle_error(tlm, rtl);

  stats::TextTable t({"metric", "signal-level", "TLM"});
  t.add_row({"cycles (last completion)", std::to_string(rtl.cycles),
             std::to_string(tlm.cycles)});
  t.add_row({"transactions", std::to_string(rtl.completed),
             std::to_string(tlm.completed)});
  t.add_row({"bus utilization", stats::fmt_percent(rtl.profile.bus.utilization()),
             stats::fmt_percent(tlm.profile.bus.utilization())});
  t.add_row({"bus contention", stats::fmt_percent(rtl.profile.bus.contention()),
             stats::fmt_percent(tlm.profile.bus.contention())});
  t.add_row({"throughput B/cyc",
             stats::fmt_double(rtl.profile.bus.throughput(), 3),
             stats::fmt_double(tlm.profile.bus.throughput(), 3)});
  t.add_row({"writes absorbed",
             std::to_string(rtl.profile.write_buffer.absorbed),
             std::to_string(tlm.profile.write_buffer.absorbed)});
  t.add_row({"DDR row-hit rate",
             stats::fmt_percent(rtl.profile.ddr.row_hit_rate()),
             stats::fmt_percent(tlm.profile.ddr.row_hit_rate())});
  t.add_row({"protocol errors", std::to_string(rtl.protocol_errors),
             std::to_string(tlm.protocol_errors)});
  t.add_row({"Kcycles/s", stats::fmt_double(core::kcycles_per_sec(rtl), 1),
             stats::fmt_double(core::kcycles_per_sec(tlm), 1)});
  t.print(std::cout);

  std::cout << "\ncycle difference : " << stats::fmt_percent(err)
            << "  (accuracy " << stats::fmt_percent(1.0 - err) << ")\n";
  std::cout << "speedup          : "
            << stats::fmt_double(core::kcycles_per_sec(tlm) /
                                     core::kcycles_per_sec(rtl),
                                 1)
            << "x\n";

  // Work conservation: identical stimulus must move identical bytes.
  bool conserved = rtl.completed == tlm.completed;
  for (std::size_t m = 0; m < rtl.profile.masters.size(); ++m) {
    conserved = conserved &&
                rtl.profile.masters[m].bytes_read ==
                    tlm.profile.masters[m].bytes_read &&
                rtl.profile.masters[m].bytes_written ==
                    tlm.profile.masters[m].bytes_written;
  }
  std::cout << "work conserved   : " << (conserved ? "yes" : "NO") << "\n";
  return conserved ? 0 : 1;
}
