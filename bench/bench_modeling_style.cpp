// Reproduces the paper's §4 modeling-style claim:
//
//   "To increase simulation speed, we used method-based modeling method
//    rather than thread-based method."
//
// The same platform runs twice: once with method-based masters (TlmMaster —
// one evaluate() call per cycle) and once with thread-based masters
// (ThreadedMaster — each master is a blocking sequential program on its own
// thread, two context switches per master per cycle, the SC_THREAD cost
// model).  Results are cycle-identical; only wall-clock differs.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "sim/cycle_kernel.hpp"
#include "stats/report.hpp"
#include "tlm/bus.hpp"
#include "tlm/ddrc.hpp"
#include "tlm/threaded_master.hpp"

namespace {

struct RunOut {
  ahbp::sim::Cycle cycles = 0;
  std::uint64_t completed = 0;
  double wall = 0.0;
};

/// Method-based masters: the library's own platform assembly.
RunOut run_method(const ahbp::core::PlatformConfig& cfg) {
  const ahbp::core::SimResult r = ahbp::core::run_tlm(cfg);
  return {r.ran_cycles, r.completed, r.wall_seconds};
}

/// Thread-based masters.  Platform builds method-based masters only, so
/// this row wires its own kernel, bus and masters from the same config.
RunOut run_threaded(const ahbp::core::PlatformConfig& cfg) {
  using namespace ahbp;
  sim::CycleKernel kernel;
  ahb::QosRegisterFile qos(static_cast<unsigned>(cfg.masters.size()));
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  tlm::TlmDdrc ddrc(core::ddr_channel_configs(cfg), cfg.interleave,
                    cfg.ddr_base);
  tlm::AhbPlusBus bus(cfg.bus, qos, ddrc,
                      static_cast<unsigned>(cfg.masters.size()), nullptr);
  kernel.add(bus);
  auto scripts = core::expand_stimulus(cfg);
  std::vector<std::unique_ptr<tlm::ThreadedMaster>> masters;
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    masters.push_back(std::make_unique<tlm::ThreadedMaster>(
        static_cast<ahb::MasterId>(m), bus, std::move(scripts[m])));
    kernel.add(*masters.back());
  }
  const auto t0 = std::chrono::steady_clock::now();
  kernel.run_until(
      [&] {
        for (const auto& m : masters) {
          if (!m->finished()) {
            return false;
          }
        }
        return bus.quiescent();
      },
      cfg.max_cycles);
  const auto t1 = std::chrono::steady_clock::now();
  RunOut out;
  out.cycles = kernel.now();
  for (const auto& m : masters) {
    out.completed += m->completed();
  }
  out.wall = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahbp;
  const unsigned items =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 800;

  std::cout << "=== Modeling style: method-based vs thread-based masters"
               " (paper §4) ===\n    cpu-1 mix, "
            << items << " txns/master, 4 masters\n\n";

  auto cfg = core::table1_workloads(items, 3)[0].config;
  cfg.enable_checkers = false;
  cfg.max_cycles = 10'000'000;

  const RunOut method = run_method(cfg);
  const RunOut threaded = run_threaded(cfg);

  stats::TextTable t({"masters", "cycles", "txns", "wall s", "Kcycles/s"});
  t.add_row({"method-based (evaluate())", std::to_string(method.cycles),
             std::to_string(method.completed),
             stats::fmt_double(method.wall, 3),
             stats::fmt_double(
                 static_cast<double>(method.cycles) / method.wall / 1000.0, 1)});
  t.add_row({"thread-based (blocking)", std::to_string(threaded.cycles),
             std::to_string(threaded.completed),
             stats::fmt_double(threaded.wall, 3),
             stats::fmt_double(
                 static_cast<double>(threaded.cycles) / threaded.wall / 1000.0,
                 1)});
  t.print(std::cout);

  const bool identical = method.cycles == threaded.cycles &&
                         method.completed == threaded.completed;
  const double slowdown = threaded.wall / method.wall;
  std::cout << "\nresults cycle-identical: " << (identical ? "yes" : "NO")
            << "\nthread-based slowdown  : " << stats::fmt_double(slowdown, 1)
            << "x (context-switch cost per master per cycle)\n";
  const bool ok = identical && slowdown > 1.5;
  std::cout << "\nRESULT: " << (ok ? "OK" : "FAIL")
            << " (same behaviour, method-based faster)\n";
  return ok ? 0 : 1;
}
