// Signal-level debugging: the one place where the pin-accurate reference
// model beats the TLM.  Runs a short workload on the signal-level platform
// and dumps the architectural bus signals to ahbp_waves.vcd — open it in
// GTKWave to watch HBUSREQ/HGRANT/HTRANS/HADDR/HREADY and the write-buffer
// occupancy cycle by cycle.

#include <fstream>
#include <iostream>

#include "core/checkpoint.hpp"
#include "core/workloads.hpp"
#include "sim/event_kernel.hpp"

int main() {
  using namespace ahbp;

  core::PlatformConfig cfg = core::default_platform(2, 5, 12);
  cfg.masters[0].traffic.kind = traffic::PatternKind::kCpu;
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.masters[1].traffic.dma_burst_beats = 8;

  core::Platform p(cfg, core::ModelKind::kRtl);

  std::ofstream vcd("ahbp_waves.vcd");
  if (!vcd) {
    std::cerr << "cannot open ahbp_waves.vcd for writing\n";
    return 1;
  }
  p.enable_vcd(vcd);

  const sim::Cycle ran = p.run(5000);
  const core::SimResult r = p.result();
  std::cout << "ran " << ran << " bus cycles, completed " << r.completed
            << " transactions, " << r.protocol_errors << " protocol errors\n";
  std::cout << "kernel activity: " << p.rtl_kernel_stats().deltas
            << " delta rounds, " << p.rtl_kernel_stats().signal_commits
            << " signal commits\n";
  std::cout << "\nwaveform written to ahbp_waves.vcd — open with:\n"
            << "  gtkwave ahbp_waves.vcd\n";
  return 0;
}
