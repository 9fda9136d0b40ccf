// Fault injection against the signal-level platform: a rogue process
// drives illegal values onto the wires mid-run and the protocol checkers
// (§3.5 property family) must flag them — proving the assertions would
// catch a broken master/arbiter integration, which is exactly what the
// paper says they are for.

#include <gtest/gtest.h>

#include <functional>

#include "assertions/bus_checker.hpp"
#include "assertions/violation.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::rtl;

/// Minimal signal-level testbench: a clock, the shared wires, a scripted
/// "rogue driver" process, and the checker observing like the fabric does.
struct Bench {
  sim::EventKernel kernel;
  sim::Clock clock{kernel, "clk"};
  SharedWires sh{kernel, 2, 4};
  MasterWires m0{kernel, 0};
  chk::ViolationLog log;
  chk::BusChecker checker{
      chk::CheckerConfig{.masters = 2, .write_buffer_depth = 4}, log};
  sim::Cycle cycle = 0;
  std::function<void(sim::Cycle)> script;
  sim::Process drive{kernel, "rogue", [this] {
                       ++cycle;
                       if (script) {
                         script(cycle);
                       }
                     }};
  sim::Process observe{kernel, "observe", [this] {
                         chk::BusCycleView v;
                         v.cycle = cycle;
                         if (m0.hbusreq.read()) {
                           v.request_mask |= 1;
                         }
                         v.hmaster = sh.hmaster.read();
                         v.htrans = unpack_trans(sh.htrans.read());
                         v.haddr = sh.haddr.read();
                         v.hburst = unpack_burst(sh.hburst.read());
                         v.hsize = unpack_size(sh.hsize.read());
                         v.hwrite = unpack_dir(sh.hwrite.read());
                         v.hready = sh.hready.read();
                         v.wbuf_occupancy = sh.wbuf_occupancy.read();
                         checker.on_cycle(v);
                       }};

  Bench() {
    clock.subscribe(drive);
    clock.subscribe(observe);
  }

  void run(sim::Cycle cycles) { kernel.run_until(kernel.now() + cycles * 2); }

  void drive_beat(ahb::Trans tr, ahb::Addr addr, ahb::Burst b,
                  ahb::Size size = ahb::Size::kWord) {
    sh.hmaster.write(0);
    sh.htrans.write(pack(tr));
    sh.haddr.write(addr);
    sh.hburst.write(pack(b));
    sh.hsize.write(pack(size));
    sh.hready.write(true);
  }
};

TEST(FaultInjection, RogueGrantWithoutRequestCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 3) {
      // hmaster points at master 0 which never requested.
      b.drive_beat(ahb::Trans::kNonSeq, 0x100, ahb::Burst::kSingle);
    }
  };
  b.run(6);
  EXPECT_GE(b.log.count_rule("ahb.grant-implies-request"), 1u);
}

TEST(FaultInjection, AddressSkippedMidBurstCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 2) {
      b.m0.hbusreq.write(true);
    }
    if (c == 3) {
      b.drive_beat(ahb::Trans::kNonSeq, 0x100, ahb::Burst::kIncr4);
    }
    if (c == 4) {
      b.drive_beat(ahb::Trans::kSeq, 0x10C, ahb::Burst::kIncr4);  // skip 0x104
    }
  };
  b.run(8);
  EXPECT_GE(b.log.count_rule("ahb.seq-addr"), 1u);
}

TEST(FaultInjection, AddressChangedDuringStallCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 2) {
      b.m0.hbusreq.write(true);
    }
    if (c == 3) {
      b.drive_beat(ahb::Trans::kNonSeq, 0x100, ahb::Burst::kIncr4);
      b.sh.hready.write(false);  // stall the first beat
    }
    if (c == 4) {
      // Illegally move the address while stalled.
      b.drive_beat(ahb::Trans::kNonSeq, 0x200, ahb::Burst::kIncr4);
    }
  };
  b.run(8);
  EXPECT_GE(b.log.count_rule("ahb.stable-when-stalled"), 1u);
}

TEST(FaultInjection, TruncatedFixedBurstCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 2) {
      b.m0.hbusreq.write(true);
    }
    if (c == 3) {
      b.drive_beat(ahb::Trans::kNonSeq, 0x100, ahb::Burst::kIncr8);
    }
    if (c == 4) {
      b.drive_beat(ahb::Trans::kSeq, 0x104, ahb::Burst::kIncr8);
    }
    if (c == 5) {
      // Abandon the burst after 2 of 8 beats.
      b.drive_beat(ahb::Trans::kNonSeq, 0x800, ahb::Burst::kSingle);
    }
  };
  b.run(8);
  EXPECT_GE(b.log.count_rule("ahb.burst-len"), 1u);
}

TEST(FaultInjection, MisalignedAndBoundaryCrossingCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 2) {
      b.m0.hbusreq.write(true);
    }
    if (c == 3) {
      b.drive_beat(ahb::Trans::kNonSeq, 0x3D2, ahb::Burst::kIncr16);
    }
  };
  b.run(5);
  EXPECT_GE(b.log.count_rule("ahb.align"), 1u);
  EXPECT_GE(b.log.count_rule("ahb.1kb"), 1u);
}

TEST(FaultInjection, BufferOverflowReportCaught) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 3) {
      b.sh.wbuf_occupancy.write(9);  // depth is 4
    }
  };
  b.run(6);
  EXPECT_GE(b.log.count_rule("ahbp.wbuf-depth"), 1u);
}

TEST(FaultInjection, CleanDriverStaysClean) {
  Bench b;
  b.script = [&](sim::Cycle c) {
    if (c == 2) {
      b.m0.hbusreq.write(true);
    }
    if (c == 3) {
      b.drive_beat(ahb::Trans::kNonSeq, 0x100, ahb::Burst::kIncr4);
    }
    if (c >= 4 && c <= 6) {
      b.drive_beat(ahb::Trans::kSeq, 0x100 + 4 * (c - 3), ahb::Burst::kIncr4);
    }
    if (c == 7) {
      b.sh.htrans.write(pack(ahb::Trans::kIdle));
    }
  };
  b.run(10);
  EXPECT_EQ(b.log.count(), 0u) << b.log.to_string();
}

}  // namespace
