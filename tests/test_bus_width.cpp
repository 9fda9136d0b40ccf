// The §3.7 bus-width knob, end to end: beat-shape math per width, scenario
// validation/round-trip of non-default widths, the DDR chunker on wide
// beats, the hsize-width protocol rule, and the acceptance sweep — TLM and
// RTL agree at every width of {1,2,4,8} bytes and a bandwidth-bound
// workload's cycle count never increases as the bus widens.

#include <gtest/gtest.h>

#include <vector>

#include "ahb/address.hpp"
#include "ahb/types.hpp"
#include "assertions/assert.hpp"
#include "assertions/bus_checker.hpp"
#include "core/compare.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "ddr/scheduler.hpp"
#include "scenario/scenario.hpp"
#include "traffic/generator.hpp"

namespace {

using namespace ahbp;

constexpr unsigned kWidths[] = {1, 2, 4, 8};

// ------------------------------------------------------------ type math --

TEST(BusWidthTypes, ValidBeatBytesIsPowersOfTwoUpTo8) {
  for (const unsigned w : kWidths) {
    EXPECT_TRUE(ahb::valid_beat_bytes(w));
  }
  for (const unsigned w : {0u, 3u, 5u, 6u, 7u, 16u}) {
    EXPECT_FALSE(ahb::valid_beat_bytes(w));
  }
}

TEST(BusWidthTypes, SizeForBytesInvertsSizeBytes) {
  for (const unsigned w : kWidths) {
    EXPECT_EQ(ahb::size_bytes(ahb::size_for_bytes(w)), w);
  }
}

TEST(BusWidthTypes, BeatBytesForClampsToTransferAndBus) {
  EXPECT_EQ(ahb::beat_bytes_for(16, 4), 4u);  // bus-limited
  EXPECT_EQ(ahb::beat_bytes_for(16, 8), 8u);
  EXPECT_EQ(ahb::beat_bytes_for(4, 8), 4u);   // transfer-limited
  EXPECT_EQ(ahb::beat_bytes_for(1, 8), 1u);
}

// ----------------------------------------------------- traffic shaping --

traffic::PatternConfig pattern(traffic::PatternKind kind, unsigned width) {
  traffic::PatternConfig c;
  c.kind = kind;
  c.seed = 7;
  c.items = 32;
  c.base = 0x10000;
  c.span = 1 << 18;
  c.beat_bytes = width;
  return c;
}

TEST(BusWidthTraffic, DmaMovesSameBytesInWidthScaledBeats) {
  for (const unsigned w : kWidths) {
    auto cfg = pattern(traffic::PatternKind::kDma, w);
    cfg.dma_burst_beats = 16;  // 64 bytes on the 32-bit reference bus
    const traffic::Script s = traffic::make_script(cfg, 0);
    ASSERT_FALSE(s.empty());
    for (const traffic::TrafficItem& item : s) {
      EXPECT_EQ(item.txn.bytes(), 64u) << "width " << w;
      EXPECT_EQ(item.txn.beats, 64u / w) << "width " << w;
      EXPECT_EQ(ahb::size_bytes(item.txn.size), w) << "width " << w;
      EXPECT_TRUE(ahb::structurally_valid(item.txn)) << "width " << w;
    }
  }
}

TEST(BusWidthTraffic, RtStreamKeepsItsFrameQuantum) {
  for (const unsigned w : kWidths) {
    const traffic::Script s =
        traffic::make_script(pattern(traffic::PatternKind::kRtStream, w), 1);
    for (const traffic::TrafficItem& item : s) {
      EXPECT_EQ(item.txn.bytes(), 32u) << "width " << w;
      EXPECT_EQ(item.txn.beats, 32u / w) << "width " << w;
    }
  }
}

TEST(BusWidthTraffic, CpuLinesAndScalarsScale) {
  for (const unsigned w : kWidths) {
    const traffic::Script s =
        traffic::make_script(pattern(traffic::PatternKind::kCpu, w), 2);
    for (const traffic::TrafficItem& item : s) {
      const auto bytes = item.txn.bytes();
      // Cache-line transfers move 16 bytes, scalar accesses one 32-bit
      // datum (which a wide bus still moves as a single narrow beat).
      EXPECT_TRUE(bytes == 16 || bytes == 4) << "width " << w;
      EXPECT_LE(ahb::size_bytes(item.txn.size), w) << "width " << w;
      EXPECT_TRUE(ahbp::ahb::structurally_valid(item.txn)) << "width " << w;
    }
  }
}

TEST(BusWidthTraffic, RandomNeverExceedsTheBusWidth) {
  for (const unsigned w : kWidths) {
    const traffic::Script s =
        traffic::make_script(pattern(traffic::PatternKind::kRandom, w), 3);
    bool any_at_width = false;
    for (const traffic::TrafficItem& item : s) {
      EXPECT_LE(ahb::size_bytes(item.txn.size), w) << "width " << w;
      any_at_width |= ahb::size_bytes(item.txn.size) == w;
      EXPECT_TRUE(ahb::structurally_valid(item.txn)) << "width " << w;
    }
    EXPECT_TRUE(any_at_width) << "width " << w << " never used full beats";
  }
}

TEST(BusWidthTraffic, DefaultWidthReproducesLegacyWordScripts) {
  // The 4-byte default must generate exactly the pre-widening stimulus —
  // the Table-1 calibration depends on it.
  auto legacy = pattern(traffic::PatternKind::kDma, 4);
  legacy.dma_burst_beats = 8;
  const traffic::Script s = traffic::make_script(legacy, 0);
  for (const traffic::TrafficItem& item : s) {
    EXPECT_EQ(item.txn.size, ahb::Size::kWord);
    EXPECT_EQ(item.txn.beats, 8u);
    EXPECT_EQ(item.txn.burst, ahb::Burst::kIncr8);
  }
}

TEST(BusWidthTraffic, InvalidWidthThrows) {
  auto cfg = pattern(traffic::PatternKind::kDma, 3);
  EXPECT_THROW(traffic::make_script(cfg, 0), chk::ModelAssertError);
}

TEST(BusWidthTraffic, MakeScriptsThreadsTheBusWidth) {
  core::PlatformConfig cfg = core::default_platform(1, 5, 10);
  cfg.masters[0].traffic.kind = traffic::PatternKind::kDma;
  cfg.bus.data_width_bytes = 8;
  const auto scripts = core::expand_stimulus(cfg);
  ASSERT_EQ(scripts.size(), 1u);
  for (const traffic::TrafficItem& item : scripts[0]) {
    EXPECT_EQ(item.txn.size, ahb::Size::kDword);
  }
}

TEST(BusWidthTraffic, StreamPatternsTolerateBeatAlignedOddBases) {
  // A window base that is beat-aligned but not burst-aligned (0x10008 at
  // width 8): the DMA/RT cursors must round up to the burst stride so no
  // burst straddles a 1KB boundary.
  for (const auto kind :
       {traffic::PatternKind::kDma, traffic::PatternKind::kRtStream}) {
    auto cfg = pattern(kind, 8);
    cfg.base = 0x10008;
    const traffic::Script s = traffic::make_script(cfg, 0);
    ASSERT_FALSE(s.empty());
    for (const traffic::TrafficItem& item : s) {
      EXPECT_TRUE(ahb::burst_within_1kb(item.txn.addr, item.txn.size,
                                        item.txn.burst, item.txn.beats));
      EXPECT_GE(item.txn.addr, cfg.base);
      EXPECT_LE(item.txn.addr + item.txn.bytes(), cfg.base + cfg.span);
    }
  }
}

TEST(BusWidthTraffic, BurstsNeverStraddle1KBAtAnyWidth) {
  for (const unsigned w : kWidths) {
    for (const auto kind :
         {traffic::PatternKind::kCpu, traffic::PatternKind::kDma,
          traffic::PatternKind::kRtStream, traffic::PatternKind::kRandom}) {
      const traffic::Script s = traffic::make_script(pattern(kind, w), 0);
      for (const traffic::TrafficItem& item : s) {
        EXPECT_TRUE(ahb::burst_within_1kb(item.txn.addr, item.txn.size,
                                          item.txn.burst, item.txn.beats))
            << traffic::to_string(kind) << " width " << w;
        EXPECT_EQ(item.txn.addr % ahb::size_bytes(item.txn.size), 0u);
      }
    }
  }
}

// ------------------------------------------------------------- scenario --

TEST(BusWidthScenario, NonDefaultWidthRoundTrips) {
  for (const unsigned w : kWidths) {
    core::PlatformConfig cfg = core::default_platform(1, 1, 10);
    cfg.bus.data_width_bytes = w;
    const core::PlatformConfig back =
        scenario::parse(scenario::serialize(cfg));
    EXPECT_EQ(back.bus.data_width_bytes, w);
  }
}

TEST(BusWidthScenario, RejectsNonPowerOfTwoWidths) {
  const auto with_width = [](const std::string& v) {
    return "[bus]\ndata_width_bytes = " + v + "\n";
  };
  EXPECT_THROW(scenario::parse(with_width("3")), scenario::ScenarioError);
  EXPECT_THROW(scenario::parse(with_width("5")), scenario::ScenarioError);
  EXPECT_THROW(scenario::parse(with_width("0")), scenario::ScenarioError);
  EXPECT_THROW(scenario::parse(with_width("16")), scenario::ScenarioError);
  EXPECT_NO_THROW(scenario::parse(with_width("8")));
}

TEST(BusWidthScenario, SweepOverrideKeyApplies) {
  core::PlatformConfig cfg = core::default_platform(1, 1, 10);
  scenario::apply_key(cfg, "bus.data_width_bytes", "2");
  EXPECT_EQ(cfg.bus.data_width_bytes, 2u);
  EXPECT_THROW(scenario::apply_key(cfg, "bus.data_width_bytes", "6"),
               scenario::ScenarioError);
}

// ------------------------------------------------------------- checkers --

TEST(BusWidthChecker, FlagsBeatsWiderThanTheBus) {
  chk::ViolationLog log;
  chk::BusChecker checker(
      chk::CheckerConfig{.masters = 1, .bus_width_bytes = 4}, log);
  chk::BusCycleView v;
  v.cycle = 1;
  v.hmaster = 0;
  v.request_mask = 1;
  v.htrans = ahb::Trans::kNonSeq;
  v.hburst = ahb::Burst::kSingle;
  v.hsize = ahb::Size::kDword;  // 8-byte beat on a 4-byte bus
  v.haddr = 0x100;
  v.hready = true;
  checker.on_cycle(v);
  EXPECT_EQ(log.errors(), 1u) << log.to_string();
}

TEST(BusWidthChecker, AcceptsFullWidthBeats) {
  chk::ViolationLog log;
  chk::BusChecker checker(
      chk::CheckerConfig{.masters = 1, .bus_width_bytes = 8}, log);
  chk::BusCycleView v;
  v.cycle = 1;
  v.hmaster = 0;
  v.request_mask = 1;
  v.htrans = ahb::Trans::kNonSeq;
  v.hburst = ahb::Burst::kSingle;
  v.hsize = ahb::Size::kDword;
  v.haddr = 0x100;
  v.hready = true;
  checker.on_cycle(v);
  EXPECT_EQ(log.errors(), 0u) << log.to_string();
}

// ------------------------------------------------- DDR wide-beat chunks --

TEST(BusWidthDdr, WideBeatsChunkIntoFewCasCommands) {
  // 8 dword beats = 64 bytes = 16 four-byte columns in one row: the chunker
  // must ride the wide column stride into one CAS, not one CAS per beat.
  ddr::Geometry geom;
  geom.banks = 4;
  geom.rows = 64;
  geom.cols = 64;
  geom.col_bytes = 4;
  ddr::DdrcEngine engine(ddr::toy_timing(), geom);
  ddr::MemRequest req;
  req.is_write = false;
  req.addr = 0;
  req.beat_bytes = 8;
  req.beats = 8;
  req.burst = ahb::Burst::kIncr8;
  engine.begin(req, 0);
  unsigned cas = 0;
  sim::Cycle now = 0;
  while (!engine.done() && now < 1000) {
    ++now;
    const ddr::Command cmd = engine.step(now);
    if (cmd.kind == ddr::CmdKind::kRead) {
      ++cas;
    }
    if (engine.read_beat_available(now)) {
      engine.take_read_beat(now);
    }
  }
  ASSERT_TRUE(engine.done());
  EXPECT_EQ(cas, 1u);
}

// ----------------------------------------- the acceptance-criterion sweep --

TEST(BusWidthEquivalence, ModelsAgreeAndCyclesNeverIncreaseWithWidth) {
  // Bandwidth-bound workload: two DMA masters streaming back-to-back.
  std::vector<sim::Cycle> tlm_cycles, rtl_cycles;
  for (const unsigned w : kWidths) {
    core::PlatformConfig cfg = core::default_platform(2, 11, 40);
    for (auto& m : cfg.masters) {
      m.traffic.kind = traffic::PatternKind::kDma;
      m.traffic.dma_burst_beats = 16;
    }
    cfg.bus.data_width_bytes = w;
    cfg.max_cycles = 400000;

    const core::SimResult t = core::run_tlm(cfg);
    const core::SimResult r = core::run_rtl(cfg);
    ASSERT_TRUE(t.finished) << "tlm width " << w;
    ASSERT_TRUE(r.finished) << "rtl width " << w;
    EXPECT_EQ(t.protocol_errors, 0u)
        << "width " << w << "\n" << t.first_violations;
    EXPECT_EQ(r.protocol_errors, 0u)
        << "width " << w << "\n" << r.first_violations;
    EXPECT_EQ(t.completed, r.completed) << "width " << w;

    // The Table-1 accuracy contract holds at every width.
    EXPECT_LT(core::cycle_error(t, r), 0.15)
        << "width " << w << ": tlm=" << t.cycles << " rtl=" << r.cycles;
    tlm_cycles.push_back(t.cycles);
    rtl_cycles.push_back(r.cycles);
  }
  // §3.7: widening the bus never costs cycles on a bandwidth-bound run...
  for (std::size_t i = 1; i < tlm_cycles.size(); ++i) {
    EXPECT_LE(tlm_cycles[i], tlm_cycles[i - 1]) << "tlm width step " << i;
    EXPECT_LE(rtl_cycles[i], rtl_cycles[i - 1]) << "rtl width step " << i;
  }
  // ...and 8x the width buys a real speedup end to end.
  EXPECT_LT(tlm_cycles.back() * 2, tlm_cycles.front());
  EXPECT_LT(rtl_cycles.back() * 2, rtl_cycles.front());
}

}  // namespace
