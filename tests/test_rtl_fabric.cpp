// The pin-accurate platform: end-to-end runs, protocol cleanliness, data
// integrity, write-buffer streaming path, the detail/bit-level layer
// population every fabric carries, and the signal-level building blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "rtl/bitlevel.hpp"
#include "rtl/fabric.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::rtl;

ddr::Geometry geom4() {
  ddr::Geometry g;
  g.banks = 4;
  g.rows = 64;
  g.cols = 32;
  g.col_bytes = 4;
  return g;
}

/// The fabric reads only the platform-level fields and each master's QoS
/// registers; the tests below hand it explicit scripts.
core::PlatformConfig base_cfg(unsigned masters) {
  core::PlatformConfig fc;
  fc.geom = geom4();
  fc.timing = ddr::toy_timing();
  fc.masters.resize(masters);
  return fc;
}

traffic::Script script_for(traffic::PatternKind kind, unsigned items,
                           ahb::Addr base, std::uint64_t seed,
                           ahb::MasterId m) {
  traffic::PatternConfig pat;
  pat.kind = kind;
  pat.items = items;
  pat.base = base;
  pat.span = 8192;
  pat.seed = seed;
  return traffic::make_script(pat, m);
}

TEST(RtlFabric, SingleMasterCompletesClean) {
  auto fc = base_cfg(1);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 20, 0, 3, 0));
  RtlFabric fabric(fc, std::move(scripts));
  fabric.run(50000);
  EXPECT_TRUE(fabric.finished());
  EXPECT_EQ(fabric.completed_txns(), 20u);
  EXPECT_EQ(fabric.violations().errors(), 0u)
      << fabric.violations().to_string();
}

TEST(RtlFabric, MultiMasterMixedTrafficClean) {
  auto fc = base_cfg(3);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 25, 0, 7, 0));
  scripts.push_back(script_for(traffic::PatternKind::kDma, 25, 8192, 7, 1));
  scripts.push_back(
      script_for(traffic::PatternKind::kRandom, 25, 16384, 7, 2));
  RtlFabric fabric(fc, std::move(scripts));
  fabric.run(100000);
  EXPECT_TRUE(fabric.finished()) << fabric.dump_state();
  EXPECT_EQ(fabric.completed_txns(), 75u);
  EXPECT_EQ(fabric.violations().errors(), 0u)
      << fabric.violations().to_string();
}

TEST(RtlFabric, ReadDataMatchesWrites) {
  // One master writes then reads the same addresses; the reads must see
  // the written values (exercises the full signal-level datapath).
  auto fc = base_cfg(1);
  traffic::Script s;
  for (unsigned i = 0; i < 4; ++i) {
    traffic::TrafficItem w;
    w.txn.dir = ahb::Dir::kWrite;
    w.txn.addr = 0x100 + 16 * i;
    w.txn.size = ahb::Size::kWord;
    w.txn.burst = ahb::Burst::kIncr4;
    w.txn.beats = 4;
    w.txn.data = {i + 1, i + 2, i + 3, i + 4};
    w.txn.id = s.size() + 1;
    s.push_back(w);
  }
  for (unsigned i = 0; i < 4; ++i) {
    traffic::TrafficItem r;
    r.txn.dir = ahb::Dir::kRead;
    r.txn.addr = 0x100 + 16 * i;
    r.txn.size = ahb::Size::kWord;
    r.txn.burst = ahb::Burst::kIncr4;
    r.txn.beats = 4;
    r.txn.id = s.size() + 1;
    s.push_back(r);
  }
  std::vector<traffic::Script> scripts;
  scripts.push_back(std::move(s));
  RtlFabric fabric(fc, std::move(scripts));
  std::vector<ahb::Transaction> reads;
  fabric.set_on_complete([&](ahb::MasterId, const ahb::Transaction& t) {
    if (t.dir == ahb::Dir::kRead) {
      reads.push_back(t);
    }
  });
  fabric.run(50000);
  ASSERT_TRUE(fabric.finished()) << fabric.dump_state();
  ASSERT_EQ(reads.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_EQ(reads[i].data.size(), 4u);
    for (unsigned b = 0; b < 4; ++b) {
      EXPECT_EQ(reads[i].data[b], i + 1 + b) << "txn " << i << " beat " << b;
    }
  }
  EXPECT_EQ(fabric.violations().errors(), 0u);
}

TEST(RtlFabric, WriteBufferStreamingPathUsed) {
  // Two masters, one hammering reads, one writing: writes go through the
  // take/stream path.
  auto fc = base_cfg(2);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kDma, 30, 0, 11, 0));
  traffic::PatternConfig pat;
  pat.kind = traffic::PatternKind::kCpu;
  pat.items = 30;
  pat.base = 8192;
  pat.span = 8192;
  pat.read_ratio = 0.0;  // all writes
  pat.seed = 11;
  scripts.push_back(traffic::make_script(pat, 1));
  RtlFabric fabric(fc, std::move(scripts));
  fabric.run(100000);
  ASSERT_TRUE(fabric.finished()) << fabric.dump_state();
  const auto prof = fabric.profile();
  EXPECT_GT(prof.write_buffer.absorbed, 0u);
  EXPECT_EQ(prof.write_buffer.absorbed, prof.write_buffer.drained);
  EXPECT_EQ(fabric.violations().errors(), 0u)
      << fabric.violations().to_string();
}

TEST(RtlFabric, DetailLayersDoNotChangeArchitecture) {
  // The RT-detail/bit-level layers only observe: the fabric must stop on
  // the cycle-by-cycle outcome recorded from a build with the two layers
  // left out (architectural wires only), while its kernel commits strictly
  // more signal changes than that build's 4,277.
  auto fc = base_cfg(2);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 20, 0, 13, 0));
  scripts.push_back(script_for(traffic::PatternKind::kDma, 20, 8192, 13, 1));
  RtlFabric fabric(fc, std::move(scripts));
  EXPECT_EQ(fabric.run(100000), 768u);
  EXPECT_TRUE(fabric.finished());
  EXPECT_EQ(fabric.last_completion(), 633u);
  EXPECT_EQ(fabric.completed_txns(), 40u);
  EXPECT_GT(fabric.kernel().stats().signal_commits, 4277u);
}

TEST(RtlFabric, QosStateVisibleInProfile) {
  auto fc = base_cfg(2);
  // Tiny budget.
  fc.masters[0].qos = ahb::QosConfig{ahb::MasterClass::kRealTime, 2};
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kRtStream, 10, 0, 5, 0));
  scripts.push_back(script_for(traffic::PatternKind::kDma, 40, 8192, 5, 1));
  RtlFabric fabric(fc, std::move(scripts));
  fabric.run(100000);
  ASSERT_TRUE(fabric.finished());
  const auto prof = fabric.profile();
  EXPECT_EQ(prof.masters.size(), 2u);
  // With a 2-cycle objective some grant inevitably misses it.
  EXPECT_GT(prof.masters[0].qos_misses, 0u);
  EXPECT_GT(fabric.violations().warnings(), 0u);
  EXPECT_EQ(fabric.violations().errors(), 0u);
}

TEST(RtlFabric, DumpStateRenders) {
  auto fc = base_cfg(1);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 5, 0, 3, 0));
  RtlFabric fabric(fc, std::move(scripts));
  fabric.run(10);
  const std::string s = fabric.dump_state();
  EXPECT_NE(s.find("m0:"), std::string::npos);
  EXPECT_NE(s.find("wbuf:"), std::string::npos);
  EXPECT_NE(s.find("arbiter"), std::string::npos);
}

TEST(RippleIncrementer, ComputesSumThroughCarryChain) {
  sim::EventKernel k;
  sim::BitVector in(k, "in", 32);
  sim::Signal<std::uint8_t> step(k, "step", 0);
  RippleIncrementer incr(k, "incr", in, step);
  step.write(4);
  in.write(0x0000FFFC);
  k.settle();  // carries ripple across nibbles
  EXPECT_EQ(incr.sum(), 0x00010000u);
  in.write(0x12345678);
  k.settle();
  EXPECT_EQ(incr.sum(), 0x1234567Cu);
}

TEST(RippleIncrementer, CarryCascadeCostsDeltas) {
  sim::EventKernel k;
  sim::BitVector in(k, "in", 32);
  sim::Signal<std::uint8_t> step(k, "step", 1);
  RippleIncrementer incr(k, "incr", in, step);
  in.write(0xFFFFFFFF);
  const auto before = k.stats().deltas;
  k.settle();  // carry ripples through all 8 nibbles
  EXPECT_EQ(incr.sum(), 0x0u);
  EXPECT_GE(k.stats().deltas - before, 8u);
}

TEST(RtlFabric, VcdDumpProducesValidWaveform) {
  auto fc = base_cfg(1);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 8, 0, 3, 0));
  RtlFabric fabric(fc, std::move(scripts));
  std::ostringstream vcd;
  fabric.enable_vcd(vcd);
  fabric.run(2000);
  EXPECT_TRUE(fabric.finished());
  const std::string text = vcd.str();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("haddr"), std::string::npos);
  EXPECT_NE(text.find("hready"), std::string::npos);
  // Real activity: timestamps and value changes present.
  EXPECT_NE(text.find("\n#"), std::string::npos);
  EXPECT_GT(text.size(), 1000u);
}

TEST(RtlFabric, VcdOccupancyWireFitsDeepWriteBuffer) {
  // A full 16-entry write buffer needs a 5-bit occupancy wire; a 4-bit one
  // dumps 16 as 0000.
  core::PlatformConfig cfg = scenario::load_scenario("wbuf-stress", 200);
  cfg.bus.write_buffer_depth = 16;
  RtlFabric fabric(cfg, core::expand_stimulus(cfg));
  std::ostringstream vcd;
  fabric.enable_vcd(vcd);
  fabric.run(cfg.max_cycles);
  ASSERT_TRUE(fabric.finished()) << fabric.dump_state();

  // "$var wire <width> <id> <name> $end", then "b<bits> <id>" changes.
  std::istringstream in(vcd.str());
  std::string line;
  std::string id;
  unsigned width = 0;
  std::uint64_t max_dumped = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string head;
    std::string ref;
    ls >> head;
    if (head == "$var") {
      std::string kind;
      std::string name;
      unsigned w = 0;
      ls >> kind >> w >> ref >> name;
      if (name == "wbuf_occupancy") {
        width = w;
        id = ref;
      }
    } else if (!id.empty() && head.size() > 1 && head[0] == 'b' &&
               (ls >> ref) && ref == id) {
      max_dumped = std::max<std::uint64_t>(
          max_dumped, std::stoull(head.substr(1), nullptr, 2));
    }
  }
  EXPECT_EQ(width, 5u);
  EXPECT_EQ(max_dumped, 16u);
  EXPECT_EQ(max_dumped, fabric.profile().write_buffer.occupancy.max());
}

TEST(RtlFabric, PlatformVcdDumpsTheRtlModelOnly) {
  // The path `ahbp_sim run --vcd` takes: the Platform forwards the dump to
  // its fabric, and refuses it for the TLM, which has no signals.
  const core::PlatformConfig cfg = core::default_platform(2, 5, 12);
  core::Platform rtl(cfg, core::ModelKind::kRtl);
  std::ostringstream vcd;
  rtl.enable_vcd(vcd);
  rtl.run_to_completion();
  EXPECT_TRUE(rtl.result().finished);
  EXPECT_EQ(rtl.result().protocol_errors, 0u);
  const std::string text = vcd.str();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("hgrant"), std::string::npos);
  EXPECT_NE(text.find("\n#"), std::string::npos);

  core::Platform tlm(cfg, core::ModelKind::kTlm);
  std::ostringstream unused;
  EXPECT_THROW(tlm.enable_vcd(unused), std::logic_error);
  EXPECT_TRUE(unused.str().empty());
}

TEST(RtlFabric, DetailLayerInstantiatesFullRegisterPopulation) {
  auto fc = base_cfg(2);
  std::vector<traffic::Script> scripts;
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 3, 0, 3, 0));
  scripts.push_back(script_for(traffic::PatternKind::kCpu, 3, 8192, 3, 1));
  RtlFabric fabric(fc, std::move(scripts));
  // Every fabric carries the detail layer (d<column>., dp., arb., ddrc.,
  // wbuf.ram, qos.; columns d0-d2 here) and the bit-level layer (pin.);
  // every other signal is an architectural wire.  The layers multiply the
  // signal population several-fold over the architectural wires alone.
  constexpr std::array kLayerPrefixes{"d0.",  "d1.",      "d2.",  "dp.",
                                      "arb.", "ddrc.",    "qos.", "pin.",
                                      "wbuf.ram"};
  std::size_t arch = 0;
  std::set<std::string> names;
  const sim::BitVector* haddr_pins = nullptr;
  for (const auto* sig : fabric.kernel().signals()) {
    const std::string name(sig->name());
    if (std::ranges::none_of(kLayerPrefixes, [&](const char* prefix) {
          return name.starts_with(prefix);
        })) {
      ++arch;
    }
    if (name == "pin.haddr") {
      haddr_pins = dynamic_cast<const sim::BitVector*>(sig);
    }
    names.insert(name);
  }
  ASSERT_NE(haddr_pins, nullptr);
  EXPECT_EQ(haddr_pins->width(), 32u);
  EXPECT_TRUE(names.contains("d0.haddr_r"));  // a detail register
  EXPECT_TRUE(names.contains("haddr"));       // an architectural wire
  EXPECT_GT(fabric.kernel().signals().size(), 3 * arch);
}

TEST(BitLevelLayer, ShadowsSharedBusesBitTrue) {
  sim::EventKernel k;
  SharedWires sh(k, 2, 4);
  MasterWires m0(k, 0), m1(k, 1), wb(k, 2);
  BitLevelLayer layer(k, sh, {&m0, &m1, &wb});
  EXPECT_GT(layer.signal_count(), 200u);  // 3 buses + per-column pins
  sh.haddr.write(0xABCD1234);
  k.settle();
  // The blasted pins re-assemble to the driven word (inspected through the
  // kernel's signal registry by name: one packed entry per bus).
  const sim::BitVector* pins = nullptr;
  for (const auto* sig : k.signals()) {
    if (sig->name() == "pin.haddr") {
      pins = dynamic_cast<const sim::BitVector*>(sig);
    }
  }
  ASSERT_NE(pins, nullptr);
  ASSERT_EQ(pins->width(), 32u);
  std::uint64_t v = 0;
  for (unsigned bit = 0; bit < pins->width(); ++bit) {
    if (pins->bit(bit)) {
      v |= 1ull << bit;
    }
  }
  EXPECT_EQ(v, 0xABCD1234u);
}

}  // namespace
