// Idle leaping is exact: the TLM platform jumps over provably idle cycles,
// and every simulated statistic must equal plain cycle-by-cycle stepping.
// The per-cycle reference is data: the table below was recorded from a
// platform that stepped every cycle, for every registry preset at 60 items
// per master.  A live per-cycle reference is kept alongside it: a
// hand-written loop that steps every cycle.  Also pins
// checkpoint-mid-leap restore equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "scenario/registry.hpp"
#include "state/snapshot.hpp"
#include "tlm/bus.hpp"
#include "tlm/master.hpp"

namespace {

using namespace ahbp;

/// Canonical form of a run outcome: the full stats JSON (cycle counts,
/// completions, per-master stall attribution, violations) with the
/// host-time fields zeroed.  kernel_activity counts component evaluations,
/// which leaping legitimately reduces — everything else must match bit for
/// bit.
std::string canonical(core::SimResult r) {
  r.wall_seconds = 0.0;
  r.kernel_activity = 0;
  std::ostringstream os;
  core::write_stats_json(os, r);
  return os.str();
}

std::uint32_t crc_of(const std::string& s) {
  return state::crc32(reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size());
}

struct PerCycleReference {
  const char* preset;
  sim::Cycle cycles;
  sim::Cycle ran_cycles;
  std::uint64_t completed;
  std::uint32_t stats_crc;  ///< crc_of(canonical(result))
};

constexpr PerCycleReference kReference[] = {
    {"table1/cpu-1", 2251, 2252, 240, 0x42692118U},
    {"table1/cpu-2", 2211, 2215, 240, 0x8a9d8e8aU},
    {"table1/cpu-3", 2480, 2481, 240, 0x8ca98b16U},
    {"table1/cpu-4", 2713, 2742, 240, 0x08b65e1aU},
    {"table1/dma-1", 4178, 4182, 240, 0x67b1c689U},
    {"table1/dma-2", 3027, 3028, 240, 0xdde06f25U},
    {"table1/dma-3", 2519, 2520, 240, 0x5d778f5bU},
    {"table1/dma-4", 4213, 4217, 240, 0xd1a656a5U},
    {"table1/rt-1", 4748, 4749, 240, 0xd06bc8d6U},
    {"table1/rt-2", 3564, 3565, 240, 0x88df87fcU},
    {"table1/rt-3", 7555, 7556, 240, 0x4dd187f6U},
    {"table1/rt-4", 4016, 4017, 240, 0x71779645U},
    {"single-master", 874, 875, 60, 0x27c026dbU},
    {"bursty-dma", 5350, 5351, 240, 0xe56b6caeU},
    {"bank-conflict", 2612, 2613, 240, 0xacb9c346U},
    {"wbuf-stress", 2183, 2185, 240, 0x4674de69U},
    {"qos-starvation", 5109, 5110, 240, 0x39c993a7U},
};

TEST(IdleLeap, EveryPresetMatchesPerCycleReference) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  ASSERT_EQ(reg.entries().size(), std::size(kReference))
      << "a preset was added or removed: extend the reference table";
  for (const auto& info : reg.entries()) {
    SCOPED_TRACE(info.name);
    const auto* ref =
        std::find_if(std::begin(kReference), std::end(kReference),
                     [&](const PerCycleReference& e) {
                       return info.name == e.preset;
                     });
    ASSERT_NE(ref, std::end(kReference)) << "no reference row";
    const core::SimResult r = core::run_tlm(reg.build(info.name, 60));
    EXPECT_EQ(r.cycles, ref->cycles);
    EXPECT_EQ(r.ran_cycles, ref->ran_cycles);
    EXPECT_EQ(r.completed, ref->completed);
    EXPECT_EQ(crc_of(canonical(r)), ref->stats_crc);
  }
}

/// The live per-cycle reference: the TLM parts wired by hand and stepped
/// every cycle (masters, then the bus), with no leaping.  core::run_tlm
/// leaps provably idle stretches; it must stop on the same cycle, and both
/// must complete `completed` transactions.
void expect_leap_matches_per_cycle(const core::PlatformConfig& cfg,
                                   std::uint64_t completed) {
  ahb::QosRegisterFile qos(static_cast<unsigned>(cfg.masters.size()));
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  ddr::ChannelSet dram(core::ddr_channel_configs(cfg), cfg.interleave);
  chk::ViolationLog log;
  tlm::AhbPlusBus bus(cfg.bus, qos, dram, cfg.ddr_base,
                      static_cast<unsigned>(cfg.masters.size()), &log);
  auto scripts = core::expand_stimulus(cfg);
  std::vector<std::unique_ptr<tlm::TlmMaster>> masters;
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    masters.push_back(std::make_unique<tlm::TlmMaster>(
        static_cast<ahb::MasterId>(m), bus, std::move(scripts[m])));
  }
  const auto done = [&] {
    return std::all_of(masters.begin(), masters.end(),
                       [](const auto& m) { return m->finished(); }) &&
           bus.quiescent();
  };
  sim::Cycle now = 0;
  for (; now < 200000 && !done(); ++now) {
    for (const auto& m : masters) {
      m->evaluate(now);
    }
    bus.evaluate(now);
  }
  std::uint64_t per_cycle_completed = 0;
  for (const auto& m : masters) {
    per_cycle_completed += m->completed();
  }
  EXPECT_EQ(log.errors(), 0u) << log.to_string();
  EXPECT_EQ(per_cycle_completed, completed);

  const core::SimResult leaped = core::run_tlm(cfg);
  EXPECT_EQ(leaped.ran_cycles, now);
  EXPECT_EQ(leaped.completed, completed);
}

TEST(IdleLeap, SingleMasterMatchesLivePerCycleRun) {
  expect_leap_matches_per_cycle(core::default_platform(1, 9, 25), 25);
}

TEST(IdleLeap, MultiMasterMatchesLivePerCycleRun) {
  auto cfg = core::default_platform(3, 4, 20);
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.masters[2].traffic.kind = traffic::PatternKind::kRandom;
  expect_leap_matches_per_cycle(cfg, 60);
}

TEST(IdleLeap, CheckpointMidLeapRestoresBitExact) {
  // rt-1 is idle-heavy, so the platform spends most of its time mid-leap;
  // a checkpoint quota of 5003 cycles (prime) forces the save to land
  // inside a leaped stretch.
  const auto& reg = scenario::ScenarioRegistry::builtin();
  const auto cfg = reg.build("table1/rt-1", /*items=*/120);

  const std::string straight = canonical(core::run_tlm(cfg));

  core::Platform warm(cfg, core::ModelKind::kTlm);
  state::StateWriter w;
  warm.run(5003);
  warm.save_state(w);
  ASSERT_EQ(warm.now(), 5003u);
  const auto bytes = w.finish();

  core::Platform fork(cfg, core::ModelKind::kTlm);
  state::StateReader r(bytes.data(), bytes.size());
  fork.restore_state(r);
  ASSERT_EQ(fork.now(), 5003u);
  fork.run_to_completion();
  EXPECT_EQ(straight, canonical(fork.result()));
}

}  // namespace
