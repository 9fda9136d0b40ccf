// Idle leaping is exact: the TLM platform jumps over provably idle cycles,
// and every simulated statistic must equal plain cycle-by-cycle stepping.
// The per-cycle reference is data: the table below was recorded from a
// platform that stepped every cycle, for every registry preset at 60 items
// per master.  Also pins checkpoint-mid-leap restore equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "scenario/registry.hpp"
#include "state/snapshot.hpp"

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
