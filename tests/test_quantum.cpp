// Temporal decoupling correctness — the quantum knob's contract is that it
// changes *speed only*: for every registry preset and every quantum, cycle
// counts, retired transactions, per-master stall attribution, and every
// other simulated statistic must be bit-identical to classic cycle-by-cycle
// stepping.  Also pins checkpoint-at-mid-quantum restore equivalence.

#include <gtest/gtest.h>

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
/// which quantum batching legitimately reduces — everything else must
/// match bit for bit.
std::string canonical(core::SimResult r) {
  r.wall_seconds = 0.0;
  r.kernel_activity = 0;
  std::ostringstream os;
  core::write_stats_json(os, r);
  return os.str();
}

std::string run_canonical(core::PlatformConfig cfg, sim::Cycle quantum) {
  cfg.sim.quantum = quantum;
  return canonical(core::run_tlm(cfg));
}

TEST(Quantum, BitExactAcrossAllPresetsAndQuanta) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  ASSERT_GE(reg.entries().size(), 17u);
  for (const auto& info : reg.entries()) {
    SCOPED_TRACE(info.name);
    const auto cfg = reg.build(info.name, /*items=*/60);
    const std::string baseline = run_canonical(cfg, 1);
    for (sim::Cycle q : {sim::Cycle{8}, sim::Cycle{64}, sim::Cycle{1024}}) {
      SCOPED_TRACE("quantum=" + std::to_string(q));
      EXPECT_EQ(baseline, run_canonical(cfg, q));
    }
  }
}

TEST(Quantum, CheckpointMidQuantumRestoresBitExact) {
  // rt-1 is idle-heavy, so at quantum=64 the platform spends most of its
  // time mid-leap; a checkpoint quota of 5003 cycles (prime, nowhere near
  // a quantum boundary) forces the save to land inside a batched stretch.
  const auto& reg = scenario::ScenarioRegistry::builtin();
  auto cfg = reg.build("table1/rt-1", /*items=*/120);
  cfg.sim.quantum = 64;

  const std::string straight = canonical(core::run_tlm(cfg));

  core::Platform warm(cfg, core::ModelKind::kTlm);
  state::StateWriter w;
  warm.checkpoint_at(5003, w);
  ASSERT_EQ(warm.now(), 5003u);
  const auto bytes = w.finish();

  core::Platform fork(cfg, core::ModelKind::kTlm);
  state::StateReader r(bytes.data(), bytes.size());
  fork.restore_state(r);
  ASSERT_EQ(fork.now(), 5003u);
  fork.run_to_completion();
  EXPECT_EQ(straight, canonical(fork.result()));

  // And the resumed run must also equal the quantum=1 ground truth.
  auto q1 = cfg;
  q1.sim.quantum = 1;
  EXPECT_EQ(canonical(core::run_tlm(q1)), canonical(fork.result()));
}

TEST(Quantum, ResumeUnderDifferentQuantumIsBitExact) {
  // The quantum is a tunable, not structure: a snapshot taken at
  // quantum=1 must resume bit-exactly under quantum=256 and vice versa.
  const auto& reg = scenario::ScenarioRegistry::builtin();
  auto cfg = reg.build("table1/cpu-1", /*items=*/100);

  const std::string straight = canonical(core::run_tlm(cfg));

  core::Platform warm(cfg, core::ModelKind::kTlm);
  state::StateWriter w;
  warm.checkpoint_at(3001, w);
  const auto bytes = w.finish();

  auto resumed_cfg = cfg;
  resumed_cfg.sim.quantum = 256;
  core::Platform fork(resumed_cfg, core::ModelKind::kTlm);
  state::StateReader r(bytes.data(), bytes.size());
  fork.restore_state(r);
  fork.run_to_completion();
  EXPECT_EQ(straight, canonical(fork.result()));
}

}  // namespace
