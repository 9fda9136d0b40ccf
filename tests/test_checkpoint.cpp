// The checkpoint/restore acceptance contract.
//
// The snapshot layer is only sound if it is *complete*: for every registry
// preset, run(W) -> checkpoint -> restore -> run(rest) must produce
// bit-identical cycles and statistics to an uninterrupted run, in both the
// transaction-level and the signal-level model, including sharded-DDR
// configurations.  These tests pin that property, the canonical-bytes
// round trip (save -> restore -> save is byte-identical), and the
// fork-from-warm-up sweep reproducing a cold sweep's aggregate table
// exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace ahbp;

core::PlatformConfig preset(const std::string& name, unsigned items) {
  return scenario::ScenarioRegistry::builtin().build(name, items);
}

/// Full-depth equality of two run outcomes (everything except wall clock).
void expect_identical(const core::SimResult& a, const core::SimResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.finished, b.finished) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.ran_cycles, b.ran_cycles) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.protocol_errors, b.protocol_errors) << what;
  EXPECT_EQ(a.qos_warnings, b.qos_warnings) << what;
  EXPECT_EQ(a.first_violations, b.first_violations) << what;
  EXPECT_EQ(a.kernel_activity, b.kernel_activity) << what;

  const stats::RunProfile& pa = a.profile;
  const stats::RunProfile& pb = b.profile;
  EXPECT_EQ(pa.total_cycles, pb.total_cycles) << what;
  EXPECT_EQ(pa.completed_txns, pb.completed_txns) << what;
  EXPECT_EQ(pa.bus.cycles, pb.bus.cycles) << what;
  EXPECT_EQ(pa.bus.busy_cycles, pb.bus.busy_cycles) << what;
  EXPECT_EQ(pa.bus.contention_cycles, pb.bus.contention_cycles) << what;
  EXPECT_EQ(pa.bus.wait_cycles, pb.bus.wait_cycles) << what;
  EXPECT_EQ(pa.bus.grants, pb.bus.grants) << what;
  EXPECT_EQ(pa.bus.handovers, pb.bus.handovers) << what;
  EXPECT_EQ(pa.bus.bytes, pb.bus.bytes) << what;
  EXPECT_EQ(pa.write_buffer.absorbed, pb.write_buffer.absorbed) << what;
  EXPECT_EQ(pa.write_buffer.drained, pb.write_buffer.drained) << what;
  EXPECT_EQ(pa.write_buffer.bypassed, pb.write_buffer.bypassed) << what;
  EXPECT_EQ(pa.write_buffer.full_stalls, pb.write_buffer.full_stalls) << what;
  EXPECT_EQ(pa.write_buffer.forwards, pb.write_buffer.forwards) << what;
  EXPECT_EQ(pa.write_buffer.occupancy.count(), pb.write_buffer.occupancy.count())
      << what;
  EXPECT_EQ(pa.write_buffer.occupancy.sum(), pb.write_buffer.occupancy.sum())
      << what;
  EXPECT_EQ(pa.ddr.commands.activates, pb.ddr.commands.activates) << what;
  EXPECT_EQ(pa.ddr.commands.reads, pb.ddr.commands.reads) << what;
  EXPECT_EQ(pa.ddr.commands.writes, pb.ddr.commands.writes) << what;
  EXPECT_EQ(pa.ddr.commands.precharges, pb.ddr.commands.precharges) << what;
  EXPECT_EQ(pa.ddr.commands.refreshes, pb.ddr.commands.refreshes) << what;
  EXPECT_EQ(pa.ddr.hits.row_hits, pb.ddr.hits.row_hits) << what;
  EXPECT_EQ(pa.ddr.hits.row_misses, pb.ddr.hits.row_misses) << what;
  EXPECT_EQ(pa.ddr.hits.row_conflicts, pb.ddr.hits.row_conflicts) << what;
  EXPECT_EQ(pa.ddr.hits.hint_activates, pb.ddr.hits.hint_activates) << what;
  ASSERT_EQ(pa.masters.size(), pb.masters.size()) << what;
  for (std::size_t m = 0; m < pa.masters.size(); ++m) {
    EXPECT_EQ(pa.masters[m].reads, pb.masters[m].reads) << what << " m" << m;
    EXPECT_EQ(pa.masters[m].writes, pb.masters[m].writes) << what << " m" << m;
    EXPECT_EQ(pa.masters[m].bytes_read, pb.masters[m].bytes_read)
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].bytes_written, pb.masters[m].bytes_written)
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].buffered_writes, pb.masters[m].buffered_writes)
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].qos_misses, pb.masters[m].qos_misses)
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].latency.total(), pb.masters[m].latency.total())
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].latency.summary().sum(),
              pb.masters[m].latency.summary().sum())
        << what << " m" << m;
    EXPECT_EQ(pa.masters[m].grant_wait.summary().sum(),
              pb.masters[m].grant_wait.summary().sum())
        << what << " m" << m;
  }
}

/// run(W) -> snapshot -> restore into a fresh platform -> run(rest), then
/// compare against the uninterrupted run.  Returns the snapshot size.
std::size_t check_roundtrip(const core::PlatformConfig& cfg,
                            core::ModelKind model, const std::string& what) {
  core::Platform straight(cfg, model);
  straight.run_to_completion();
  const core::SimResult expect = straight.result();

  // A checkpoint boundary strictly inside the run (the property is trivial
  // at 0 and at the end).
  const sim::Cycle w = expect.ran_cycles / 3 + 1;

  core::Platform warm(cfg, model);
  state::StateWriter sw;
  warm.run(w);
  warm.save_state(sw);
  EXPECT_EQ(warm.now(), w) << what;
  const std::vector<std::uint8_t> bytes = sw.finish();

  core::Platform resumed(cfg, model);
  state::StateReader sr(bytes.data(), bytes.size());
  resumed.restore_state(sr);
  sr.expect_end();
  EXPECT_EQ(resumed.now(), w) << what;
  resumed.run_to_completion();

  expect_identical(resumed.result(), expect, what);

  // Canonical bytes: save -> restore -> save is byte-identical.
  core::Platform again(cfg, model);
  state::StateReader sr2(bytes.data(), bytes.size());
  again.restore_state(sr2);
  state::StateWriter sw2;
  again.save_state(sw2);
  EXPECT_EQ(sw2.finish(), bytes) << what << " (round trip not canonical)";
  return bytes.size();
}

// ------------------------------------------- per-preset, both models -----

class CheckpointEveryPreset : public ::testing::TestWithParam<const char*> {};

TEST_P(CheckpointEveryPreset, TlmRestoreIsCycleExact) {
  const core::PlatformConfig cfg = preset(GetParam(), 60);
  check_roundtrip(cfg, core::ModelKind::kTlm,
                  std::string(GetParam()) + " tlm");
}

TEST_P(CheckpointEveryPreset, RtlRestoreIsCycleExact) {
  const core::PlatformConfig cfg = preset(GetParam(), 40);
  check_roundtrip(cfg, core::ModelKind::kRtl,
                  std::string(GetParam()) + " rtl");
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CheckpointEveryPreset,
    ::testing::Values("table1/cpu-1", "table1/cpu-2", "table1/cpu-3",
                      "table1/cpu-4", "table1/dma-1", "table1/dma-2",
                      "table1/dma-3", "table1/dma-4", "table1/rt-1",
                      "table1/rt-2", "table1/rt-3", "table1/rt-4",
                      "single-master", "bursty-dma", "bank-conflict",
                      "wbuf-stress", "qos-starvation"),
    [](const auto& pinfo) {
      std::string n = pinfo.param;
      for (char& c : n) {
        if (c == '/' || c == '-') {
          c = '_';
        }
      }
      return n;
    });

// ---------------------------------------------- sharded-DDR coverage -----

TEST(Checkpoint, RtlRunResumedOffBoundaryStopsWhereStraightRunDoes) {
  // RtlFabric samples finished() only at absolute 256-cycle boundaries,
  // and Platform::run drives it in 25,600-cycle heartbeat chunks.  A run
  // resumed at an unaligned cycle must still stop where the uninterrupted
  // run does, also when a chunk would end just past the workload's finish.
  const core::PlatformConfig cfg = preset("single-master", 2200);
  core::Platform straight(cfg, core::ModelKind::kRtl);
  straight.run_to_completion();
  const sim::Cycle end = straight.result().ran_cycles;
  ASSERT_GT(end, sim::Cycle{25'600 + 256});
  for (const sim::Cycle back :
       {sim::Cycle{1}, sim::Cycle{100}, sim::Cycle{255}}) {
    const sim::Cycle split = end - 25'600 - back;
    core::Platform p(cfg, core::ModelKind::kRtl);
    p.run(split);
    p.run_to_completion();
    EXPECT_EQ(p.result().ran_cycles, end) << "split at " << split;
  }
}

TEST(Checkpoint, MultiChannelRestoreIsCycleExactBothModels) {
  for (const unsigned channels : {2u, 4u}) {
    core::PlatformConfig cfg = preset("table1/dma-1", 40);
    scenario::apply_key(cfg, "ddr.channels", std::to_string(channels));
    scenario::validate(cfg);
    check_roundtrip(cfg, core::ModelKind::kTlm,
                    "dma-1 tlm channels=" + std::to_string(channels));
    check_roundtrip(cfg, core::ModelKind::kRtl,
                    "dma-1 rtl channels=" + std::to_string(channels));
  }
}

TEST(Checkpoint, WideBusRestoreIsCycleExact) {
  core::PlatformConfig cfg = preset("table1/rt-1", 50);
  scenario::apply_key(cfg, "bus.data_width_bytes", "8");
  scenario::validate(cfg);
  check_roundtrip(cfg, core::ModelKind::kTlm, "rt-1 tlm width=8");
  check_roundtrip(cfg, core::ModelKind::kRtl, "rt-1 rtl width=8");
}

// --------------------------------------------- checkpoint file format -----

TEST(Checkpoint, FileEmbedsScenarioAndResumes) {
  const core::PlatformConfig cfg = preset("table1/cpu-1", 60);
  const std::string text = scenario::serialize(cfg);

  core::Platform straight(cfg, core::ModelKind::kTlm);
  straight.run_to_completion();

  const std::string path = ::testing::TempDir() + "ahbp_ckpt_test.snap";
  core::Platform warm(cfg, core::ModelKind::kTlm);
  warm.run(straight.result().ran_cycles / 2);
  core::write_checkpoint_file(path, warm, text);

  state::StateReader r = state::StateReader::from_file(path);
  const core::CheckpointInfo info = core::read_checkpoint_header(r);
  EXPECT_EQ(info.model, "tlm");
  EXPECT_EQ(info.taken_at, warm.now());
  EXPECT_EQ(info.scenario_text, text);

  const core::PlatformConfig reparsed = scenario::parse(info.scenario_text);
  core::ModelKind model{};
  ASSERT_TRUE(core::model_kind_from_string(info.model, model));
  core::Platform resumed(reparsed, model);
  resumed.restore_state(r);
  resumed.run_to_completion();
  expect_identical(resumed.result(), straight.result(), "file resume");
  std::remove(path.c_str());
}

// ------------------------------------------- fork-from-warm-up sweeps -----

TEST(Checkpoint, ForkedWarmupSweepReproducesColdSweepExactly) {
  // Sweep axes that leave the warm-up prefix invariant (items axes: scripts
  // extend the base's prefix; pinned by test_traffic_determinism).  The
  // forked sweep must reproduce the cold sweep's aggregate table — the
  // user-facing artifact — byte-for-byte, in both models.
  // The swept masters (the rt stream and the random mix) must still be
  // issuing at the checkpoint boundary — extending a master's `items` only
  // leaves the prefix invariant while its base script has not drained, and
  // the runner rejects forks that violate this instead of diverging.
  sweep::SweepSpec spec;
  spec.base = "table1/rt-1";
  spec.base_config =
      scenario::ScenarioRegistry::builtin().build("table1/rt-1", 60, 7);
  spec.axes.push_back({"master0.items", {"60", "72"}});
  spec.axes.push_back({"master3.items", {"60", "80"}});
  const auto points = sweep::expand(spec);

  const sweep::SweepRunner runner(2);
  const auto cold = runner.run(points, sweep::Model::kBoth);
  ASSERT_FALSE(cold.empty());
  for (const auto& o : cold) {
    ASSERT_TRUE(o.error.empty()) << o.error;
    ASSERT_TRUE(o.tlm.finished && o.rtl.finished) << o.label;
  }
  // A warm-up strictly inside every point's run, early enough that the
  // swept 60-item streams are still active (the rt stream alone paces
  // ~one item per 48-cycle period).
  const sim::Cycle warmup = 600;
  ASSERT_LT(warmup, cold.front().tlm.ran_cycles);
  const auto forked =
      runner.run(points, sweep::Model::kBoth, spec.base_config, warmup);

  std::ostringstream cold_table, forked_table;
  sweep::aggregate_table(cold, sweep::Model::kBoth).print(cold_table);
  sweep::aggregate_table(forked, sweep::Model::kBoth).print(forked_table);
  EXPECT_EQ(forked_table.str(), cold_table.str());

  std::ostringstream cold_csv, forked_csv;
  sweep::write_point_csv(cold_csv, cold, sweep::Model::kBoth);
  sweep::write_point_csv(forked_csv, forked, sweep::Model::kBoth);
  EXPECT_EQ(forked_csv.str(), cold_csv.str());

  // Beyond the table: per-point outcomes are identical in depth.
  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_identical(forked[i].tlm, cold[i].tlm,
                     "forked tlm " + cold[i].label);
    expect_identical(forked[i].rtl, cold[i].rtl,
                     "forked rtl " + cold[i].label);
  }
}

TEST(Checkpoint, ForkedSweepRejectsStructuralAxes) {
  // An axis that changes the platform's shape (channel count) cannot fork
  // from the base snapshot; the point must fail with a clear error, not
  // diverge silently.
  sweep::SweepSpec spec;
  spec.base = "table1/dma-1";
  spec.base_config =
      scenario::ScenarioRegistry::builtin().build("table1/dma-1", 40);
  spec.axes.push_back({"ddr.channels", {"1", "2"}});
  const auto points = sweep::expand(spec);

  const sweep::SweepRunner runner(1);
  const auto outcomes =
      runner.run(points, sweep::Model::kTlm, spec.base_config, 500);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].error.empty()) << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].error.empty());
  EXPECT_NE(outcomes[1].error.find("channel"), std::string::npos)
      << outcomes[1].error;
}

TEST(Checkpoint, SweepSpecsRejectCheckpointKeys) {
  // Snapshots are taken with `ahbp_sim checkpoint`, never by a scenario
  // section, so a [checkpoint] in a sweep spec is an unknown section and a
  // swept checkpoint.* key fails expansion like any unknown axis key.
  const auto expect_unknown = [](auto&& attempt) {
    try {
      attempt();
      ADD_FAILURE() << "accepted a checkpoint key";
    } catch (const scenario::ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown section 'checkpoint'"),
                std::string::npos)
          << e.what();
    }
  };
  expect_unknown([] {
    sweep::parse_spec("base = table1/cpu-1\n"
                      "[checkpoint]\n"
                      "at_cycle = 1000\n"
                      "path = warm.ckpt\n"
                      "[sweep]\n"
                      "bus.write_buffer_depth = 2, 4\n");
  });
  expect_unknown([] {
    sweep::expand(sweep::parse_spec("base = table1/cpu-1\n"
                                    "[sweep]\n"
                                    "checkpoint.at_cycle = 100, 200\n"));
  });
}

TEST(Checkpoint, ModelMismatchIsRejected) {
  const core::PlatformConfig cfg = preset("single-master", 30);
  core::Platform tlm(cfg, core::ModelKind::kTlm);
  tlm.run(100);
  state::StateWriter w;
  tlm.save_state(w);
  const auto bytes = w.finish();

  core::Platform rtl(cfg, core::ModelKind::kRtl);
  state::StateReader r(bytes.data(), bytes.size());
  EXPECT_THROW(rtl.restore_state(r), state::StateError);
}

TEST(Checkpoint, StructuralMismatchIsRejected) {
  const core::PlatformConfig cfg = preset("table1/cpu-1", 30);
  core::Platform p(cfg, core::ModelKind::kTlm);
  p.run(200);
  state::StateWriter w;
  p.save_state(w);
  const auto bytes = w.finish();

  // Fewer masters than the snapshot.
  const core::PlatformConfig other = preset("single-master", 30);
  core::Platform q(other, core::ModelKind::kTlm);
  state::StateReader r(bytes.data(), bytes.size());
  EXPECT_THROW(q.restore_state(r), state::StateError);

  // Checker enablement must match.
  core::PlatformConfig nochk = cfg;
  nochk.enable_checkers = false;
  core::Platform s(nochk, core::ModelKind::kTlm);
  state::StateReader r2(bytes.data(), bytes.size());
  EXPECT_THROW(s.restore_state(r2), state::StateError);
}

}  // namespace
