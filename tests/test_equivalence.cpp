// Cross-model equivalence — the properties behind Table 1's validity:
// for identical stimulus the two models must retire the same transactions
// with identical read data, keep every protocol checker silent, and stay
// within a bounded cycle divergence.  Parameterized across traffic
// patterns, seeds and DDR channel counts.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "core/checkpoint.hpp"
#include "core/compare.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::core;

using Key = std::pair<unsigned, ahb::TxnId>;
using DataMap = std::map<Key, std::vector<ahb::Word>>;

struct Collected {
  DataMap reads;  ///< read data per (master, txn id)
  SimResult result;
};

/// Run `cfg` on one model, collecting per-transaction read data through
/// the platform's completion hook alongside the run's own result.
Collected collect(const PlatformConfig& cfg, ModelKind model) {
  Collected out;
  Platform p(cfg, model);
  p.set_on_complete([&out](ahb::MasterId m, const ahb::Transaction& t) {
    if (t.dir == ahb::Dir::kRead) {
      out.reads[{m, t.id}] = t.data;
    }
  });
  p.run_to_completion();
  out.result = p.result();
  return out;
}

class EquivalenceSweep
    : public ::testing::TestWithParam<
          std::tuple<traffic::PatternKind, std::uint64_t, unsigned>> {};

TEST_P(EquivalenceSweep, IdenticalReadDataAndBoundedCycleGap) {
  const auto [kind, seed, channels] = GetParam();
  PlatformConfig cfg = default_platform(3, seed, 40);
  for (auto& m : cfg.masters) {
    m.traffic.kind = kind;
  }
  scenario::apply_key(cfg, "ddr.channels", std::to_string(channels));
  cfg.max_cycles = 400000;

  const Collected tlm = collect(cfg, ModelKind::kTlm);
  const Collected rtl = collect(cfg, ModelKind::kRtl);
  for (const SimResult* r : {&tlm.result, &rtl.result}) {
    ASSERT_TRUE(r->finished) << r->model;
    EXPECT_EQ(r->protocol_errors, 0u) << r->model << "\n"
                                      << r->first_violations;
  }

  ASSERT_EQ(tlm.reads.size(), rtl.reads.size());
  for (const auto& [key, data] : tlm.reads) {
    const auto it = rtl.reads.find(key);
    ASSERT_NE(it, rtl.reads.end())
        << "master " << key.first << " txn " << key.second;
    EXPECT_EQ(it->second, data)
        << "read data differs: master " << key.first << " txn " << key.second;
  }

  // Cycle divergence bound (loose; the bench reports exact percentages).
  EXPECT_LT(cycle_error(tlm.result, rtl.result), 0.15)
      << "tlm=" << tlm.result.cycles << " rtl=" << rtl.result.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    PatternsSeedsAndChannels, EquivalenceSweep,
    ::testing::Combine(::testing::Values(traffic::PatternKind::kCpu,
                                         traffic::PatternKind::kDma,
                                         traffic::PatternKind::kRandom),
                       ::testing::Values(1ull, 17ull, 99ull),
                       ::testing::Values(1u, 2u, 4u)));

TEST(Equivalence, CompletedCountsMatchOnTable1Rows) {
  // Cheap subset of Table 1 (first row of each group, plus dma-2) at low
  // item count.  Work conservation per master on the 4-master,
  // write-buffered platform: identical stimulus moves identical bytes.
  auto rows = table1_workloads(15, 5);
  for (const auto idx : {0u, 4u, 5u, 8u}) {
    auto w = rows[idx];
    const SimResult t = run_tlm(w.config);
    const SimResult r = run_rtl(w.config);
    ASSERT_TRUE(t.finished) << w.name;
    ASSERT_TRUE(r.finished) << w.name;
    EXPECT_EQ(t.completed, r.completed) << w.name;
    EXPECT_EQ(t.protocol_errors, 0u) << w.name << "\n" << t.first_violations;
    EXPECT_EQ(r.protocol_errors, 0u) << w.name << "\n" << r.first_violations;
    ASSERT_EQ(t.profile.masters.size(), w.config.masters.size()) << w.name;
    ASSERT_EQ(r.profile.masters.size(), w.config.masters.size()) << w.name;
    for (std::size_t m = 0; m < w.config.masters.size(); ++m) {
      const auto& tm = t.profile.masters[m];
      const auto& rm = r.profile.masters[m];
      EXPECT_EQ(tm.reads, rm.reads) << w.name << " master " << m;
      EXPECT_EQ(tm.writes, rm.writes) << w.name << " master " << m;
      EXPECT_EQ(tm.bytes_read, rm.bytes_read) << w.name << " master " << m;
      EXPECT_EQ(tm.bytes_written, rm.bytes_written)
          << w.name << " master " << m;
    }
  }
}

TEST(Equivalence, SingleMasterModelsAgreeTightly) {
  // With no contention the fixed grant/handover latencies are not hidden
  // by pipelining, so the single-master gap runs a little above the
  // contended Table-1 average (the TLM's calibration targets the paper's
  // multi-master workloads).
  auto w = single_master_workload(60, 21);
  w.config.max_cycles = 400000;
  const SimResult t = run_tlm(w.config);
  const SimResult r = run_rtl(w.config);
  ASSERT_TRUE(t.finished && r.finished);
  EXPECT_LT(cycle_error(t, r), 0.12)
      << "tlm=" << t.cycles << " rtl=" << r.cycles;
}

TEST(Equivalence, ProfilesAgreeOnWorkConserved) {
  // Same stimulus means the same bytes moved and the same grant counts
  // (timing differs, work does not).
  PlatformConfig cfg = default_platform(2, 31, 30);
  const SimResult t = run_tlm(cfg);
  const SimResult r = run_rtl(cfg);
  ASSERT_TRUE(t.finished && r.finished);
  for (unsigned m = 0; m < 2; ++m) {
    EXPECT_EQ(t.profile.masters[m].reads, r.profile.masters[m].reads);
    EXPECT_EQ(t.profile.masters[m].writes, r.profile.masters[m].writes);
    EXPECT_EQ(t.profile.masters[m].bytes_read,
              r.profile.masters[m].bytes_read);
    EXPECT_EQ(t.profile.masters[m].bytes_written,
              r.profile.masters[m].bytes_written);
  }
}

TEST(Equivalence, QosMissesSimilarUnderLoad) {
  // An RT master under heavy NRT load: both models must service it within
  // the same order of QoS quality (exact misses may differ slightly).
  auto rows = table1_workloads(25, 3);
  auto w = rows[9];  // rt-2: tight period
  const SimResult t = run_tlm(w.config);
  const SimResult r = run_rtl(w.config);
  ASSERT_TRUE(t.finished && r.finished);
  const auto t_miss = t.profile.masters[0].qos_misses;
  const auto r_miss = r.profile.masters[0].qos_misses;
  EXPECT_LE(t_miss, r_miss + 5);
  EXPECT_LE(r_miss, t_miss + 5);
}

}  // namespace
