// The QoS theorem behind the paper's §2 claim, tested as a property across
// seeds and load levels: with the full AHB+ filter chain, a real-time
// master's request-to-grant wait is bounded by
//
//     objective + (longest possible bus occupancy ahead of it) + pipeline
//
// regardless of what the non-real-time masters do.  The bound below uses
// the longest transfer in flight (16 beats + DDR worst case row cycle) and
// the grant pipeline depth.  Plain fixed-priority arbitration violates the
// bound under the same loads (checked as the negative control).

#include <gtest/gtest.h>

#include <tuple>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "tlm/bus.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::core;

PlatformConfig rt_under_load(unsigned hogs, std::uint64_t seed,
                             unsigned items, std::uint32_t objective) {
  PlatformConfig cfg = default_platform(1 + hogs, seed, items);
  cfg.masters[0].qos = {ahb::MasterClass::kRealTime, objective};
  cfg.masters[0].traffic.kind = traffic::PatternKind::kRtStream;
  cfg.masters[0].traffic.period = 32;
  for (unsigned m = 1; m <= hogs; ++m) {
    cfg.masters[m].traffic.kind = traffic::PatternKind::kDma;
    cfg.masters[m].traffic.dma_burst_beats = 16;
  }
  return cfg;
}

/// Worst bus occupancy that can sit ahead of an urgent RT master: one
/// maximal transfer (16 beats) through a full DDR row cycle plus the
/// write-buffer drain the arbiter may have committed to, plus the grant
/// pipeline.  Deliberately generous — the property is "bounded", not
/// "tight".
sim::Cycle qos_bound(const PlatformConfig& cfg) {
  const auto& t = cfg.timing;
  const sim::Cycle row_cycle = t.tRP + t.tRCD + t.tCL + 16 + t.tWR;
  const sim::Cycle refresh = t.tREFI ? t.tRFC + t.tRP : 0;
  return cfg.masters[0].qos.objective + 2 * row_cycle + refresh +
         tlm::kGrantToStart + 8;
}

class QosBoundSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>> {};

TEST_P(QosBoundSweep, RtWaitBoundedWithFullChain) {
  const auto [hogs, seed] = GetParam();
  PlatformConfig cfg = rt_under_load(hogs, seed, 60, 48);
  const SimResult r = run_tlm(cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.protocol_errors, 0u);
  const auto max_wait = r.profile.masters[0].grant_wait.summary().max();
  EXPECT_LE(max_wait, qos_bound(cfg))
      << "hogs=" << hogs << " seed=" << seed;
}

TEST_P(QosBoundSweep, RtWaitBoundedOnRtlToo) {
  const auto [hogs, seed] = GetParam();
  PlatformConfig cfg = rt_under_load(hogs, seed, 40, 48);
  const SimResult r = run_rtl(cfg);
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.protocol_errors, 0u);
  const auto max_wait = r.profile.masters[0].grant_wait.summary().max();
  // The signal-level fabric adds a few handshake cycles on top.
  EXPECT_LE(max_wait, qos_bound(cfg) + 8)
      << "hogs=" << hogs << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    LoadsAndSeeds, QosBoundSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(3ull, 29ull, 404ull)));

TEST(QosBound, NegativeControlFixedPriorityViolates) {
  // Same heaviest load, QoS stages stripped, RT master demoted to the
  // lowest fixed priority: the bound must break (otherwise the property
  // test above proves nothing).
  PlatformConfig cfg = default_platform(4, 29, 60);
  cfg.masters[3].qos = {ahb::MasterClass::kRealTime, 48};
  cfg.masters[3].traffic.kind = traffic::PatternKind::kRtStream;
  cfg.masters[3].traffic.period = 32;
  for (unsigned m = 0; m < 3; ++m) {
    cfg.masters[m].traffic.kind = traffic::PatternKind::kDma;
    cfg.masters[m].traffic.dma_burst_beats = 16;
  }
  cfg.bus.filter_mask = ahb::with_filter(
      ahb::with_filter(
          ahb::with_filter(ahb::kAllFilters, ahb::FilterBit::kUrgency, false),
          ahb::FilterBit::kQosBudget, false),
      ahb::FilterBit::kRoundRobin, false);
  const SimResult r = run_tlm(cfg);
  ASSERT_TRUE(r.finished);
  const auto max_wait = r.profile.masters[3].grant_wait.summary().max();
  EXPECT_GT(max_wait, qos_bound(cfg))
      << "stripped arbitration unexpectedly met the QoS bound";
}

TEST(QosBound, ObjectiveScalesTheBound) {
  // A tighter objective gives tighter service (monotonicity of the
  // guarantee knob).
  PlatformConfig tight = rt_under_load(3, 7, 60, 24);
  PlatformConfig loose = rt_under_load(3, 7, 60, 96);
  const auto rt_tight = run_tlm(tight).profile.masters[0];
  const auto rt_loose = run_tlm(loose).profile.masters[0];
  EXPECT_LE(rt_tight.grant_wait.percentile_upper(99),
            rt_loose.grant_wait.percentile_upper(99) + 63)
      << "tightening the objective must not worsen tail service";
}

}  // namespace
