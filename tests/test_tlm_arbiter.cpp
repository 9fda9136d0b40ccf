// The seven-filter arbitration pipeline: each stage in isolation, the
// §3.7 per-filter enable mask, QoS urgency/budget behaviour, fairness and
// the always-one-winner property under randomized contexts.

#include <gtest/gtest.h>

#include <random>

#include "assertions/assert.hpp"
#include "tlm/arbiter.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::tlm;

struct Fixture {
  ahb::BusConfig cfg;
  ahb::QosRegisterFile qos;
  ArbContext ctx;

  explicit Fixture(unsigned masters = 4) : qos(masters) {
    ctx.cfg = &cfg;
    ctx.qos = &qos;
    ctx.masters = masters;
    ctx.candidates.resize(masters + 1);
    ctx.now = 100;
  }

  void request(unsigned m, unsigned beats = 4, bool is_write = false) {
    ctx.candidates[m].requesting = true;
    ctx.candidates[m].beats = beats;
    ctx.candidates[m].is_write = is_write;
    if (m < ctx.masters) {
      qos.state(static_cast<ahb::MasterId>(m)).requesting = true;
      qos.state(static_cast<ahb::MasterId>(m)).request_since = ctx.now;
    }
  }
};

TEST(Pipeline, NoRequestNoWinner) {
  Fixture f;
  FilterPipeline p;
  EXPECT_FALSE(p.arbitrate(f.ctx).has_value());
}

TEST(Pipeline, SoleRequesterWins) {
  Fixture f;
  f.request(2);
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 2);
}

TEST(Pipeline, HazardBlockedExcluded) {
  Fixture f;
  f.request(0);
  f.request(1);
  f.ctx.candidates[0].blocked_by_hazard = true;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 1);
}

TEST(Pipeline, AllBlockedNoWinner) {
  Fixture f;
  f.request(0);
  f.ctx.candidates[0].blocked_by_hazard = true;
  FilterPipeline p;
  EXPECT_FALSE(p.arbitrate(f.ctx).has_value());
}

TEST(Pipeline, LockOwnerRetainsBus) {
  Fixture f;
  f.request(0);
  f.request(3);
  f.ctx.lock_owner = 3;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 3);
}

TEST(Pipeline, LockIgnoredWhenOwnerNotRequesting) {
  Fixture f;
  f.request(0);
  f.ctx.lock_owner = 3;  // owner has nothing pending
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);
}

TEST(Pipeline, UrgentRtPreemptsEverything) {
  Fixture f;
  f.qos.program(3, ahb::QosConfig{ahb::MasterClass::kRealTime, 20});
  f.request(0);
  f.request(3);
  // Master 3 has waited 15 of its 20-cycle objective: slack 5 < threshold 8.
  f.qos.state(3).request_since = f.ctx.now - 15;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 3);
}

TEST(Pipeline, RtWithComfortableSlackNotUrgent) {
  Fixture f;
  f.qos.program(3, ahb::QosConfig{ahb::MasterClass::kRealTime, 100});
  f.request(0);
  f.request(3);
  f.qos.state(3).request_since = f.ctx.now - 5;  // slack 95
  FilterPipeline p;
  // Round-robin from kNoMaster starts at 0.
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);
}

TEST(Pipeline, MostNegativeSlackWinsAmongUrgent) {
  Fixture f;
  f.qos.program(1, ahb::QosConfig{ahb::MasterClass::kRealTime, 10});
  f.qos.program(2, ahb::QosConfig{ahb::MasterClass::kRealTime, 10});
  f.request(1);
  f.request(2);
  f.qos.state(1).request_since = f.ctx.now - 12;  // slack -2
  f.qos.state(2).request_since = f.ctx.now - 30;  // slack -20 (worse)
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 2);
}

TEST(Pipeline, UrgentWbufWhenNoRtEmergency) {
  Fixture f;
  f.request(0);
  f.request(f.ctx.masters);  // write buffer
  f.ctx.wbuf_urgent = true;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), f.ctx.masters);
}

TEST(Pipeline, RtEmergencyOutranksUrgentWbuf) {
  Fixture f;
  f.qos.program(0, ahb::QosConfig{ahb::MasterClass::kRealTime, 10});
  f.request(0);
  f.request(f.ctx.masters);
  f.ctx.wbuf_urgent = true;
  f.qos.state(0).request_since = f.ctx.now - 20;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);
}

TEST(Pipeline, BudgetedMasterOutranksExhausted) {
  Fixture f;
  f.qos.program(0, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 64});
  f.qos.program(1, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 64});
  f.request(0);
  f.request(1);
  f.qos.state(0).budget = -10;  // exhausted
  f.qos.state(1).budget = 5;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 1);
}

TEST(Pipeline, BestEffortMasterAlwaysInBudget) {
  Fixture f;
  f.qos.program(0, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 0});
  f.request(0);
  f.qos.state(0).budget = -100;  // irrelevant at objective 0
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);
}

TEST(Pipeline, BankAffinityPrefersOpenRow) {
  Fixture f;
  f.request(0);
  f.request(1);
  f.ctx.candidates[0].affinity = ddr::BankAffinity::kIdle;
  f.ctx.candidates[1].affinity = ddr::BankAffinity::kOpenRow;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 1);
}

TEST(Pipeline, BankFilterDisabledByConfig) {
  Fixture f;
  f.cfg.bi_hints_enabled = false;
  f.request(0);
  f.request(1);
  f.ctx.candidates[0].affinity = ddr::BankAffinity::kConflict;
  f.ctx.candidates[1].affinity = ddr::BankAffinity::kOpenRow;
  FilterPipeline p;
  // Without BI the round-robin tie-break from kNoMaster picks master 0.
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);
}

TEST(Pipeline, RoundRobinRotatesAfterLastGrant) {
  Fixture f;
  f.request(0);
  f.request(2);
  f.ctx.last_grant = 0;
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 2);
  f.ctx.last_grant = 2;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 0);  // wraps around
}

TEST(Pipeline, RoundRobinDisabledFallsToPriority) {
  Fixture f;
  f.cfg.filter_mask =
      ahb::with_filter(f.cfg.filter_mask, ahb::FilterBit::kRoundRobin, false);
  f.request(1);
  f.request(3);
  f.ctx.last_grant = 1;  // would pick 3 under RR
  FilterPipeline p;
  EXPECT_EQ(p.arbitrate(f.ctx).value(), 1);  // fixed priority: lowest index
}

// Property: any combination of enabled filters and any requesting subset
// still yields exactly one winner from the requesting set.
class PipelineMaskProperty : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(PipelineMaskProperty, AlwaysExactlyOneWinnerFromRequesters) {
  std::mt19937_64 rng(GetParam() * 977);
  FilterPipeline p;
  for (int round = 0; round < 200; ++round) {
    Fixture f;
    f.cfg.filter_mask = GetParam();
    std::uint32_t requesting = 0;
    for (unsigned m = 0; m <= f.ctx.masters; ++m) {
      if (rng() % 2) {
        f.request(m, 1 + rng() % 16, rng() % 2);
        requesting |= 1u << m;
        f.ctx.candidates[m].affinity =
            static_cast<ddr::BankAffinity>(rng() % 3);
      }
    }
    f.ctx.last_grant = static_cast<ahb::MasterId>(rng() % 6);
    const auto winner = p.arbitrate(f.ctx);
    if (requesting == 0) {
      EXPECT_FALSE(winner.has_value());
    } else {
      ASSERT_TRUE(winner.has_value());
      EXPECT_TRUE(requesting & (1u << *winner));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FilterMasks, PipelineMaskProperty,
                         ::testing::Values<std::uint8_t>(
                             ahbp::ahb::kAllFilters, 0x01, 0x03, 0x07, 0x0F,
                             0x1F, 0x3F, 0x41, 0x55, 0x2A));

TEST(Arbiter, GrantBookkeepingUpdatesQos) {
  Fixture f;
  f.qos.program(1, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 64});
  f.qos.state(1).budget = 64;
  Arbiter arb(f.cfg, f.qos);
  arb.on_request(1, 90);
  f.ctx.candidates[1].requesting = true;
  f.ctx.candidates[1].beats = 8;
  const auto grant = arb.arbitrate(f.ctx);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->master, 1);
  EXPECT_FALSE(grant->is_wbuf);
  EXPECT_EQ(grant->waited, 10u);  // 100 - 90
  EXPECT_FALSE(f.qos.state(1).requesting);
  EXPECT_EQ(f.qos.state(1).budget, 64 - 8);
  EXPECT_EQ(f.qos.state(1).grants, 1u);
  EXPECT_EQ(arb.grants(), 1u);
  EXPECT_EQ(arb.last_grant(), 1);
}

TEST(Arbiter, WbufGrantSkipsQosBookkeeping) {
  Fixture f;
  Arbiter arb(f.cfg, f.qos);
  f.ctx.candidates[f.ctx.masters].requesting = true;
  f.ctx.candidates[f.ctx.masters].beats = 4;
  const auto grant = arb.arbitrate(f.ctx);
  ASSERT_TRUE(grant.has_value());
  EXPECT_TRUE(grant->is_wbuf);
}

TEST(Arbiter, TickRefillsBudgetsPerEpoch) {
  Fixture f;
  f.qos.program(0, ahb::QosConfig{ahb::MasterClass::kNonRealTime, 32});
  f.qos.set_epoch(100);
  Arbiter arb(f.cfg, f.qos);
  arb.tick(0);
  f.qos.state(0).budget = -5;
  arb.tick(50);  // mid-epoch: no refill
  EXPECT_EQ(f.qos.state(0).budget, -5);
  arb.tick(100);
  EXPECT_EQ(f.qos.state(0).budget, 27);
}

TEST(Arbiter, DoubleRequestAsserts) {
  Fixture f;
  Arbiter arb(f.cfg, f.qos);
  arb.on_request(0, 1);
  EXPECT_THROW(arb.on_request(0, 2), ahbp::chk::ModelAssertError);
}

}  // namespace
