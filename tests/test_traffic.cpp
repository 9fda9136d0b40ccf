// Traffic generators: determinism, structural legality across every
// pattern/seed combination, windowing, and ScriptSource pacing semantics.

#include <gtest/gtest.h>

#include <tuple>

#include "traffic/generator.hpp"

namespace {

using namespace ahbp::traffic;
using ahbp::ahb::Addr;

PatternConfig base_cfg(PatternKind kind, std::uint64_t seed) {
  PatternConfig c;
  c.kind = kind;
  c.seed = seed;
  c.items = 64;
  c.base = 0x10000;
  c.span = 1 << 18;
  return c;
}

class PatternSweep
    : public ::testing::TestWithParam<std::tuple<PatternKind, std::uint64_t>> {
};

TEST_P(PatternSweep, DeterministicForSameSeed) {
  const auto [kind, seed] = GetParam();
  const auto cfg = base_cfg(kind, seed);
  const Script a = make_script(cfg, 2);
  const Script b = make_script(cfg, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gap, b[i].gap);
    EXPECT_EQ(a[i].txn.addr, b[i].txn.addr);
    EXPECT_EQ(a[i].txn.beats, b[i].txn.beats);
    EXPECT_EQ(a[i].txn.dir, b[i].txn.dir);
    EXPECT_EQ(a[i].txn.data, b[i].txn.data);
  }
}

TEST_P(PatternSweep, AllTransactionsStructurallyValid) {
  const auto [kind, seed] = GetParam();
  const Script s = make_script(base_cfg(kind, seed), 1);
  ASSERT_EQ(s.size(), 64u);
  for (const TrafficItem& item : s) {
    EXPECT_TRUE(ahbp::ahb::structurally_valid(item.txn));
  }
}

TEST_P(PatternSweep, StaysInsideWindow) {
  const auto [kind, seed] = GetParam();
  const auto cfg = base_cfg(kind, seed);
  const Script s = make_script(cfg, 0);
  for (const TrafficItem& item : s) {
    EXPECT_GE(item.txn.addr, cfg.base);
    EXPECT_LE(item.txn.addr + item.txn.bytes(), cfg.base + cfg.span);
  }
}

TEST_P(PatternSweep, IdsAndMasterStamped) {
  const auto [kind, seed] = GetParam();
  const Script s = make_script(base_cfg(kind, seed), 3);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].txn.id, i + 1);
    EXPECT_EQ(s[i].txn.master, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, PatternSweep,
    ::testing::Combine(::testing::Values(PatternKind::kCpu, PatternKind::kDma,
                                         PatternKind::kRtStream,
                                         PatternKind::kRandom),
                       ::testing::Values(1ull, 7ull, 42ull)));

TEST(Traffic, DifferentMastersGetDifferentStreams) {
  const auto cfg = base_cfg(PatternKind::kRandom, 9);
  const Script a = make_script(cfg, 0);
  const Script b = make_script(cfg, 1);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].txn.addr != b[i].txn.addr) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Traffic, RtStreamIsPeriodicReads) {
  auto cfg = base_cfg(PatternKind::kRtStream, 5);
  cfg.period = 37;
  const Script s = make_script(cfg, 0);
  for (const TrafficItem& item : s) {
    EXPECT_EQ(item.gap, 37u);
    EXPECT_EQ(item.txn.dir, ahbp::ahb::Dir::kRead);
    EXPECT_EQ(item.txn.beats, 8u);
  }
}

TEST(Traffic, DmaAlternatesReadWrite) {
  auto cfg = base_cfg(PatternKind::kDma, 5);
  cfg.dma_burst_beats = 8;
  const Script s = make_script(cfg, 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].txn.dir,
              i % 2 == 0 ? ahbp::ahb::Dir::kRead : ahbp::ahb::Dir::kWrite);
    EXPECT_EQ(s[i].txn.beats, 8u);
  }
}

TEST(Traffic, WritesCarryData) {
  const Script s = make_script(base_cfg(PatternKind::kRandom, 3), 0);
  for (const TrafficItem& item : s) {
    if (item.txn.dir == ahbp::ahb::Dir::kWrite) {
      EXPECT_GE(item.txn.data.size(), item.txn.beats);
    }
  }
}

TEST(Traffic, ScriptBytesSumsTransactions) {
  Script s;
  TrafficItem a;
  a.txn.beats = 4;
  a.txn.size = ahbp::ahb::Size::kWord;
  s.push_back(a);
  TrafficItem b;
  b.txn.beats = 2;
  b.txn.size = ahbp::ahb::Size::kByte;
  s.push_back(b);
  EXPECT_EQ(script_bytes(s), 16u + 2u);
}

TEST(Traffic, ZeroItemsYieldsEmptyScript) {
  auto cfg = base_cfg(PatternKind::kCpu, 1);
  cfg.items = 0;
  EXPECT_TRUE(make_script(cfg, 0).empty());
}

TEST(ScriptSource, PacingHonoursGaps) {
  Script s;
  for (int i = 0; i < 2; ++i) {
    TrafficItem item;
    item.gap = 10;
    item.txn.beats = 1;
    item.txn.burst = ahbp::ahb::Burst::kSingle;
    item.txn.size = ahbp::ahb::Size::kWord;
    s.push_back(item);
  }
  ScriptSource src(std::move(s));
  // First item: gap applies from cycle 0 baseline (earliest 0).
  EXPECT_TRUE(src.ready(0));
  src.pop(0);
  EXPECT_FALSE(src.done());
  src.on_complete(50);
  EXPECT_FALSE(src.ready(59));
  EXPECT_TRUE(src.ready(60));  // 50 + gap 10
  src.pop(60);
  src.on_complete(70);
  EXPECT_TRUE(src.done());
  EXPECT_FALSE(src.ready(1000));
}

TEST(ScriptSource, PopBeforeReadyThrows) {
  Script s(2);
  s[1].gap = 100;
  ScriptSource src(std::move(s));
  src.pop(0);
  src.on_complete(10);
  EXPECT_THROW(src.pop(20), std::logic_error);  // 10 + 100 not reached
  EXPECT_NO_THROW(src.pop(110));
}

TEST(ScriptSource, HugeGapSaturatesInsteadOfWrapping) {
  // now + gap past the end of the cycle range parks the next item one
  // short of kNeverCycle (the "script exhausted" sentinel) instead of
  // wrapping round to a cycle in the past.
  for (const std::uint64_t gap :
       {~std::uint64_t{0}, ahbp::sim::kNeverCycle - 18}) {
    Script s(2);
    s[1].gap = gap;
    ScriptSource src(std::move(s));
    src.pop(0);
    src.on_complete(18);
    EXPECT_FALSE(src.ready(18)) << gap;
    EXPECT_FALSE(src.ready(1'000'000)) << gap;
    EXPECT_EQ(src.next_ready_at(), ahbp::sim::kNeverCycle - 1) << gap;
  }
  // The largest gap that fits lands exactly on the saturation cycle.
  Script s(2);
  s[1].gap = ahbp::sim::kNeverCycle - 1 - 18;
  ScriptSource src(std::move(s));
  src.pop(0);
  src.on_complete(18);
  EXPECT_EQ(src.next_ready_at(), ahbp::sim::kNeverCycle - 1);
}

TEST(ScriptSource, IssuedAndTotalCounters) {
  Script s(3);
  ScriptSource src(std::move(s));
  EXPECT_EQ(src.total(), 3u);
  EXPECT_EQ(src.issued(), 0u);
  src.pop(0);
  EXPECT_EQ(src.issued(), 1u);
}

}  // namespace
