// Protocol property checkers (§3.5 second family): every rule must fire on
// a broken stream and stay silent on a legal one — fault injection for the
// checkers themselves.

#include <gtest/gtest.h>

#include "assertions/assert.hpp"
#include "assertions/bus_checker.hpp"
#include "assertions/violation.hpp"

namespace {

using namespace ahbp::chk;
using namespace ahbp::ahb;

BusCycleView idle_view(ahbp::sim::Cycle c) {
  BusCycleView v;
  v.cycle = c;
  v.htrans = Trans::kIdle;
  v.hready = true;
  v.hmaster = kNoMaster;
  return v;
}

BusCycleView beat_view(ahbp::sim::Cycle c, MasterId m, Trans tr, Addr addr,
                       Burst b, bool ready = true, Dir dir = Dir::kRead) {
  BusCycleView v;
  v.cycle = c;
  v.hmaster = m;
  v.htrans = tr;
  v.haddr = addr;
  v.hburst = b;
  v.hsize = Size::kWord;
  v.hwrite = dir;
  v.hready = ready;
  return v;
}

CheckerConfig cfg2() {
  return CheckerConfig{.masters = 2, .write_buffer_depth = 4};
}

TEST(ViolationLog, RecordsAndCounts) {
  ViolationLog log;
  log.record(Severity::kError, 10, "rule.a", "boom");
  log.record(Severity::kWarning, 11, "rule.b", "meh");
  EXPECT_EQ(log.count(), 2u);
  EXPECT_EQ(log.errors(), 1u);
  EXPECT_EQ(log.warnings(), 1u);
  EXPECT_EQ(log.count_rule("rule.a"), 1u);
  EXPECT_EQ(log.count_rule("rule.c"), 0u);
  EXPECT_NE(log.to_string().find("rule.a"), std::string::npos);
}

TEST(ViolationLog, ToStringTruncates) {
  ViolationLog log;
  for (std::uint64_t i = 0; i < 30; ++i) {
    log.record(Severity::kError, i, "r", "d");
  }
  EXPECT_NE(log.to_string(5).find("more"), std::string::npos);
}

TEST(BusChecker, CleanBurstPasses) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  // Master 0 requests, then a clean INCR4 read burst.
  BusCycleView v = idle_view(0);
  v.request_mask = 0x1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4));
  c.on_cycle(beat_view(2, 0, Trans::kSeq, 0x104, Burst::kIncr4));
  c.on_cycle(beat_view(3, 0, Trans::kSeq, 0x108, Burst::kIncr4));
  c.on_cycle(beat_view(4, 0, Trans::kSeq, 0x10C, Burst::kIncr4));
  c.on_cycle(idle_view(5));
  EXPECT_EQ(log.count(), 0u);
  EXPECT_EQ(c.cycles_checked(), 6u);
}

TEST(BusChecker, GrantWithoutRequestFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  c.on_cycle(idle_view(0));  // nobody requested
  c.on_cycle(beat_view(1, 1, Trans::kNonSeq, 0x100, Burst::kSingle));
  EXPECT_EQ(log.count_rule("ahb.grant-implies-request"), 1u);
}

TEST(BusChecker, PseudoMasterExemptFromGrantRule) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  c.on_cycle(idle_view(0));
  // Master id 2 == write-buffer pseudo-master for a 2-master platform.
  c.on_cycle(beat_view(1, 2, Trans::kNonSeq, 0x100, Burst::kSingle));
  EXPECT_EQ(log.count_rule("ahb.grant-implies-request"), 0u);
}

TEST(BusChecker, StalledAddressMustHold) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4,
                       /*ready=*/false));
  // Address changed while the previous cycle was stalled.
  c.on_cycle(beat_view(2, 0, Trans::kNonSeq, 0x200, Burst::kIncr4));
  EXPECT_EQ(log.count_rule("ahb.stable-when-stalled"), 1u);
}

TEST(BusChecker, StalledHoldIsLegal) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4, false));
  c.on_cycle(beat_view(2, 0, Trans::kNonSeq, 0x100, Burst::kIncr4, true));
  c.on_cycle(beat_view(3, 0, Trans::kSeq, 0x104, Burst::kIncr4, true));
  EXPECT_EQ(log.count(), 0u);
}

TEST(BusChecker, SeqAddressMismatchFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4));
  c.on_cycle(beat_view(2, 0, Trans::kSeq, 0x10C, Burst::kIncr4));  // skip!
  EXPECT_EQ(log.count_rule("ahb.seq-addr"), 1u);
}

TEST(BusChecker, WrapSeqAddressesAccepted) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x38, Burst::kWrap4));
  c.on_cycle(beat_view(2, 0, Trans::kSeq, 0x3C, Burst::kWrap4));
  c.on_cycle(beat_view(3, 0, Trans::kSeq, 0x30, Burst::kWrap4));  // wrap
  c.on_cycle(beat_view(4, 0, Trans::kSeq, 0x34, Burst::kWrap4));
  EXPECT_EQ(log.count(), 0u);
}

TEST(BusChecker, SeqWithoutBurstFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  c.on_cycle(idle_view(0));
  c.on_cycle(beat_view(1, 0, Trans::kSeq, 0x104, Burst::kIncr4));
  EXPECT_EQ(log.count_rule("ahb.first-is-nonseq"), 1u);
}

TEST(BusChecker, EarlyBurstTerminationFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 3;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4));
  c.on_cycle(beat_view(2, 0, Trans::kSeq, 0x104, Burst::kIncr4));
  // New NONSEQ after only 2 of 4 beats.
  c.on_cycle(beat_view(3, 1, Trans::kNonSeq, 0x800, Burst::kSingle));
  EXPECT_EQ(log.count_rule("ahb.burst-len"), 1u);
}

TEST(BusChecker, ControlChangeMidBurstFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x100, Burst::kIncr4));
  auto bad = beat_view(2, 0, Trans::kSeq, 0x104, Burst::kIncr4);
  bad.hwrite = Dir::kWrite;  // direction flips mid-burst
  c.on_cycle(bad);
  EXPECT_EQ(log.count_rule("ahb.seq-ctrl"), 1u);
}

TEST(BusChecker, MisalignedAddressFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x102, Burst::kSingle));
  EXPECT_EQ(log.count_rule("ahb.align"), 1u);
}

TEST(BusChecker, Incr1KbCrossFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.request_mask = 1;
  c.on_cycle(v);
  // INCR16 of words starting at 0x3D0 crosses 0x400.
  c.on_cycle(beat_view(1, 0, Trans::kNonSeq, 0x3D0, Burst::kIncr16));
  EXPECT_EQ(log.count_rule("ahb.1kb"), 1u);
}

TEST(BusChecker, WbufDepthOverflowFlagged) {
  ViolationLog log;
  BusChecker c(cfg2(), log);
  BusCycleView v = idle_view(0);
  v.wbuf_occupancy = 5;  // depth is 4
  c.on_cycle(v);
  EXPECT_EQ(log.count_rule("ahbp.wbuf-depth"), 1u);
}

TEST(BusChecker, WbufDisabledMustBeEmpty) {
  ViolationLog log;
  BusChecker c(CheckerConfig{.masters = 2, .write_buffer_depth = 0}, log);
  BusCycleView v = idle_view(0);
  v.wbuf_occupancy = 1;
  c.on_cycle(v);
  EXPECT_EQ(log.count_rule("ahbp.wbuf-depth"), 1u);
}

TEST(QosChecker, RtMissRecordedAsWarning) {
  QosRegisterFile regs(2);
  regs.program(0, QosConfig{MasterClass::kRealTime, 20});
  regs.program(1, QosConfig{MasterClass::kNonRealTime, 20});
  ViolationLog log;
  QosChecker q(regs, log);
  q.on_grant(0, 25, 100);  // RT waited 25 > 20
  q.on_grant(0, 10, 120);  // within objective
  q.on_grant(1, 500, 130); // NRT: no objective on latency
  EXPECT_EQ(q.misses(), 1u);
  EXPECT_EQ(log.warnings(), 1u);
  EXPECT_EQ(log.errors(), 0u);
  EXPECT_EQ(log.count_rule("ahbp.qos-objective"), 1u);
}

TEST(ModelAssert, ThrowsWithLocation) {
  try {
    AHBP_ASSERT_MSG(false, "broken invariant");
    FAIL() << "should have thrown";
  } catch (const ModelAssertError& e) {
    EXPECT_NE(std::string(e.what()).find("broken invariant"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_chk.cpp"), std::string::npos);
  }
}

TEST(ModelAssert, PassingAssertIsSilent) {
  EXPECT_NO_THROW(AHBP_ASSERT(1 + 1 == 2));
}

// AHBP_ASSERT exists precisely because plain assert() vanishes under
// NDEBUG: a Release simulator that silently skips invariant checks keeps
// producing wrong numbers.  The default build type (RelWithDebInfo) and
// every CI configuration define NDEBUG, so this test executing at all is
// the audit that the macro never grew an NDEBUG gate.
TEST(ModelAssert, StaysArmedInReleaseBuilds) {
#ifdef NDEBUG
  // Running under NDEBUG: the throw below proves Release builds keep the
  // invariant checks armed (a <cassert>-style macro would be a no-op here).
  EXPECT_THROW(AHBP_ASSERT(false), ModelAssertError);
#else
  // Debug build: the property trivially holds, but keep the behavioural
  // check so the test body never goes empty.
  EXPECT_THROW(AHBP_ASSERT(false), ModelAssertError);
#endif
}

}  // namespace
