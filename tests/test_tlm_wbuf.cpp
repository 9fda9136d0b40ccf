// The AHB+ write buffer: capacity, FIFO order, overlap detection (RAW
// ordering), urgency escalation and profiling counters.

#include <gtest/gtest.h>

#include "assertions/assert.hpp"
#include "tlm/write_buffer.hpp"

namespace {

using namespace ahbp;
using tlm::WriteBuffer;

ahb::Transaction write_txn(ahb::Addr addr, unsigned beats,
                           ahb::Burst burst = ahb::Burst::kIncr) {
  ahb::Transaction t;
  t.dir = ahb::Dir::kWrite;
  t.addr = addr;
  t.size = ahb::Size::kWord;
  t.burst = burst;
  t.beats = beats;
  t.data.assign(beats, 0xAB);
  return t;
}

TEST(WriteBuffer, ZeroDepthAbsorbsNothing) {
  WriteBuffer w(0);
  EXPECT_FALSE(w.enabled());
  EXPECT_FALSE(w.absorb(write_txn(0x100, 4), 0));
  EXPECT_FALSE(w.requesting());
  EXPECT_FALSE(w.urgent());
}

TEST(WriteBuffer, AbsorbUpToDepth) {
  WriteBuffer w(2);
  EXPECT_TRUE(w.absorb(write_txn(0x100, 4), 0));
  EXPECT_TRUE(w.absorb(write_txn(0x200, 4), 1));
  EXPECT_TRUE(w.full());
  EXPECT_FALSE(w.absorb(write_txn(0x300, 4), 2));
  EXPECT_EQ(w.occupancy(), 2u);
}

TEST(WriteBuffer, FifoOrderPreserved) {
  WriteBuffer w(4);
  w.absorb(write_txn(0x100, 1), 0);
  w.absorb(write_txn(0x200, 1), 1);
  w.absorb(write_txn(0x300, 1), 2);
  EXPECT_EQ(w.front().addr, 0x100u);
  EXPECT_EQ(w.peek(1).addr, 0x200u);
  EXPECT_EQ(w.pop_front(10).addr, 0x100u);
  EXPECT_EQ(w.front().addr, 0x200u);
}

TEST(WriteBuffer, RejectsReads) {
  WriteBuffer w(4);
  ahb::Transaction t = write_txn(0x0, 1);
  t.dir = ahb::Dir::kRead;
  EXPECT_THROW(w.absorb(t, 0), chk::ModelAssertError);
}

TEST(WriteBuffer, RequestsWheneverOccupied) {
  WriteBuffer w(4);
  EXPECT_FALSE(w.requesting());
  w.absorb(write_txn(0x100, 1), 0);
  EXPECT_TRUE(w.requesting());  // one entry is enough: nothing is stranded
  w.absorb(write_txn(0x200, 1), 1);
  EXPECT_TRUE(w.requesting());
  w.pop_front(2);
  EXPECT_TRUE(w.requesting());
  w.pop_front(3);
  EXPECT_FALSE(w.requesting());
}

TEST(WriteBuffer, UrgentWhenFull) {
  WriteBuffer w(1);
  EXPECT_FALSE(w.urgent());
  w.absorb(write_txn(0x100, 1), 0);
  EXPECT_TRUE(w.urgent());
}

TEST(WriteBuffer, HazardFlagEscalatesAndClears) {
  WriteBuffer w(4);
  w.absorb(write_txn(0x100, 1), 0);
  EXPECT_FALSE(w.urgent());
  w.flag_hazard();
  EXPECT_TRUE(w.urgent());
  w.clear_hazard_if_unneeded(/*still=*/true);
  EXPECT_TRUE(w.urgent());
  w.clear_hazard_if_unneeded(/*still=*/false);
  EXPECT_FALSE(w.urgent());
}

TEST(WriteBuffer, OverlapsIncrRange) {
  WriteBuffer w(4);
  w.absorb(write_txn(0x100, 4), 0);  // covers [0x100, 0x110)
  EXPECT_TRUE(w.overlaps(0x10C, 0x110));
  EXPECT_TRUE(w.overlaps(0x0F0, 0x104));
  EXPECT_FALSE(w.overlaps(0x110, 0x120));
  EXPECT_FALSE(w.overlaps(0x0F0, 0x100));
}

TEST(WriteBuffer, OverlapsWrapWindow) {
  WriteBuffer w(4);
  // WRAP4 of words at 0x38 wraps within [0x30, 0x40).
  w.absorb(write_txn(0x38, 4, ahb::Burst::kWrap4), 0);
  EXPECT_TRUE(w.overlaps(0x30, 0x34));  // wrapped portion covered
  EXPECT_FALSE(w.overlaps(0x40, 0x44));
}

TEST(WriteBuffer, OverlapClearsAfterDrain) {
  WriteBuffer w(4);
  w.absorb(write_txn(0x100, 4), 0);
  ASSERT_TRUE(w.overlaps(0x100, 0x104));
  w.pop_front(5);
  EXPECT_FALSE(w.overlaps(0x100, 0x104));
}

TEST(WriteBuffer, ProfileCountersTrackLifecycle) {
  WriteBuffer w(2);
  w.absorb(write_txn(0x100, 1), 0);
  w.absorb(write_txn(0x200, 1), 0);
  w.count_full_stall();
  w.count_bypass();
  w.count_forward();
  w.pop_front(3);
  w.sample();
  const auto& p = w.profile();
  EXPECT_EQ(p.absorbed, 2u);
  EXPECT_EQ(p.drained, 1u);
  EXPECT_EQ(p.full_stalls, 1u);
  EXPECT_EQ(p.bypassed, 1u);
  EXPECT_EQ(p.forwards, 1u);
  EXPECT_EQ(p.occupancy.count(), 1u);
  EXPECT_EQ(p.occupancy.max(), 1u);
}

TEST(WriteBuffer, PopEmptyAsserts) {
  WriteBuffer w(2);
  EXPECT_THROW(w.pop_front(0), chk::ModelAssertError);
  EXPECT_THROW(w.front(), chk::ModelAssertError);
}

}  // namespace
