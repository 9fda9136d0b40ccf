// Unit tests for the event-driven kernel: two-phase signals, packed bit
// vectors, delta cycles, edge-filtered subscriptions, timed-event ordering,
// clocks and the VCD writer.  The subscription-order guarantee is
// load-bearing for the RTL fabric (arbiter runs before the write buffer),
// so it is pinned here.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/clock.hpp"
#include "sim/event_kernel.hpp"
#include "sim/vcd.hpp"

namespace {

using namespace ahbp::sim;

// `prefix` followed by `i`, built by appending: GCC 12 -O3 flags the
// `"lit" + std::string` form with a false-positive -Wrestrict.
std::string numbered(const char* prefix, unsigned i) {
  return std::string(prefix).append(std::to_string(i));
}

TEST(Signal, ReadsInitialValue) {
  EventKernel k;
  Signal<int> s(k, "s", 42);
  EXPECT_EQ(s.read(), 42);
}

TEST(Signal, WriteNotVisibleUntilUpdatePhase) {
  EventKernel k;
  Signal<int> s(k, "s", 1);
  s.write(2);
  EXPECT_EQ(s.read(), 1);  // still the old value before the update phase
  k.settle();
  EXPECT_EQ(s.read(), 2);
}

TEST(Signal, LastWriteInDeltaWins) {
  EventKernel k;
  Signal<int> s(k, "s");
  s.write(5);
  s.write(9);
  k.settle();
  EXPECT_EQ(s.read(), 9);
}

TEST(Signal, SubscriberRunsOnChange) {
  EventKernel k;
  Signal<int> s(k, "s");
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  s.subscribe(p);
  s.write(1);
  k.settle();
  EXPECT_EQ(runs, 1);
}

TEST(Signal, NoNotifyWhenValueUnchanged) {
  EventKernel k;
  Signal<int> s(k, "s", 7);
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  s.subscribe(p);
  s.write(7);  // same value: no change, no wakeup
  k.settle();
  EXPECT_EQ(runs, 0);
}

TEST(Signal, RewritingCommittedValueSchedulesNoUpdate) {
  // HDL semantics (SystemC's sc_signal::write): writing the value a signal
  // already holds is not an event.  The kernel stays settled — a snapshot
  // is still legal — and no update phase or wake-up follows.
  EventKernel k;
  Signal<int> s(k, "s", 7);
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  s.subscribe(p);
  s.write(7);
  ahbp::state::StateWriter w;
  EXPECT_NO_THROW(k.save_signals(w));
  k.settle();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(k.stats().deltas, 0u);
  EXPECT_EQ(k.stats().signal_commits, 0u);
}

TEST(Signal, WriteThenRestoreWithinOneDeltaFiresNothing) {
  // A pending write must not be short-circuited by a later write of the
  // committed value: the last write wins, and since it equals the current
  // value the commit changes nothing and wakes nobody.
  EventKernel k;
  Signal<int> s(k, "s", 7);
  int runs = 0;
  Process watcher(k, "watcher", [&] { ++runs; });
  s.subscribe(watcher);
  Process writer(k, "writer", [&] {
    s.write(8);
    s.write(7);
  });
  writer.trigger();
  k.settle();
  EXPECT_EQ(s.read(), 7);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(k.stats().signal_commits, 0u);
}

TEST(Signal, ValueStringPrintsUnsignedAsUnsigned) {
  EventKernel k;
  Signal<std::uint64_t> wide(k, "wide", 0x8000000000000000ULL);
  EXPECT_EQ(wide.value_string(), "9223372036854775808");
  Signal<std::uint64_t> ones(k, "ones", ~0ULL);
  EXPECT_EQ(ones.value_string(), "18446744073709551615");
  Signal<std::uint8_t> byte(k, "byte", 200);
  EXPECT_EQ(byte.value_string(), "200");
  Signal<int> neg(k, "neg", -5);
  EXPECT_EQ(neg.value_string(), "-5");
}

TEST(BitVector, CommitCountsOneChangePerFlippedBit) {
  EventKernel k;
  BitVector v(k, "v", 32, 0x0000000F);
  v.write(0x000000F0);  // 8 bits flip
  k.settle();
  EXPECT_EQ(v.read(), 0xF0u);
  EXPECT_EQ(k.stats().signal_commits, 8u);
  EXPECT_EQ(k.stats().deltas, 1u);
}

TEST(BitVector, OnlySubscribersOfChangedBitsWake) {
  EventKernel k;
  BitVector v(k, "v", 8);
  std::vector<int> runs(8, 0);
  std::vector<std::unique_ptr<Process>> ps;
  for (unsigned i = 0; i < 8; ++i) {
    ps.push_back(std::make_unique<Process>(k, numbered("p", i),
                                           [&runs, i] { ++runs[i]; }));
    v.subscribe_bit(i, *ps.back());
  }
  int word_runs = 0;  // a whole-word subscriber wakes on any change
  Process word(k, "word", [&] { ++word_runs; });
  v.subscribe(word);
  v.write(0b00100101);
  k.settle();
  EXPECT_EQ(runs, (std::vector<int>{1, 0, 1, 0, 0, 1, 0, 0}));
  EXPECT_EQ(word_runs, 1);
}

TEST(BitVector, WakesInAscendingBitOrder) {
  // Subscribed high bit first: the wake order is still bit order, as if
  // one-bit signals had committed in bit order.
  EventKernel k;
  BitVector v(k, "v", 8);
  std::vector<unsigned> order;
  Process hi(k, "hi", [&] { order.push_back(7); });
  Process lo(k, "lo", [&] { order.push_back(0); });
  v.subscribe_bit(7, hi);
  v.subscribe_bit(0, lo);
  v.write(0x81);
  k.settle();
  EXPECT_EQ(order, (std::vector<unsigned>{0, 7}));
}

TEST(BitVector, MultiBitSubscriberRunsOncePerDelta) {
  EventKernel k;
  BitVector v(k, "v", 16);
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  for (unsigned i = 0; i < 4; ++i) {
    v.subscribe_bit(i, p);
  }
  v.write(0xF);  // all four subscribed bits change in one delta
  k.settle();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(k.stats().process_activations, 1u);
  EXPECT_EQ(k.stats().signal_commits, 4u);
}

TEST(BitVector, RewritingCommittedWordQueuesNoUpdate) {
  EventKernel k;
  BitVector v(k, "v", 32, 0x1234);
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  v.subscribe_bit(2, p);
  v.write(0x1234);
  v.write_masked(0xFF, 0x34);
  ahbp::state::StateWriter w;
  EXPECT_NO_THROW(k.save_signals(w));  // still settled: nothing queued
  k.settle();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(k.stats().deltas, 0u);
  EXPECT_EQ(k.stats().signal_commits, 0u);
}

TEST(BitVector, WriteMaskedKeepsOtherPendingBits) {
  EventKernel k;
  BitVector v(k, "v", 16);
  v.write(0x00F0);               // pending: bits 4..7
  v.write_masked(0x000F, 0xFFFF);  // pending: bits 0..3, keep 4..7
  v.write_masked(0xF000, 0x0000);  // no-op on bits 12..15
  EXPECT_EQ(v.read(), 0u);       // nothing visible before the update phase
  k.settle();
  EXPECT_EQ(v.read(), 0x00FFu);
  EXPECT_EQ(k.stats().signal_commits, 8u);
}

TEST(BitVector, BitsAboveWidthAreMaskedOff) {
  EventKernel k;
  BitVector v(k, "v", 12, 0xFFFF);
  EXPECT_EQ(v.read(), 0xFFFu);
  v.write(0xF000);  // only bits above the width differ from zero
  k.settle();
  EXPECT_EQ(v.read(), 0u);
  EXPECT_EQ(k.stats().signal_commits, 12u);
  v.write_masked(~0ULL, ~0ULL);
  k.settle();
  EXPECT_EQ(v.read(), 0xFFFu);
  EXPECT_TRUE(v.bit(11));
  EXPECT_FALSE(v.bit(12));
  BitVector full(k, "full", 64, ~0ULL);
  EXPECT_EQ(full.read(), ~0ULL);
  EXPECT_EQ(full.value_string(), "18446744073709551615");
}

TEST(BitVector, RejectsBadWidthAndBit) {
  EventKernel k;
  EXPECT_THROW(BitVector(k, "zero", 0), std::logic_error);
  EXPECT_THROW(BitVector(k, "wide", 65), std::logic_error);
  EXPECT_TRUE(k.signals().empty());
  BitVector v(k, "v", 4);
  Process p(k, "p", [] {});
  EXPECT_THROW(v.subscribe_bit(4, p), std::logic_error);
}

TEST(BitVector, SnapshotRestoreRoundTrip) {
  EventKernel k;
  BitVector v(k, "v", 24);
  v.write(0xABCDEF);
  k.settle();
  EXPECT_EQ(v.snapshot_value(), 0xABCDEFu);
  EventKernel k2;
  BitVector r(k2, "v", 24);
  int runs = 0;
  Process p(k2, "p", [&] { ++runs; });
  r.subscribe_bit(0, p);
  r.restore_value(v.snapshot_value() | 0xFF000000);  // high bits dropped
  EXPECT_EQ(r.read(), 0xABCDEFu);
  EXPECT_EQ(r.value_string(), std::to_string(0xABCDEF));
  // Restore is silent, and the restored word is the committed one: writing
  // it back is not an event.
  r.write(0xABCDEF);
  k2.settle();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(k2.stats().deltas, 0u);
}

TEST(BitVector, MatchesOneBitSignalsEventForEvent) {
  // The packing contract: a BitVector with per-bit subscribers produces
  // the same deltas, activations, commits and wake order as one
  // Signal<bool> per bit written in bit order.
  constexpr unsigned kWidth = 16;
  struct Rig {
    EventKernel k;
    std::vector<unsigned> log;
    std::vector<std::unique_ptr<Process>> nibs;
  };
  Rig a, b;
  std::vector<std::unique_ptr<Signal<bool>>> bits;
  BitVector packed(b.k, "packed", kWidth);
  for (unsigned i = 0; i < kWidth; ++i) {
    bits.push_back(std::make_unique<Signal<bool>>(a.k, numbered("b", i)));
  }
  for (Rig* r : {&a, &b}) {
    // Subscribe the nibble processes high nibble first, so the wake order
    // comes from the commits, not from construction order.
    for (unsigned n = kWidth / 4; n-- > 0;) {
      std::vector<unsigned>* log = &r->log;
      r->nibs.push_back(std::make_unique<Process>(
          r->k, numbered("nib", n), [log, n] { log->push_back(n); }));
      for (unsigned i = n * 4; i < n * 4 + 4; ++i) {
        if (r == &a) {
          bits[i]->subscribe(*r->nibs.back());
        } else {
          packed.subscribe_bit(i, *r->nibs.back());
        }
      }
    }
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int step = 0; step < 200; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t word = step % 5 == 0 ? packed.read() : x;
    for (unsigned i = 0; i < kWidth; ++i) {
      bits[i]->write(((word >> i) & 1U) != 0);
    }
    packed.write(word);
    a.k.settle();
    b.k.settle();
  }
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.k.stats().deltas, b.k.stats().deltas);
  EXPECT_EQ(a.k.stats().process_activations, b.k.stats().process_activations);
  EXPECT_EQ(a.k.stats().signal_commits, b.k.stats().signal_commits);
  EXPECT_GT(b.k.stats().signal_commits, 200u);
}

TEST(Signal, PosedgeSubscriptionFiltersEdges) {
  EventKernel k;
  Signal<bool> s(k, "s", false);
  int pos = 0, neg = 0, any = 0;
  Process pp(k, "pos", [&] { ++pos; });
  Process pn(k, "neg", [&] { ++neg; });
  Process pa(k, "any", [&] { ++any; });
  s.subscribe(pp, Edge::kPos);
  s.subscribe(pn, Edge::kNeg);
  s.subscribe(pa, Edge::kAny);
  s.write(true);
  k.settle();
  s.write(false);
  k.settle();
  EXPECT_EQ(pos, 1);
  EXPECT_EQ(neg, 1);
  EXPECT_EQ(any, 2);
}

TEST(Signal, IntegerEdgeSemantics) {
  // For integral signals, "rising" means zero -> nonzero.
  EventKernel k;
  Signal<int> s(k, "s", 0);
  int pos = 0;
  Process p(k, "p", [&] { ++pos; });
  s.subscribe(p, Edge::kPos);
  s.write(3);
  k.settle();
  s.write(5);  // nonzero -> nonzero: not a rising edge
  k.settle();
  EXPECT_EQ(pos, 1);
}

TEST(Delta, ChainedCombinationalProcessesCascade) {
  // a -> (p1) -> b -> (p2) -> c settles across delta rounds in one settle().
  EventKernel k;
  Signal<int> a(k, "a"), b(k, "b"), c(k, "c");
  Process p1(k, "p1", [&] { b.write(a.read() + 1); });
  Process p2(k, "p2", [&] { c.write(b.read() + 1); });
  a.subscribe(p1);
  b.subscribe(p2);
  a.write(10);
  k.settle();
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(c.read(), 12);
  EXPECT_GE(k.stats().deltas, 2u);
}

TEST(Delta, ProcessDedupedWithinOneRound) {
  EventKernel k;
  Signal<int> a(k, "a"), b(k, "b");
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  a.subscribe(p);
  b.subscribe(p);
  a.write(1);
  b.write(1);
  k.settle();
  EXPECT_EQ(runs, 1);  // both changes wake it once in the same round
}

TEST(Delta, SubscriptionOrderIsExecutionOrder) {
  // The RTL fabric depends on this: processes subscribed to the same
  // signal run in subscription order within a delta round.
  EventKernel k;
  Signal<bool> clk(k, "clk", false);
  std::vector<int> order;
  Process p1(k, "p1", [&] { order.push_back(1); });
  Process p2(k, "p2", [&] { order.push_back(2); });
  Process p3(k, "p3", [&] { order.push_back(3); });
  clk.subscribe(p1, Edge::kPos);
  clk.subscribe(p2, Edge::kPos);
  clk.subscribe(p3, Edge::kPos);
  clk.write(true);
  k.settle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimedEvents, FireInTimeOrder) {
  EventKernel k;
  std::vector<int> seq;
  k.schedule(20, [&] { seq.push_back(2); });
  k.schedule(10, [&] { seq.push_back(1); });
  k.schedule(30, [&] { seq.push_back(3); });
  k.run_until(100);
  EXPECT_EQ(seq, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 100u);
}

TEST(TimedEvents, SameTimeFifoOrder) {
  EventKernel k;
  std::vector<int> seq;
  k.schedule(5, [&] { seq.push_back(1); });
  k.schedule(5, [&] { seq.push_back(2); });
  k.run_until(5);
  EXPECT_EQ(seq, (std::vector<int>{1, 2}));
}

TEST(TimedEvents, RunUntilStopsAtBoundary) {
  EventKernel k;
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(11, [&] { ++fired; });
  k.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(k.idle());
  k.run_until(11);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(k.idle());
}

TEST(TimedEvents, NestedSchedulingWorks) {
  EventKernel k;
  int fired = 0;
  k.schedule(1, [&] {
    ++fired;
    k.schedule(1, [&] { ++fired; });
  });
  k.run_until(5);
  EXPECT_EQ(fired, 2);
}

// The timed fast path: a tick fed by the ring alone (the clock's edge)
// dispatches without a sort, a tick that mixes ring and heap events merges
// them by seq, and a handler's delay-0 event runs in the same timed phase.

TEST(TimedEvents, DelayZeroFromClockEdgeHandlerRunsBeforeCommit) {
  EventKernel k;
  Clock clk(k, "clk", 2);  // first rising edge at tick 1
  std::vector<std::string> order;
  bool clk_seen_by_chained = true;
  // Same tick as the edge, scheduled after the clock armed itself.
  k.schedule(1, [&] {
    order.push_back("edge-handler");
    k.schedule(0, [&] {
      order.push_back("chained");
      clk_seen_by_chained = clk.signal().read();
    });
  });
  k.run_until(1);
  EXPECT_EQ(order, (std::vector<std::string>{"edge-handler", "chained"}));
  // Both handlers run in tick 1's timed phase, before the edge commits.
  EXPECT_FALSE(clk_seen_by_chained);
  EXPECT_TRUE(clk.signal().read());
  EXPECT_EQ(k.now(), 1u);
  EXPECT_EQ(k.stats().timed_events, 3u);  // toggle + handler + chained
}

TEST(TimedEvents, HeapAndRingEventsOnOneTickKeepSeqOrder) {
  EventKernel k;
  std::vector<int> order;
  // Far future: beyond the ring window, so these go to the overflow heap.
  static_assert(EventKernel::kTimedWheel <= 20);
  k.schedule(20, [&] { order.push_back(1); });
  k.schedule(30, [&] { order.push_back(5); });
  k.schedule(20, [&] { order.push_back(2); });
  k.run_until(10);
  // Near future from tick 10: the same tick 20, now through the ring.
  k.schedule(10, [&] { order.push_back(3); });
  k.schedule(10, [&] {
    order.push_back(4);
    k.schedule(0, [&] { order.push_back(40); });
  });
  k.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 40}));
  k.run_until(30);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 40, 5}));
  EXPECT_TRUE(k.idle());
}

TEST(TimedEvents, EachDispatchedEventCountsOnce) {
  EventKernel k;
  Clock clk(k, "clk", 2);
  std::uint64_t handlers = 0;
  struct Chain {
    EventKernel* k;
    std::uint64_t* n;
    int left;
    void operator()() {
      ++*n;
      if (left-- > 0) {
        k->schedule(0, *this);  // same tick
      }
    }
  };
  k.schedule(3, Chain{&k, &handlers, 2});    // ring, on a clock edge
  k.schedule(40, Chain{&k, &handlers, 0});   // heap
  k.schedule(40, [&handlers] { ++handlers; });
  k.run_until(41);
  clk.stop();
  k.run_until(100);  // the pending toggle drains as a no-op handler
  // A toggle at every tick in [1, 41] (21 of them rising), one drained
  // toggle at 42, and 3 + 1 + 1 handlers.
  EXPECT_EQ(clk.posedges(), 21u);
  EXPECT_EQ(handlers, 5u);
  EXPECT_EQ(k.stats().timed_events, 41u + 1u + handlers);
  EXPECT_TRUE(k.idle());
}

TEST(Clock, GeneratesExpectedPosedges) {
  EventKernel k;
  Clock clk(k, "clk", 2);
  int edges = 0;
  Process p(k, "p", [&] { ++edges; });
  clk.signal().subscribe(p, Edge::kPos);
  k.run_until(20);
  // period 2: rising at t=1,3,5,...,19 -> 10 edges
  EXPECT_EQ(edges, 10);
  EXPECT_EQ(clk.posedges(), 10u);
}

TEST(Clock, RejectsOddOrTinyPeriod) {
  EventKernel k;
  EXPECT_THROW(Clock(k, "c1", 1), std::invalid_argument);
  EXPECT_THROW(Clock(k, "c2", 3), std::invalid_argument);
}

TEST(Clock, StopHaltsToggling) {
  EventKernel k;
  Clock clk(k, "clk", 2);
  k.run_until(10);
  const auto edges = clk.posedges();
  clk.stop();
  k.run_until(20);
  EXPECT_EQ(clk.posedges(), edges);
}

TEST(Stats, CountersAdvance) {
  EventKernel k;
  Signal<int> s(k, "s");
  Process p(k, "p", [&] {});
  s.subscribe(p);
  s.write(1);
  k.settle();
  EXPECT_GE(k.stats().deltas, 1u);
  EXPECT_GE(k.stats().signal_commits, 1u);
  EXPECT_GE(k.stats().process_activations, 1u);
}

TEST(Stats, TimedEventCounter) {
  EventKernel k;
  k.schedule(1, [] {});
  k.schedule(2, [] {});
  k.run_until(5);
  EXPECT_EQ(k.stats().timed_events, 2u);
}

TEST(Vcd, EmitsHeaderAndChanges) {
  EventKernel k;
  Signal<bool> s(k, "sig_a", false);
  Signal<std::uint32_t> v(k, "bus_b", 0);
  std::ostringstream out;
  VcdWriter vcd(out);
  vcd.add_signal(s, 1);
  vcd.add_signal(v, 8);
  vcd.write_header();
  vcd.sample(0);
  s.write(true);
  v.write(0xA5);
  k.settle();
  vcd.sample(1);
  const std::string text = out.str();
  EXPECT_NE(text.find("$timescale"), std::string::npos);
  EXPECT_NE(text.find("sig_a"), std::string::npos);
  EXPECT_NE(text.find("b10100101"), std::string::npos);
  EXPECT_GE(vcd.changes(), 3u);
}

TEST(Vcd, NoChangeNoEmission) {
  EventKernel k;
  Signal<bool> s(k, "s", false);
  std::ostringstream out;
  VcdWriter vcd(out);
  vcd.add_signal(s);
  vcd.write_header();
  vcd.sample(0);
  const auto after_first = vcd.changes();
  vcd.sample(1);  // no change between samples
  EXPECT_EQ(vcd.changes(), after_first);
}

TEST(Vcd, SampleBeforeHeaderThrows) {
  EventKernel k;
  Signal<bool> s(k, "s");
  std::ostringstream out;
  VcdWriter vcd(out);
  vcd.add_signal(s);
  EXPECT_THROW(vcd.sample(0), std::logic_error);
}

TEST(Process, ManualTriggerRuns) {
  EventKernel k;
  int runs = 0;
  Process p(k, "p", [&] { ++runs; });
  p.trigger();
  k.settle();
  EXPECT_EQ(runs, 1);
}

TEST(Signal, RegistryTracksSignals) {
  EventKernel k;
  EXPECT_TRUE(k.signals().empty());
  {
    Signal<int> s(k, "s");
    EXPECT_EQ(k.signals().size(), 1u);
  }
  EXPECT_TRUE(k.signals().empty());  // unregistered on destruction
}

}  // namespace
