// DdrcEngine behaviour: transaction decomposition, read/write streaming,
// posted-write drains, BI hints, refresh admission — plus the property
// that every command the engine ever issues passes the independent
// TimingChecker (the §3.5 property-checking family applied to the memory
// side).

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "ddr/scheduler.hpp"
#include "ddr/timing_checker.hpp"

namespace {

using namespace ahbp::ddr;
using ahbp::ahb::Addr;
using ahbp::ahb::Word;
using ahbp::sim::Cycle;

Geometry geom4() {
  Geometry g;
  g.banks = 4;
  g.rows = 64;
  g.cols = 32;
  g.col_bytes = 4;
  return g;
}

MemRequest read_req(Addr addr, unsigned beats,
                    ahbp::ahb::Burst burst = ahbp::ahb::Burst::kIncr) {
  MemRequest r;
  r.is_write = false;
  r.addr = addr;
  r.beat_bytes = 4;
  r.beats = beats;
  r.burst = burst;
  return r;
}

MemRequest write_req(Addr addr, unsigned beats) {
  MemRequest r = read_req(addr, beats);
  r.is_write = true;
  return r;
}

/// Drive the engine until the current transaction's bus side completes,
/// checking every issued command.  Returns the completion cycle.
Cycle drain_txn(DdrcEngine& e, TimingChecker& chk, Cycle now,
                std::vector<Word>* read_out = nullptr,
                const std::vector<Word>* write_in = nullptr) {
  unsigned wi = 0;
  for (; now < 100000; ++now) {
    chk.observe(e.step(now), now);
    if (e.read_beat_available(now)) {
      const Word w = e.take_read_beat(now);
      if (read_out) {
        read_out->push_back(w);
      }
    }
    if (write_in && wi < write_in->size() && e.write_beat_ready(now)) {
      e.put_write_beat(now, (*write_in)[wi++]);
    }
    if (e.done()) {
      e.finish();
      return now;
    }
  }
  ADD_FAILURE() << "transaction did not complete";
  return now;
}

TEST(DdrcEngine, SingleReadCompletesWithCorrectLatency) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  e.memory().write(0x40, 0xDEADBEEF, 4);
  e.begin(read_req(0x40, 1, ahbp::ahb::Burst::kSingle), 10);
  std::vector<Word> data;
  const Cycle done = drain_txn(e, chk, 10, &data);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], 0xDEADBEEFu);
  // ACT@10 (tRCD=2) -> RD@12 (tCL=2) -> beat@14.
  EXPECT_EQ(done, 14u);
  EXPECT_TRUE(chk.clean()) << chk.violations().size();
}

TEST(DdrcEngine, BurstReadStreamsOneBeatPerCycle) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  for (unsigned i = 0; i < 8; ++i) {
    e.memory().write(0x80 + 4 * i, 0x100 + i, 4);
  }
  e.begin(read_req(0x80, 8), 0);
  std::vector<Word> data;
  const Cycle done = drain_txn(e, chk, 0, &data);
  ASSERT_EQ(data.size(), 8u);
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(data[i], 0x100u + i);
  }
  // ACT@0 -> RD@2 -> beats 4..11.
  EXPECT_EQ(done, 11u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, WriteIsPostedAndDrainsInBackground) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  const std::vector<Word> payload{1, 2, 3, 4};
  e.begin(write_req(0x100, 4), 0);
  const Cycle done = drain_txn(e, chk, 0, nullptr, &payload);
  // Posted: bus side completes as fast as beats stream (cycle per beat).
  EXPECT_LE(done, 6u);
  // Data is already visible (engine writes through on acceptance).
  EXPECT_EQ(e.memory().read(0x100, 4), 1u);
  EXPECT_EQ(e.memory().read(0x10C, 4), 4u);
  // Background drain still holds a chunk until the column command issues.
  Cycle now = done + 1;
  while (e.pending_write_chunks() > 0 && now < 1000) {
    chk.observe(e.step(now), now);
    ++now;
  }
  EXPECT_EQ(e.pending_write_chunks(), 0u);
  EXPECT_TRUE(chk.clean());
  EXPECT_EQ(e.banks().counters().writes, 1u);
}

TEST(DdrcEngine, ReadAfterPostedWriteSameRowIsCoherent) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  const std::vector<Word> payload{0xAA, 0xBB};
  e.begin(write_req(0x200, 2), 0);
  Cycle now = drain_txn(e, chk, 0, nullptr, &payload) + 1;
  e.begin(read_req(0x200, 2), now);
  std::vector<Word> data;
  drain_txn(e, chk, now, &data);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0], 0xAAu);
  EXPECT_EQ(data[1], 0xBBu);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, RowCrossingBurstSplitsChunks) {
  const Geometry g = geom4();
  DdrcEngine e(toy_timing(), g);
  TimingChecker chk(toy_timing(), g);
  // Start 2 columns before the end of a row: beats span two (bank,row)s.
  const Addr start = g.row_bytes() - 8;
  e.begin(read_req(start, 4), 0);
  std::vector<Word> data;
  drain_txn(e, chk, 0, &data);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_TRUE(chk.clean());
  // Two activates: one per row/bank touched.
  EXPECT_EQ(e.banks().counters().activates, 2u);
}

TEST(DdrcEngine, WrapBurstDecomposesLegally) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  for (unsigned i = 0; i < 4; ++i) {
    e.memory().write(0x30 + 4 * i, i + 1, 4);
  }
  // WRAP4 starting mid-window: 0x38,0x3C,0x30,0x34.
  e.begin(read_req(0x38, 4, ahbp::ahb::Burst::kWrap4), 0);
  std::vector<Word> data;
  drain_txn(e, chk, 0, &data);
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0], 3u);  // 0x38
  EXPECT_EQ(data[1], 4u);  // 0x3C
  EXPECT_EQ(data[2], 1u);  // 0x30 (wrapped)
  EXPECT_EQ(data[3], 2u);  // 0x34
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, RowHitSecondReadIsFaster) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  e.begin(read_req(0x00, 1, ahbp::ahb::Burst::kSingle), 0);
  const Cycle first = drain_txn(e, chk, 0);
  e.begin(read_req(0x04, 1, ahbp::ahb::Burst::kSingle), first + 1);
  const Cycle second = drain_txn(e, chk, first + 1);
  // Row hit skips ACT: only CAS latency.
  EXPECT_LT(second - (first + 1), first - 0);
  EXPECT_EQ(e.hit_stats().row_hits, 1u);
  EXPECT_EQ(e.hit_stats().row_misses, 1u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, HintPreActivatesIdleBank) {
  const Geometry g = geom4();
  DdrcEngine e(toy_timing(), g);
  TimingChecker chk(toy_timing(), g);
  // Current txn in bank 0; hint points at bank 1.
  e.begin(read_req(0x00, 8), 0);
  const Addr next_addr = g.row_bytes();  // bank 1 in kRowBankCol
  ASSERT_EQ(g.decode(next_addr).bank, 1u);
  e.set_hint(g.decode(next_addr));
  std::vector<Word> data;
  drain_txn(e, chk, 0, &data);
  EXPECT_GE(e.hit_stats().hint_activates, 1u);
  // Bank 1 is open on the hinted row: the follow-up read is a row hit.
  e.begin(read_req(next_addr, 1, ahbp::ahb::Burst::kSingle), 20);
  drain_txn(e, chk, 20);
  EXPECT_GE(e.hit_stats().row_hits, 1u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, HintNeverTouchesBankNeededByCurrentTxn) {
  const Geometry g = geom4();
  DdrcEngine e(toy_timing(), g);
  e.begin(read_req(0x00, 4), 0);
  // Hint at the same bank the current transaction uses (different row):
  // the engine must not precharge under the live transaction.
  Coord same_bank = g.decode(0x00);
  same_bank.row += 1;
  e.set_hint(same_bank);
  TimingChecker chk(toy_timing(), g);
  std::vector<Word> data;
  drain_txn(e, chk, 0, &data);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_EQ(e.hit_stats().hint_precharges, 0u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, RefreshBlocksAdmissionAndRecovers) {
  DdrTiming t = toy_timing();
  t.tREFI = 50;
  t.tRFC = 8;
  DdrcEngine e(t, geom4());
  TimingChecker chk(t, geom4());
  EXPECT_TRUE(e.access_permitted(10));
  // Run idle cycles until refresh becomes due and is serviced.
  bool saw_refresh = false;
  bool saw_blocked = false;
  for (Cycle now = 0; now < 200; ++now) {
    if (!e.access_permitted(now)) {
      saw_blocked = true;
    }
    const Command c = e.step(now);
    chk.observe(c, now);
    if (c.kind == CmdKind::kRefresh) {
      saw_refresh = true;
    }
  }
  EXPECT_TRUE(saw_refresh);
  EXPECT_TRUE(saw_blocked);
  EXPECT_GE(e.banks().counters().refreshes, 2u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, BeginWhileBusyThrows) {
  DdrcEngine e(toy_timing(), geom4());
  e.begin(read_req(0x0, 4), 0);
  EXPECT_THROW(e.begin(read_req(0x100, 1), 1), std::logic_error);
}

TEST(DdrcEngine, FinishBeforeDoneThrows) {
  DdrcEngine e(toy_timing(), geom4());
  e.begin(read_req(0x0, 4), 0);
  EXPECT_THROW(e.finish(), std::logic_error);
}

TEST(DdrcEngine, RemainingBeatsTracksProgress) {
  DdrcEngine e(toy_timing(), geom4());
  TimingChecker chk(toy_timing(), geom4());
  EXPECT_EQ(e.remaining_beats(), 0u);
  e.begin(read_req(0x0, 4), 0);
  EXPECT_EQ(e.remaining_beats(), 4u);
  Cycle now = 0;
  while (!e.done()) {
    chk.observe(e.step(now), now);
    if (e.read_beat_available(now)) {
      e.take_read_beat(now);
    }
    ++now;
  }
  EXPECT_EQ(e.remaining_beats(), 0u);
  EXPECT_TRUE(chk.clean());
}

TEST(DdrcEngine, AffinityReflectsBankState) {
  const Geometry g = geom4();
  DdrcEngine e(toy_timing(), g);
  EXPECT_EQ(e.affinity_for(g.decode(0x00), 0), BankAffinity::kIdle);
  e.begin(read_req(0x00, 1, ahbp::ahb::Burst::kSingle), 0);
  TimingChecker chk(toy_timing(), g);
  drain_txn(e, chk, 0);
  // Row stays open after the read: same row = kOpenRow, other row = conflict.
  EXPECT_EQ(e.affinity_for(g.decode(0x04), 20), BankAffinity::kOpenRow);
  EXPECT_EQ(e.affinity_for(g.decode(0x04 + g.row_bytes() * g.banks), 20),
            BankAffinity::kConflict);
}

// Property sweep: random transaction streams never violate DDR timing and
// always return the data last written.
class DdrcRandomProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DdrcRandomProperty, TimingCleanAndDataCoherent) {
  std::mt19937_64 rng(GetParam());
  DdrTiming t = toy_timing();
  t.tREFI = 300;  // refresh in the mix
  t.tRFC = 8;
  const Geometry g = geom4();
  DdrcEngine e(t, g);
  TimingChecker chk(t, g);
  std::map<Addr, Word> shadow;
  Cycle now = 0;
  for (int txn = 0; txn < 60; ++txn) {
    const bool is_write = rng() % 2 == 0;
    const unsigned beats = 1 + static_cast<unsigned>(rng() % 8);
    Addr addr = (rng() % (g.capacity() / 4)) * 4;
    if ((addr % 1024) + beats * 4 > 1024) {
      addr -= (addr % 1024);  // keep inside a 1KB block for simplicity
    }
    MemRequest req = is_write ? write_req(addr, beats) : read_req(addr, beats);
    e.begin(req, now);
    std::vector<Word> payload(beats);
    for (auto& w : payload) {
      w = rng();
    }
    unsigned wi = 0;
    std::vector<Word> got;
    while (!e.done() && now < 1000000) {
      chk.observe(e.step(now), now);
      if (e.read_beat_available(now)) {
        got.push_back(e.take_read_beat(now));
      }
      if (is_write && wi < beats && e.write_beat_ready(now)) {
        e.put_write_beat(now, payload[wi++]);
      }
      ++now;
    }
    ASSERT_TRUE(e.done());
    e.finish();
    for (unsigned b = 0; b < beats; ++b) {
      const Addr a = addr + 4 * b;
      if (is_write) {
        shadow[a] = payload[b] & 0xFFFFFFFFull;  // 4-byte beats
      } else {
        const Word expect = shadow.count(a) ? shadow[a] : 0;
        ASSERT_EQ(got.at(b), expect) << "addr " << std::hex << a;
      }
    }
    now += rng() % 4;
  }
  // Drain all background writes.
  while (e.pending_write_chunks() > 0 && now < 2000000) {
    chk.observe(e.step(now), now);
    ++now;
  }
  EXPECT_TRUE(chk.clean()) << "violations: " << chk.violations().size();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DdrcRandomProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
