// The method-based AHB+ bus TLM: port protocol, grant timing, write-buffer
// absorption and drain, read-after-write ordering, locked transfers,
// protocol-checker cleanliness and data integrity end to end.

#include <gtest/gtest.h>

#include <memory>

#include "assertions/assert.hpp"
#include "assertions/violation.hpp"
#include "tlm/bus.hpp"
#include "tlm/master.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::tlm;

ddr::Geometry geom4() {
  ddr::Geometry g;
  g.banks = 4;
  g.rows = 64;
  g.cols = 32;
  g.col_bytes = 4;
  return g;
}

/// Single-channel DDR subsystem at aperture offset 0.
ddr::ChannelSet one_channel(const ddr::DdrTiming& timing) {
  return ddr::ChannelSet({ddr::ChannelConfig{timing, geom4()}},
                         ddr::Interleave{});
}

struct Rig {
  ahb::BusConfig cfg;
  ahb::QosRegisterFile qos;
  chk::ViolationLog log;
  ddr::ChannelSet dram;
  std::unique_ptr<AhbPlusBus> bus;
  sim::Cycle now = 0;

  explicit Rig(unsigned masters = 2, bool checkers = true)
      : qos(masters), dram(one_channel(ddr::toy_timing())) {
    bus = std::make_unique<AhbPlusBus>(cfg, qos, dram, 0, masters,
                                       checkers ? &log : nullptr);
  }

  /// Advance the bus one cycle.
  void step() { bus->evaluate(now++); }

  /// Run one transaction through the port by hand; returns (txn, cycles).
  std::pair<ahb::Transaction, sim::Cycle> run_txn(ahb::MasterId m,
                                                  ahb::Transaction t,
                                                  sim::Cycle limit = 2000) {
    bool requested = false;
    ahb::Transaction out;
    for (sim::Cycle c = 0; c < limit; ++c) {
      if (!requested) {
        bus->request(m, t, now);
        requested = true;
      } else if (bus->poll_done(m, out)) {
        return {out, now};
      }
      step();
    }
    ADD_FAILURE() << "transaction did not complete";
    return {out, limit};
  }
};

ahb::Transaction read_txn(ahb::Addr addr, unsigned beats) {
  ahb::Transaction t;
  t.dir = ahb::Dir::kRead;
  t.addr = addr;
  t.size = ahb::Size::kWord;
  t.burst = ahb::incr_burst_for(beats);
  t.beats = beats;
  return t;
}

ahb::Transaction write_txn(ahb::Addr addr, unsigned beats,
                           ahb::Word seed = 0x1000) {
  ahb::Transaction t = read_txn(addr, beats);
  t.dir = ahb::Dir::kWrite;
  t.data.resize(beats);
  for (unsigned i = 0; i < beats; ++i) {
    t.data[i] = seed + i;
  }
  return t;
}

TEST(TlmBus, WriteThenReadRoundtrip) {
  Rig rig;
  rig.run_txn(0, write_txn(0x100, 4, 0x40));
  const auto [rd, cyc] = rig.run_txn(0, read_txn(0x100, 4));
  ASSERT_EQ(rd.data.size(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(rd.data[i], 0x40u + i);
  }
  EXPECT_EQ(rig.log.errors(), 0u);
}

TEST(TlmBus, TimestampsMonotone) {
  Rig rig;
  const auto [t, cyc] = rig.run_txn(0, read_txn(0x80, 4));
  EXPECT_LE(t.issued_at, t.granted_at);
  EXPECT_LE(t.granted_at, t.started_at);
  EXPECT_LT(t.started_at, t.finished_at);
  // Calibrated grant-to-start latency (§3.4 timing definition).
  EXPECT_EQ(t.started_at - t.granted_at, kGrantToStart);
}

TEST(TlmBus, WriteAbsorbedWhileBusIsBusy) {
  Rig rig;
  // Master 0 occupies the bus with a long read; master 1's write must be
  // absorbed by the buffer instead of waiting.
  bool m0_requested = false, m1_requested = false, m1_done = false;
  ahb::Transaction out;
  sim::Cycle m1_issue = 0, m1_fin = 0;
  for (sim::Cycle c = 0; c < 500 && !m1_done; ++c) {
    if (!m0_requested) {
      rig.bus->request(0, read_txn(0x0, 16), rig.now);
      m0_requested = true;
    }
    if (m0_requested && !m1_requested && rig.now == 3) {
      rig.bus->request(1, write_txn(0x800, 4), rig.now);
      m1_issue = rig.now;
      m1_requested = true;
    }
    if (m1_requested && rig.bus->poll_done(1, out)) {
      m1_done = true;
      m1_fin = rig.now;
    }
    rig.step();
  }
  ASSERT_TRUE(m1_done);
  // Buffered completion: issue + absorb + beats streaming, far less than
  // waiting out a 16-beat DDR read.
  EXPECT_LE(m1_fin - m1_issue, 10u);
  EXPECT_EQ(rig.bus->write_buffer().profile().absorbed, 1u);
  // The buffered write must still land in memory (drain).
  ahb::Transaction chk_out;
  const auto [rd, cyc2] = rig.run_txn(1, read_txn(0x800, 4));
  EXPECT_EQ(rd.data[0], 0x1000u);
  EXPECT_EQ(rig.log.errors(), 0u);
}

TEST(TlmBus, ReadAfterBufferedWriteIsOrdered) {
  Rig rig;
  // Fill the buffer with a write to X while the bus is busy, then read X:
  // the read must return the buffered data (drain-before-read ordering).
  bool m0_requested = false, m1_write_done = false, m1_read_started = false;
  ahb::Transaction out;
  std::vector<ahb::Word> read_data;
  for (sim::Cycle c = 0; c < 1000; ++c) {
    if (!m0_requested) {
      rig.bus->request(0, read_txn(0x0, 16), rig.now);
      m0_requested = true;
    }
    if (rig.now == 3 && !m1_write_done && !m1_read_started) {
      rig.bus->request(1, write_txn(0x900, 2, 0x77), rig.now);
      m1_read_started = true;  // request in flight
    }
    if (m1_read_started && !m1_write_done &&
        rig.bus->poll_done(1, out)) {
      m1_write_done = true;
      rig.bus->request(1, read_txn(0x900, 2), rig.now);
    } else if (m1_write_done && rig.bus->poll_done(1, out)) {
      read_data = out.data;
      break;
    }
    rig.step();
  }
  ASSERT_EQ(read_data.size(), 2u);
  EXPECT_EQ(read_data[0], 0x77u);
  EXPECT_EQ(read_data[1], 0x78u);
  EXPECT_EQ(rig.log.errors(), 0u);
}

TEST(TlmBus, LockedTransferHoldsBus) {
  Rig rig;
  ahb::Transaction locked = write_txn(0x400, 4);
  locked.locked = true;
  const auto [t, cyc] = rig.run_txn(0, locked);
  EXPECT_GE(t.finished_at, t.started_at);
  EXPECT_EQ(rig.log.errors(), 0u);
}

TEST(TlmBus, QuiescentOnlyWhenFullyDrained) {
  Rig rig;
  EXPECT_TRUE(rig.bus->quiescent());
  rig.bus->request(0, write_txn(0x100, 4), rig.now);
  EXPECT_FALSE(rig.bus->quiescent());
  ahb::Transaction out;
  for (sim::Cycle c = 0; c < 500; ++c) {
    rig.step();
    rig.bus->poll_done(0, out);
    if (rig.bus->quiescent()) {
      break;
    }
  }
  EXPECT_TRUE(rig.bus->quiescent());
}

TEST(TlmBus, PollGrantReflectsOwnership) {
  Rig rig;
  EXPECT_EQ(rig.bus->poll_grant(0), GrantPoll::kWait);
  rig.bus->request(0, read_txn(0x0, 4), rig.now);
  bool saw_granted = false;
  ahb::Transaction out;
  for (sim::Cycle c = 0; c < 200 && !rig.bus->poll_done(0, out); ++c) {
    if (rig.bus->poll_grant(0) == GrantPoll::kGranted) {
      saw_granted = true;
    }
    rig.step();
  }
  EXPECT_TRUE(saw_granted);
  EXPECT_EQ(rig.bus->poll_grant(0), GrantPoll::kWait);  // back to idle
}

TEST(TlmBus, DoubleRequestAsserts) {
  Rig rig;
  rig.bus->request(0, read_txn(0x0, 1), 0);
  EXPECT_THROW(rig.bus->request(0, read_txn(0x4, 1), 0),
               chk::ModelAssertError);
}

TEST(TlmBus, MalformedTransactionAsserts) {
  Rig rig;
  ahb::Transaction bad = read_txn(0x2, 1);  // misaligned word
  EXPECT_THROW(rig.bus->request(0, bad, 0), chk::ModelAssertError);
}

TEST(TlmBus, WriteBufferDisabledStillCorrect) {
  ahb::QosRegisterFile qos(2);
  ddr::ChannelSet dram = one_channel(ddr::toy_timing());
  chk::ViolationLog log;
  ahb::BusConfig cfg;
  cfg.write_buffer_depth = 0;
  AhbPlusBus bus(cfg, qos, dram, 0, 2, &log);
  sim::Cycle now = 0;
  bus.request(0, write_txn(0x100, 4, 0x9), now);
  ahb::Transaction out;
  for (sim::Cycle c = 0; c < 500 && !bus.poll_done(0, out); ++c) {
    bus.evaluate(now++);
  }
  EXPECT_EQ(bus.write_buffer().profile().absorbed, 0u);
  bus.request(0, read_txn(0x100, 1), now);
  for (sim::Cycle c = 0; c < 500 && !bus.poll_done(0, out); ++c) {
    bus.evaluate(now++);
  }
  EXPECT_EQ(out.data.at(0), 0x9u);
  EXPECT_EQ(log.errors(), 0u);
}

TEST(TlmBus, MasterComponentDrivesScript) {
  // End-to-end with TlmMaster components and generated traffic.
  ahb::BusConfig cfg;
  ahb::QosRegisterFile qos(2);
  ddr::ChannelSet dram = one_channel(ddr::ddr266());
  chk::ViolationLog log;
  AhbPlusBus bus(cfg, qos, dram, 0, 2, &log);

  traffic::PatternConfig pat;
  pat.kind = traffic::PatternKind::kCpu;
  pat.items = 30;
  pat.base = 0;
  pat.span = 8192;
  pat.seed = 5;
  TlmMaster m0(0, bus, traffic::make_script(pat, 0));
  pat.base = 8192;
  TlmMaster m1(1, bus, traffic::make_script(pat, 1));

  // Each cycle: the masters act, then the bus advances.
  for (sim::Cycle now = 0;
       now < 100000 && !(m0.finished() && m1.finished() && bus.quiescent());
       ++now) {
    m0.evaluate(now);
    m1.evaluate(now);
    bus.evaluate(now);
  }
  EXPECT_TRUE(m0.finished());
  EXPECT_TRUE(m1.finished());
  EXPECT_EQ(m0.completed(), 30u);
  EXPECT_EQ(m1.completed(), 30u);
  EXPECT_EQ(log.errors(), 0u) << log.to_string();
  EXPECT_GT(bus.bus_profile().utilization(), 0.0);
  EXPECT_EQ(bus.master_profiles()[0].reads + bus.master_profiles()[0].writes,
            30u);
}

TEST(TlmBus, ChecksRunWhenEnabled) {
  Rig rig;
  rig.run_txn(0, read_txn(0x0, 4));
  // The checker observed every cycle (no violations on a clean run).
  EXPECT_EQ(rig.log.count(), 0u);
}

}  // namespace
