#include "rtl/detail.hpp"

#include <bit>
#include <string>

namespace ahbp::rtl {

namespace {
std::string dname(unsigned i, const char* leaf) {
  // Appended, not `"lit" + std::string`: GCC 12 -O3 flags that with a
  // false-positive -Wrestrict.
  return std::string("d").append(std::to_string(i)).append(".").append(leaf);
}

/// Prefix of channel `ch`'s DDRC registers (single-channel names stay
/// stable: "ddrc.").
std::string ddrc_prefix(const ddr::ChannelSet& set, std::uint32_t ch) {
  return set.channels() == 1 ? "ddrc." : "ddrc.c" + std::to_string(ch) + ".";
}
}  // namespace

DetailLayer::ColumnDetail::ColumnDetail(sim::EventKernel& k, unsigned i,
                                        MasterWires& col)
    : haddr_r(k, dname(i, "haddr_r")),
      hwdata_r(k, dname(i, "hwdata_r")),
      htrans_r(k, dname(i, "htrans_r")),
      haddr_next(k, dname(i, "haddr_next")),
      size_bytes_w(k, dname(i, "size_bytes")),
      active_w(k, dname(i, "active")),
      // Combinational cone: the sequential-address incrementer every AHB
      // master contains, plus the HSIZE decoder and activity wire.
      incr_proc(k, dname(i, "incr"), [this, &col] {
        const auto size = unpack_size(col.hsize.read());
        const std::uint8_t bytes =
            static_cast<std::uint8_t>(ahb::size_bytes(size));
        size_bytes_w.write(bytes);
        haddr_next.write(col.haddr.read() + bytes);
        active_w.write(unpack_trans(col.htrans.read()) != ahb::Trans::kIdle);
      }) {
  col.haddr.subscribe(incr_proc);
  col.hsize.subscribe(incr_proc);
  col.htrans.subscribe(incr_proc);
}

DetailLayer::BankDetail::BankDetail(sim::EventKernel& k,
                                    const std::string& pre,
                                    const ddr::Bank& bank)
    : fsm(bank),
      state_onehot(k, pre + "state1h"),
      row_r(k, pre + "row"),
      ready_timer(k, pre + "timer"),
      timers{{{k, pre + "trcd"},
              {k, pre + "tras"},
              {k, pre + "trp"},
              {k, pre + "trc"},
              {k, pre + "twr"}}} {}

sim::FixedArray<DetailLayer::BankDetail> DetailLayer::make_banks(
    sim::EventKernel& k, const ddr::ChannelSet& set) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> at;  // (ch, bank)
  for (std::uint32_t ch = 0; ch < set.channels(); ++ch) {
    for (std::uint32_t b = 0; b < set.engine(ch).banks().banks(); ++b) {
      at.emplace_back(ch, b);
    }
  }
  return sim::FixedArray<BankDetail>(at.size(), [&](std::size_t i) {
    const auto [ch, b] = at[i];
    return BankDetail(k, ddrc_prefix(set, ch) + "b" + std::to_string(b) + ".",
                      set.engine(ch).banks().bank(b));
  });
}

DetailLayer::DetailLayer(sim::EventKernel& kernel, SharedWires& shared,
                         std::vector<MasterWires*> columns,
                         const ddr::ChannelSet& channels,
                         const sim::Cycle* now)
    : sh_(shared),
      cols_(std::move(columns)),
      set_(channels),
      now_(now),
      col_detail_(cols_.size(),
                  [&](std::size_t i) {
                    return ColumnDetail(kernel, static_cast<unsigned>(i),
                                        *cols_[i]);
                  }),
      lanes_(8,
             [&](std::size_t b) {
               return ByteLane{{kernel, "dp.wlane" + std::to_string(b)},
                               {kernel, "dp.rlane" + std::to_string(b)}};
             }),
      hrdata_r_(kernel, "dp.hrdata_r"),
      // Byte-lane steering: real write datapaths route HWDATA through
      // per-lane byte enables; the read path mirrors it.
      wlane_proc_(kernel, "dp.wsteer",
                  [this] {
                    const std::uint64_t w = sh_.hwdata.read();
                    for (unsigned b = 0; b < 8; ++b) {
                      lanes_[b].w.write(
                          static_cast<std::uint8_t>((w >> (8 * b)) & 0xFF));
                    }
                  }),
      rlane_proc_(kernel, "dp.rsteer",
                  [this] {
                    const std::uint64_t w = sh_.hrdata.read();
                    for (unsigned b = 0; b < 8; ++b) {
                      lanes_[b].r.write(
                          static_cast<std::uint8_t>((w >> (8 * b)) & 0xFF));
                    }
                  }),
      req_mask_w_(kernel, "arb.req_mask"),
      req_count_w_(kernel, "arb.req_count"),
      first_req_w_(kernel, "arb.first_req"),
      stage_pass_(cols_.size() - 1,
                  [&](std::size_t i) {
                    return sim::Signal<bool>(kernel,
                                             "arb.pass" + std::to_string(i));
                  }),
      // The request-population cone of the arbiter: mask, population count
      // and fixed-priority encode — the wires stages 1 and 7 are built
      // from.
      arb_proc_(kernel, "arb.cone",
                [this] {
                  std::uint32_t mask = 0;
                  for (unsigned i = 0; i + 1 < cols_.size(); ++i) {
                    if (cols_[i]->hbusreq.read()) {
                      mask |= 1U << i;
                    }
                  }
                  if (sh_.wbuf_req.read()) {
                    mask |= 1U << (cols_.size() - 1);
                  }
                  req_mask_w_.write(mask);
                  req_count_w_.write(
                      static_cast<std::uint8_t>(std::popcount(mask)));
                  first_req_w_.write(static_cast<std::uint8_t>(
                      mask ? std::countr_zero(mask) : 0xFF));
                  for (unsigned i = 0; i < stage_pass_.size(); ++i) {
                    stage_pass_[i].write((mask & (1U << i)) != 0);
                  }
                }),
      // One FSM register block per bank of *every* channel (a sharded
      // design pays the register cost per channel).
      banks_(make_banks(kernel, channels)),
      wq_level_(kernel, "ddrc.wq"),
      xfer_beat_(kernel, "ddrc.beat"),
      refresh_ctr_(channels.channels(),
                   [&](std::size_t ch) {
                     return sim::Signal<std::uint32_t>(
                         kernel, ddrc_prefix(set_, static_cast<std::uint32_t>(
                                                       ch)) +
                                     "refctr");
                   }),
      // Data FIFOs between the AHB side and the DRAM side: 8 words each
      // plus head/tail pointers — the registers a real controller clocks
      // data through (the abstract engine moves data directly; these cells
      // shadow the same values at RT granularity).
      fifo_(8,
            [&](std::size_t i) {
              return FifoCell{{kernel, "ddrc.rdfifo" + std::to_string(i)},
                              {kernel, "ddrc.wrfifo" + std::to_string(i)}};
            }),
      rd_ptr_(kernel, "ddrc.rdptr"),
      wr_ptr_(kernel, "ddrc.wrptr"),
      // Write-buffer RAM: depth x 16 beat cells (written as data streams
      // in, like the real macro).
      wbuf_ram_(4 * 16,
                [&](std::size_t i) {
                  return sim::Signal<std::uint64_t>(
                      kernel, "wbuf.ram" + std::to_string(i / 16) + "_" +
                                  std::to_string(i % 16));
                }),
      // Per-master QoS registers: wait counters (increment while
      // requesting) and slack counters, clocked every cycle — the
      // registers backing §2's "special internal registers".
      qos_(cols_.size() - 1,
           [&](std::size_t m) {
             return QosRegs{{kernel, "qos.slack" + std::to_string(m)},
                            {kernel, "qos.wait" + std::to_string(m)}};
           }),
      edge_proc_(kernel, "rt-detail", [this] { at_edge(); }) {
  sh_.hwdata.subscribe(wlane_proc_);
  sh_.hrdata.subscribe(rlane_proc_);
  for (unsigned i = 0; i + 1 < cols_.size(); ++i) {
    cols_[i]->hbusreq.subscribe(arb_proc_);
  }
  sh_.wbuf_req.subscribe(arb_proc_);
}

void DetailLayer::bind_clock(sim::Clock& clk) {
  clk.subscribe(edge_proc_);
}

void DetailLayer::at_edge() {
  const sim::Cycle now = *now_;
  // Pipeline registers: every column's address/data/trans stage.
  for (unsigned i = 0; i < cols_.size(); ++i) {
    ColumnDetail& d = col_detail_[i];
    d.haddr_r.write(cols_[i]->haddr.read());
    d.hwdata_r.write(cols_[i]->hwdata.read());
    d.htrans_r.write(cols_[i]->htrans.read());
  }
  hrdata_r_.write(sh_.hrdata.read());

  // DDRC register-transfer state: per-bank FSM one-hot, open row, and the
  // interval counters an RTL controller decrements every cycle — for every
  // channel's controller.
  for (BankDetail& bd : banks_) {
    const ddr::Bank& bank = bd.fsm;
    const std::uint32_t row = bank.open_row();
    bd.state_onehot.write(static_cast<std::uint8_t>(
        1U << static_cast<unsigned>(bank.state(now))));
    bd.row_r.write(row);
    const sim::Cycle ready = bank.earliest_column(now, row);
    const std::uint32_t togo =
        static_cast<std::uint32_t>(ready > now ? ready - now : 0);
    bd.ready_timer.write(togo);
    // The individual constraint counters all converge toward zero with the
    // composite readiness; RTL holds them separately per JEDEC rule.
    for (std::uint32_t t = 0; t < bd.timers.size(); ++t) {
      bd.timers[t].write(togo > t ? togo - t : 0);
    }
  }
  wq_level_.write(static_cast<std::uint32_t>(set_.pending_write_chunks()));
  xfer_beat_.write(set_.remaining_beats());
  for (std::uint32_t ch = 0; ch < set_.channels(); ++ch) {
    const sim::Cycle trefi = set_.engine(ch).banks().timing().tREFI;
    refresh_ctr_[ch].write(static_cast<std::uint32_t>(
        trefi == 0 ? 0 : trefi - (now % (trefi + 1))));
  }

  // Data FIFO cells: the current beat circulates through the FIFO slot its
  // pointer selects (writes only when the bus actually moves data).
  const auto tr = unpack_trans(sh_.htrans.read());
  const bool moving = sh_.hready.read() && tr != ahb::Trans::kIdle;
  if (moving) {
    const std::uint8_t wp = wr_ptr_.read();
    const std::uint8_t rp = rd_ptr_.read();
    if (unpack_dir(sh_.hwrite.read()) == ahb::Dir::kWrite) {
      fifo_[wp % 8].wr.write(sh_.hwdata.read());
      wr_ptr_.write(static_cast<std::uint8_t>((wp + 1) % 8));
    } else {
      fifo_[rp % 8].rd.write(sh_.hrdata.read());
      rd_ptr_.write(static_cast<std::uint8_t>((rp + 1) % 8));
    }
  }

  // Write-buffer RAM shadow: streaming beats land in the RAM cell of the
  // entry/beat the buffer is filling.
  for (unsigned m = 0; m + 1 < cols_.size(); ++m) {
    if (cols_[m]->wbuf_stream.read()) {
      const std::uint32_t occ = sh_.wbuf_occupancy.read();
      const unsigned entry = occ % 4;
      const unsigned beat =
          static_cast<unsigned>(cols_[m]->hwdata.read() & 0xF);
      wbuf_ram_[entry * 16 + beat % 16].write(cols_[m]->hwdata.read());
    }
  }

  // QoS registers: wait counters advance while a request is outstanding.
  for (unsigned m = 0; m + 1 < cols_.size(); ++m) {
    QosRegs& q = qos_[m];
    if (cols_[m]->hbusreq.read()) {
      q.wait.write(q.wait.read() + 1);
      const std::uint32_t w = q.wait.read();
      q.slack.write(w < 0xFFFF ? 0xFFFF - w : 0);
    } else if (q.wait.read() != 0) {
      q.wait.write(0);
      q.slack.write(0xFFFF);
    }
  }
}

}  // namespace ahbp::rtl
