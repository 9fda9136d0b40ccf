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
}  // namespace

DetailLayer::DetailLayer(sim::EventKernel& kernel, SharedWires& shared,
                         std::vector<MasterWires*> columns,
                         const ddr::ChannelSet& channels,
                         const sim::Cycle* now)
    : sh_(shared), cols_(std::move(columns)), set_(channels), now_(now) {
  for (unsigned i = 0; i < cols_.size(); ++i) {
    make_column_detail(kernel, i);
  }
  make_datapath_detail(kernel);
  make_arbiter_detail(kernel);
  make_ddrc_detail(kernel);
  edge_proc_ = std::make_unique<sim::Process>(kernel, "rt-detail",
                                              [this] { at_edge(); });
}

void DetailLayer::bind_clock(sim::Signal<bool>& clk) {
  clk.subscribe(*edge_proc_, sim::Edge::kPos);
}

void DetailLayer::make_column_detail(sim::EventKernel& k, unsigned i) {
  ColumnDetail d;
  d.haddr_r = std::make_unique<sim::Signal<std::uint64_t>>(
      k, dname(i, "haddr_r"));
  d.hwdata_r = std::make_unique<sim::Signal<std::uint64_t>>(
      k, dname(i, "hwdata_r"));
  d.htrans_r = std::make_unique<sim::Signal<std::uint8_t>>(
      k, dname(i, "htrans_r"));
  d.haddr_next = std::make_unique<sim::Signal<std::uint64_t>>(
      k, dname(i, "haddr_next"));
  d.size_bytes_w = std::make_unique<sim::Signal<std::uint8_t>>(
      k, dname(i, "size_bytes"));
  d.active_w = std::make_unique<sim::Signal<bool>>(k, dname(i, "active"));

  MasterWires* col = cols_[i];
  sim::Signal<std::uint64_t>* next = d.haddr_next.get();
  sim::Signal<std::uint8_t>* sizew = d.size_bytes_w.get();
  sim::Signal<bool>* act = d.active_w.get();
  // Combinational cone: the sequential-address incrementer every AHB
  // master contains, plus the HSIZE decoder and activity wire.
  d.incr_proc = std::make_unique<sim::Process>(
      k, dname(i, "incr"), [col, next, sizew, act] {
        const auto size = unpack_size(col->hsize.read());
        const std::uint8_t bytes =
            static_cast<std::uint8_t>(ahb::size_bytes(size));
        sizew->write(bytes);
        next->write(col->haddr.read() + bytes);
        act->write(unpack_trans(col->htrans.read()) != ahb::Trans::kIdle);
      });
  col->haddr.subscribe(*d.incr_proc);
  col->hsize.subscribe(*d.incr_proc);
  col->htrans.subscribe(*d.incr_proc);
  col_detail_.push_back(std::move(d));
}

void DetailLayer::make_datapath_detail(sim::EventKernel& k) {
  for (unsigned b = 0; b < 8; ++b) {
    wlane_.push_back(std::make_unique<sim::Signal<std::uint8_t>>(
        k, "dp.wlane" + std::to_string(b)));
    rlane_.push_back(std::make_unique<sim::Signal<std::uint8_t>>(
        k, "dp.rlane" + std::to_string(b)));
  }
  hrdata_r_ =
      std::make_unique<sim::Signal<std::uint64_t>>(k, "dp.hrdata_r");

  // Byte-lane steering: real write datapaths route HWDATA through per-lane
  // byte enables; the read path mirrors it.
  wlane_proc_ = std::make_unique<sim::Process>(k, "dp.wsteer", [this] {
    const std::uint64_t w = sh_.hwdata.read();
    for (unsigned b = 0; b < 8; ++b) {
      wlane_[b]->write(static_cast<std::uint8_t>((w >> (8 * b)) & 0xFF));
    }
  });
  sh_.hwdata.subscribe(*wlane_proc_);

  rlane_proc_ = std::make_unique<sim::Process>(k, "dp.rsteer", [this] {
    const std::uint64_t w = sh_.hrdata.read();
    for (unsigned b = 0; b < 8; ++b) {
      rlane_[b]->write(static_cast<std::uint8_t>((w >> (8 * b)) & 0xFF));
    }
  });
  sh_.hrdata.subscribe(*rlane_proc_);
}

void DetailLayer::make_arbiter_detail(sim::EventKernel& k) {
  req_mask_w_ =
      std::make_unique<sim::Signal<std::uint32_t>>(k, "arb.req_mask");
  req_count_w_ =
      std::make_unique<sim::Signal<std::uint8_t>>(k, "arb.req_count");
  first_req_w_ =
      std::make_unique<sim::Signal<std::uint8_t>>(k, "arb.first_req");
  for (unsigned i = 0; i + 1 < cols_.size(); ++i) {
    stage_pass_.push_back(std::make_unique<sim::Signal<bool>>(
        k, "arb.pass" + std::to_string(i)));
  }

  // The request-population cone of the arbiter: mask, population count and
  // fixed-priority encode — the wires stages 1 and 7 are built from.
  arb_proc_ = std::make_unique<sim::Process>(k, "arb.cone", [this] {
    std::uint32_t mask = 0;
    for (unsigned i = 0; i + 1 < cols_.size(); ++i) {
      if (cols_[i]->hbusreq.read()) {
        mask |= 1U << i;
      }
    }
    if (sh_.wbuf_req.read()) {
      mask |= 1U << (cols_.size() - 1);
    }
    req_mask_w_->write(mask);
    req_count_w_->write(static_cast<std::uint8_t>(std::popcount(mask)));
    first_req_w_->write(static_cast<std::uint8_t>(
        mask ? std::countr_zero(mask) : 0xFF));
    for (unsigned i = 0; i < stage_pass_.size(); ++i) {
      stage_pass_[i]->write((mask & (1U << i)) != 0);
    }
  });
  for (unsigned i = 0; i + 1 < cols_.size(); ++i) {
    cols_[i]->hbusreq.subscribe(*arb_proc_);
  }
  sh_.wbuf_req.subscribe(*arb_proc_);
}

void DetailLayer::make_ddrc_detail(sim::EventKernel& k) {
  static const char* kTimerNames[] = {"trcd", "tras", "trp", "trc", "twr"};
  // One FSM register block per bank of *every* channel (a sharded design
  // pays the register cost per channel; single-channel names stay stable).
  for (std::uint32_t ch = 0; ch < set_.channels(); ++ch) {
    const std::string chpre =
        set_.channels() == 1 ? "ddrc." : "ddrc.c" + std::to_string(ch) + ".";
    const std::uint32_t banks = set_.engine(ch).banks().banks();
    for (std::uint32_t b = 0; b < banks; ++b) {
      BankDetail d;
      const std::string pre = chpre + "b" + std::to_string(b) + ".";
      d.state_onehot =
          std::make_unique<sim::Signal<std::uint8_t>>(k, pre + "state1h");
      d.row_r = std::make_unique<sim::Signal<std::uint32_t>>(k, pre + "row");
      d.ready_timer =
          std::make_unique<sim::Signal<std::uint32_t>>(k, pre + "timer");
      for (const char* t : kTimerNames) {
        d.timers.push_back(
            std::make_unique<sim::Signal<std::uint32_t>>(k, pre + t));
      }
      banks_.push_back(std::move(d));
      bank_of_.emplace_back(ch, b);
    }
  }
  wq_level_ = std::make_unique<sim::Signal<std::uint32_t>>(k, "ddrc.wq");
  xfer_beat_ = std::make_unique<sim::Signal<std::uint32_t>>(k, "ddrc.beat");
  for (std::uint32_t ch = 0; ch < set_.channels(); ++ch) {
    const std::string name = set_.channels() == 1
                                 ? "ddrc.refctr"
                                 : "ddrc.c" + std::to_string(ch) + ".refctr";
    refresh_ctr_.push_back(
        std::make_unique<sim::Signal<std::uint32_t>>(k, name));
  }

  // Data FIFOs between the AHB side and the DRAM side: 8 words each plus
  // head/tail pointers — the registers a real controller clocks data
  // through (the abstract engine moves data directly; these cells shadow
  // the same values at RT granularity).
  for (unsigned i = 0; i < 8; ++i) {
    rd_fifo_.push_back(std::make_unique<sim::Signal<std::uint64_t>>(
        k, "ddrc.rdfifo" + std::to_string(i)));
    wr_fifo_.push_back(std::make_unique<sim::Signal<std::uint64_t>>(
        k, "ddrc.wrfifo" + std::to_string(i)));
  }
  rd_ptr_ = std::make_unique<sim::Signal<std::uint8_t>>(k, "ddrc.rdptr");
  wr_ptr_ = std::make_unique<sim::Signal<std::uint8_t>>(k, "ddrc.wrptr");

  // Write-buffer RAM: depth x 16 beat cells (written as data streams in,
  // like the real macro).
  for (unsigned e = 0; e < 4; ++e) {
    for (unsigned w = 0; w < 16; ++w) {
      wbuf_ram_.push_back(std::make_unique<sim::Signal<std::uint64_t>>(
          k, "wbuf.ram" + std::to_string(e) + "_" + std::to_string(w)));
    }
  }

  // Per-master QoS registers: wait counters (increment while requesting)
  // and slack counters, clocked every cycle — the registers backing §2's
  // "special internal registers".
  for (unsigned m = 0; m + 1 < cols_.size(); ++m) {
    slack_ctr_.push_back(std::make_unique<sim::Signal<std::uint32_t>>(
        k, "qos.slack" + std::to_string(m)));
    wait_ctr_.push_back(std::make_unique<sim::Signal<std::uint32_t>>(
        k, "qos.wait" + std::to_string(m)));
  }
}

void DetailLayer::at_edge() {
  const sim::Cycle now = *now_;
  // Pipeline registers: every column's address/data/trans stage.
  for (unsigned i = 0; i < cols_.size(); ++i) {
    ColumnDetail& d = col_detail_[i];
    d.haddr_r->write(cols_[i]->haddr.read());
    d.hwdata_r->write(cols_[i]->hwdata.read());
    d.htrans_r->write(cols_[i]->htrans.read());
  }
  hrdata_r_->write(sh_.hrdata.read());

  // DDRC register-transfer state: per-bank FSM one-hot, open row, and the
  // interval counters an RTL controller decrements every cycle — for every
  // channel's controller.
  for (std::size_t i = 0; i < banks_.size(); ++i) {
    const auto [ch, b] = bank_of_[i];
    const ddr::BankEngine& be = set_.engine(ch).banks();
    BankDetail& bd = banks_[i];
    const ddr::BankState st = be.bank_state(b, now);
    bd.state_onehot->write(
        static_cast<std::uint8_t>(1U << static_cast<unsigned>(st)));
    bd.row_r->write(be.open_row(b));
    const ddr::Coord c{b, be.open_row(b), 0};
    const sim::Cycle ready = be.earliest_column(c, now);
    const std::uint32_t togo =
        static_cast<std::uint32_t>(ready > now ? ready - now : 0);
    bd.ready_timer->write(togo);
    // The individual constraint counters all converge toward zero with the
    // composite readiness; RTL holds them separately per JEDEC rule.
    for (std::size_t t = 0; t < bd.timers.size(); ++t) {
      const std::uint32_t v = togo > t ? togo - static_cast<std::uint32_t>(t) : 0;
      bd.timers[t]->write(v);
    }
  }
  wq_level_->write(
      static_cast<std::uint32_t>(set_.pending_write_chunks()));
  xfer_beat_->write(set_.remaining_beats());
  for (std::uint32_t ch = 0; ch < set_.channels(); ++ch) {
    const sim::Cycle trefi = set_.engine(ch).banks().timing().tREFI;
    refresh_ctr_[ch]->write(static_cast<std::uint32_t>(
        trefi == 0 ? 0 : trefi - (now % (trefi + 1))));
  }

  // Data FIFO cells: the current beat circulates through the FIFO slot its
  // pointer selects (writes only when the bus actually moves data).
  const auto tr = unpack_trans(sh_.htrans.read());
  const bool moving = sh_.hready.read() && tr != ahb::Trans::kIdle;
  if (moving) {
    const std::uint8_t wp = wr_ptr_->read();
    const std::uint8_t rp = rd_ptr_->read();
    if (unpack_dir(sh_.hwrite.read()) == ahb::Dir::kWrite) {
      wr_fifo_[wp % 8]->write(sh_.hwdata.read());
      wr_ptr_->write(static_cast<std::uint8_t>((wp + 1) % 8));
    } else {
      rd_fifo_[rp % 8]->write(sh_.hrdata.read());
      rd_ptr_->write(static_cast<std::uint8_t>((rp + 1) % 8));
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
      wbuf_ram_[entry * 16 + beat % 16]->write(cols_[m]->hwdata.read());
    }
  }

  // QoS registers: wait counters advance while a request is outstanding.
  for (unsigned m = 0; m + 1 < cols_.size(); ++m) {
    if (cols_[m]->hbusreq.read()) {
      wait_ctr_[m]->write(wait_ctr_[m]->read() + 1);
      const std::uint32_t w = wait_ctr_[m]->read();
      slack_ctr_[m]->write(w < 0xFFFF ? 0xFFFF - w : 0);
    } else if (wait_ctr_[m]->read() != 0) {
      wait_ctr_[m]->write(0);
      slack_ctr_[m]->write(0xFFFF);
    }
  }
}

}  // namespace ahbp::rtl
