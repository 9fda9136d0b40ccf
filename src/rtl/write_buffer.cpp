#include "rtl/write_buffer.hpp"

#include "assertions/assert.hpp"

namespace ahbp::rtl {

RtlWriteBuffer::RtlWriteBuffer(sim::EventKernel& kernel,
                               const ahb::BusConfig& cfg, unsigned masters,
                               SharedWires& shared, MasterWires& column,
                               std::vector<MasterWires*> master_wires,
                               const sim::Cycle* now)
    : masters_(masters),
      sh_(shared),
      col_(column),
      mw_(std::move(master_wires)),
      now_(now),
      fifo_(cfg.write_buffer_depth),
      staging_(masters),
      proc_(kernel, "rtl-wbuf", [this] { at_edge(); }) {}

void RtlWriteBuffer::bind_clock(sim::Clock& clk) {
  clk.subscribe(proc_);
}

bool RtlWriteBuffer::can_reserve() const noexcept {
  if (!fifo_.enabled()) {
    return false;
  }
  return fifo_.occupancy() + reserved_ < fifo_.depth();
}

void RtlWriteBuffer::reserve(unsigned m, const ahb::Transaction& skeleton) {
  AHBP_ASSERT(m < masters_ && !staging_[m].has_value());
  AHBP_ASSERT_MSG(can_reserve(), "reserve without space");
  Staging s;
  s.txn = skeleton;
  s.txn.data.clear();
  staging_[m] = std::move(s);
  ++reserved_;
}

bool RtlWriteBuffer::overlaps(ahb::Addr lo, ahb::Addr hi) const noexcept {
  if (fifo_.overlaps(lo, hi)) {
    return true;
  }
  for (const auto& s : staging_) {
    if (!s) {
      continue;
    }
    const ahb::Addr s_lo = s->txn.addr;
    const ahb::Addr s_hi = s->txn.addr + s->txn.bytes();
    if (s_lo < hi && lo < s_hi) {
      return true;
    }
  }
  // The entry being drained still counts until its transfer completes.
  if (drain_active_) {
    const ahb::Addr d_lo = drain_txn_.addr;
    const ahb::Addr d_hi = drain_txn_.addr + drain_txn_.bytes();
    if (d_lo < hi && lo < d_hi) {
      return true;
    }
  }
  return false;
}

bool RtlWriteBuffer::drain_requesting() const noexcept {
  if (fifo_.occupancy() <= committed()) {
    return false;  // nothing uncommitted left to offer
  }
  return fifo_.requesting();
}

bool RtlWriteBuffer::staging_full() const noexcept {
  return fifo_.enabled() && fifo_.occupancy() + reserved_ >= fifo_.depth();
}

void RtlWriteBuffer::capture_streams(sim::Cycle now) {
  for (unsigned m = 0; m < masters_; ++m) {
    if (!staging_[m] || !mw_[m]->wbuf_stream.read()) {
      continue;
    }
    Staging& s = *staging_[m];
    s.txn.data.push_back(mw_[m]->hwdata.read());
    ++s.filled;
    if (s.filled >= s.txn.beats) {
      s.txn.granted_at = now;
      s.txn.started_at = now;
      s.txn.finished_at = now;
      const bool ok = fifo_.absorb(s.txn, now);
      AHBP_ASSERT_MSG(ok, "reserved absorb failed");
      staging_[m].reset();
      --reserved_;
    }
  }
}

void RtlWriteBuffer::drain_fsm(sim::Cycle now) {
  if (!drain_active_) {
    // Start when ownership is routed to us and a drain is owed.  (The
    // HGRANT pulse may have passed while a previous drain was streaming;
    // the owed counter carries it.)
    if (owed_ > 0 &&
        sh_.hmaster.read() == static_cast<std::uint8_t>(masters_)) {
      AHBP_ASSERT_MSG(!fifo_.empty(), "wbuf granted with empty FIFO");
      --owed_;
      drain_txn_ = fifo_.front();
      drain_addr_accepted_ = 0;
      drain_data_done_ = 0;
      drain_active_ = true;
      // fall through to drive the first address phase below
    } else {
      return;
    }
  } else {
    const bool hr = sh_.hready.read();
    if (hr) {
      if (drain_data_done_ < drain_addr_accepted_) {
        ++drain_data_done_;
      }
      if (drain_addr_accepted_ < drain_txn_.beats) {
        ++drain_addr_accepted_;
      }
    }
    if (drain_data_done_ == drain_txn_.beats) {
      col_.htrans.write(pack(ahb::Trans::kIdle));
      fifo_.pop_front(now);
      drain_active_ = false;
      return;
    }
  }
  // Drive address/data phases from the buffer's own column.
  if (drain_addr_accepted_ < drain_txn_.beats) {
    const unsigned beat = drain_addr_accepted_;
    col_.htrans.write(
        pack(beat == 0 ? ahb::Trans::kNonSeq : ahb::Trans::kSeq));
    col_.haddr.write(ahb::burst_beat_addr(drain_txn_.addr, drain_txn_.size,
                                          drain_txn_.burst, beat));
    col_.hburst.write(pack(drain_txn_.burst));
    col_.hsize.write(pack(drain_txn_.size));
    col_.hwrite.write(pack(ahb::Dir::kWrite));
  } else {
    col_.htrans.write(pack(ahb::Trans::kIdle));
  }
  if (drain_data_done_ < drain_addr_accepted_) {
    col_.hwdata.write(drain_txn_.data[drain_data_done_]);
  }
}

void RtlWriteBuffer::at_edge() {
  const sim::Cycle now = *now_;
  capture_streams(now);
  drain_fsm(now);
  sh_.wbuf_req.write(drain_requesting());
  sh_.wbuf_occupancy.write(fifo_.occupancy());
  // Drain sideband: advertise the next *uncommitted* entry to the arbiter.
  const unsigned next = committed();
  if (fifo_.occupancy() > next) {
    const ahb::Transaction& t = fifo_.peek(next);
    sh_.wb_req_addr.write(t.addr);
    sh_.wb_req_burst.write(pack(t.burst));
    sh_.wb_req_size.write(pack(t.size));
    sh_.wb_req_beats.write(t.beats);
  }
  fifo_.sample();
}

void RtlWriteBuffer::save_state(state::StateWriter& w) const {
  w.begin("rtl-wbuf");
  fifo_.save_state(w);
  w.put_u64(staging_.size());
  for (const std::optional<Staging>& s : staging_) {
    w.put_bool(s.has_value());
    if (s) {
      ahb::save_state(w, s->txn);
      w.put_u32(s->filled);
    }
  }
  w.put_u32(reserved_);
  w.put_bool(drain_active_);
  w.put_u32(owed_);
  ahb::save_state(w, drain_txn_);
  w.put_u32(drain_addr_accepted_);
  w.put_u32(drain_data_done_);
  w.end();
}

void RtlWriteBuffer::restore_state(state::StateReader& r) {
  r.enter("rtl-wbuf");
  fifo_.restore_state(r);
  if (r.get_u64() != staging_.size()) {
    throw state::StateError("RtlWriteBuffer: staging slot count mismatch");
  }
  for (std::optional<Staging>& s : staging_) {
    if (r.get_bool()) {
      s.emplace();
      ahb::restore_state(r, s->txn);
      s->filled = r.get_u32();
    } else {
      s.reset();
    }
  }
  reserved_ = r.get_u32();
  drain_active_ = r.get_bool();
  owed_ = r.get_u32();
  ahb::restore_state(r, drain_txn_);
  drain_addr_accepted_ = r.get_u32();
  drain_data_done_ = r.get_u32();
  r.leave();
}

}  // namespace ahbp::rtl
