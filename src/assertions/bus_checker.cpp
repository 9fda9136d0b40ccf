#include "assertions/bus_checker.hpp"

#include <sstream>

namespace ahbp::chk {

namespace {

std::string hex(ahb::Addr a) {
  std::ostringstream ss;
  ss << "0x" << std::hex << a;
  return ss.str();
}

}  // namespace

BusChecker::BusChecker(CheckerConfig cfg, ViolationLog& log)
    : cfg_(cfg), log_(log) {}

void BusChecker::on_cycle(const BusCycleView& v) {
  ++cycles_;
  check_grant(v);
  check_stability(v);
  check_alignment(v);
  check_width(v);
  check_burst(v);
  check_wbuf(v);

  pending_requests_ |= v.request_mask;
  prev_requests_ = v.request_mask;
  prev_ = v;
}

void BusChecker::skip_idle(sim::Cycle from, sim::Cycle to) {
  if (to <= from) {
    return;
  }
  // The first skipped cycle goes through the real rule suite (it closes
  // out any cross-cycle rule armed by the previous, non-idle view).  A
  // default-constructed view *is* the idle view: HREADY high, no owner,
  // IDLE transfer, empty write buffer.
  BusCycleView idle;
  idle.cycle = from;
  on_cycle(idle);
  const sim::Cycle rest = to - from - 1;
  if (rest == 0) {
    return;
  }
  // Replaying further idle views touches nothing but the cycle counter and
  // the previous-view registers (every rule early-outs on an idle view
  // following an idle view), so the remainder collapses to bookkeeping.
  cycles_ += rest;
  prev_requests_ = 0;
  idle.cycle = to - 1;
  prev_ = idle;
}

void BusChecker::check_grant(const BusCycleView& v) {
  const bool handover = !prev_ || prev_->hmaster != v.hmaster;
  if (!handover || v.hmaster == ahb::kNoMaster) {
    return;
  }
  if (v.hmaster >= cfg_.masters) {
    return;  // write-buffer pseudo-master drains without HBUSREQ history
  }
  const std::uint32_t bit = 1U << v.hmaster;
  if ((pending_requests_ & bit) == 0 && (v.request_mask & bit) == 0) {
    log_.record(Severity::kError, v.cycle, "ahb.grant-implies-request",
                "master " + std::to_string(v.hmaster) +
                    " owns the bus without a pending request");
  }
  pending_requests_ &= ~bit;  // grant consumed the request
}

void BusChecker::check_stability(const BusCycleView& v) {
  if (!prev_ || prev_->hready) {
    return;
  }
  // Previous cycle stalled: the address phase must be held unchanged.
  const BusCycleView& p = *prev_;
  if (p.htrans == ahb::Trans::kIdle) {
    return;
  }
  if (v.htrans != p.htrans || v.haddr != p.haddr || v.hburst != p.hburst ||
      v.hsize != p.hsize || v.hwrite != p.hwrite) {
    log_.record(Severity::kError, v.cycle, "ahb.stable-when-stalled",
                "address/control changed while HREADY was low (addr " +
                    hex(p.haddr) + " -> " + hex(v.haddr) + ")");
  }
}

void BusChecker::check_alignment(const BusCycleView& v) {
  if (v.htrans != ahb::Trans::kNonSeq && v.htrans != ahb::Trans::kSeq) {
    return;
  }
  if (v.haddr % ahb::size_bytes(v.hsize) != 0) {
    log_.record(Severity::kError, v.cycle, "ahb.align",
                "HADDR " + hex(v.haddr) + " unaligned for HSIZE " +
                    std::string(ahb::to_string(v.hsize)));
  }
}

void BusChecker::check_width(const BusCycleView& v) {
  if (cfg_.bus_width_bytes == 0) {
    return;  // width rule disabled
  }
  if (v.htrans != ahb::Trans::kNonSeq && v.htrans != ahb::Trans::kSeq) {
    return;
  }
  if (ahb::size_bytes(v.hsize) > cfg_.bus_width_bytes) {
    log_.record(Severity::kError, v.cycle, "ahb.hsize-width",
                "HSIZE " + std::string(ahb::to_string(v.hsize)) + " (" +
                    std::to_string(ahb::size_bytes(v.hsize)) +
                    " bytes) exceeds the " +
                    std::to_string(cfg_.bus_width_bytes) + "-byte bus");
  }
}

void BusChecker::check_burst(const BusCycleView& v) {
  const bool accepted = v.hready && (v.htrans == ahb::Trans::kNonSeq ||
                                     v.htrans == ahb::Trans::kSeq);
  const unsigned fixed = ahb::burst_fixed_beats(burst_kind_);

  if (v.htrans == ahb::Trans::kBusy && !in_burst_) {
    log_.record(Severity::kError, v.cycle, "ahb.first-is-nonseq",
                "BUSY outside a burst");
    return;
  }

  if (!accepted) {
    return;
  }

  if (v.htrans == ahb::Trans::kNonSeq) {
    if (in_burst_ && fixed != 0 && beats_seen_ < fixed) {
      log_.record(Severity::kError, v.cycle, "ahb.burst-len",
                  "fixed burst terminated after " +
                      std::to_string(beats_seen_) + "/" +
                      std::to_string(fixed) + " beats");
    }
    // Start tracking the new burst.
    in_burst_ = true;
    burst_kind_ = v.hburst;
    burst_size_ = v.hsize;
    burst_dir_ = v.hwrite;
    const unsigned total = ahb::burst_fixed_beats(v.hburst);
    seq_ = ahb::BurstSequencer(v.haddr, v.hsize, v.hburst,
                               total == 0 ? 1024 : total);
    beats_seen_ = 1;
    if (v.hburst == ahb::Burst::kSingle) {
      in_burst_ = false;
    }
    // 1KB rule for the declared burst (checked on the full fixed length).
    if (total != 0 &&
        !ahb::burst_within_1kb(v.haddr, v.hsize, v.hburst, total)) {
      log_.record(Severity::kError, v.cycle, "ahb.1kb",
                  "burst from " + hex(v.haddr) + " crosses a 1KB boundary");
    }
    return;
  }

  // SEQ beat.
  if (!in_burst_) {
    log_.record(Severity::kError, v.cycle, "ahb.first-is-nonseq",
                "SEQ beat with no burst in progress at " + hex(v.haddr));
    return;
  }
  seq_.advance();
  ++beats_seen_;
  if (v.haddr != seq_.current()) {
    log_.record(Severity::kError, v.cycle, "ahb.seq-addr",
                "expected " + hex(seq_.current()) + " got " + hex(v.haddr));
  }
  if (v.hburst != burst_kind_ || v.hsize != burst_size_ ||
      v.hwrite != burst_dir_) {
    log_.record(Severity::kError, v.cycle, "ahb.seq-ctrl",
                "burst control changed mid-burst");
  }
  const unsigned total = ahb::burst_fixed_beats(burst_kind_);
  if (total != 0 && beats_seen_ >= total) {
    in_burst_ = false;  // burst complete
  }
}

void BusChecker::check_wbuf(const BusCycleView& v) {
  if (v.wbuf_occupancy > cfg_.write_buffer_depth) {
    log_.record(Severity::kError, v.cycle, "ahbp.wbuf-depth",
                "write buffer holds " + std::to_string(v.wbuf_occupancy) +
                    " entries, depth is " +
                    std::to_string(cfg_.write_buffer_depth));
  }
}

void QosChecker::on_grant(ahb::MasterId m, sim::Cycle waited, sim::Cycle now) {
  const ahb::QosConfig& cfg = regs_.config(m);
  if (cfg.cls != ahb::MasterClass::kRealTime) {
    return;
  }
  if (waited > cfg.objective) {
    ++misses_;
    log_.record(Severity::kWarning, now, "ahbp.qos-objective",
                "RT master " + std::to_string(m) + " waited " +
                    std::to_string(waited) + " > objective " +
                    std::to_string(cfg.objective));
  }
}

namespace {

void save_view(state::StateWriter& w, const BusCycleView& v) {
  w.put_u64(v.cycle);
  w.put_u32(v.request_mask);
  w.put_u8(v.hmaster);
  w.put_u8(static_cast<std::uint8_t>(v.htrans));
  w.put_u64(v.haddr);
  w.put_u8(static_cast<std::uint8_t>(v.hburst));
  w.put_u8(static_cast<std::uint8_t>(v.hsize));
  w.put_u8(static_cast<std::uint8_t>(v.hwrite));
  w.put_bool(v.hready);
  w.put_u8(static_cast<std::uint8_t>(v.hresp));
  w.put_u32(v.wbuf_occupancy);
}

void restore_view(state::StateReader& r, BusCycleView& v) {
  v.cycle = r.get_u64();
  v.request_mask = r.get_u32();
  v.hmaster = r.get_u8();
  v.htrans = static_cast<ahb::Trans>(r.get_u8());
  v.haddr = r.get_u64();
  v.hburst = static_cast<ahb::Burst>(r.get_u8());
  v.hsize = static_cast<ahb::Size>(r.get_u8());
  v.hwrite = static_cast<ahb::Dir>(r.get_u8());
  v.hready = r.get_bool();
  v.hresp = static_cast<ahb::Resp>(r.get_u8());
  v.wbuf_occupancy = r.get_u32();
}

}  // namespace

void BusChecker::save_state(state::StateWriter& w) const {
  w.begin("bus-checker");
  w.put_u64(cycles_);
  w.put_bool(prev_.has_value());
  if (prev_) {
    save_view(w, *prev_);
  }
  w.put_u32(prev_requests_);
  w.put_u32(pending_requests_);
  w.put_bool(in_burst_);
  seq_.save_state(w);
  w.put_u8(static_cast<std::uint8_t>(burst_kind_));
  w.put_u8(static_cast<std::uint8_t>(burst_size_));
  w.put_u8(static_cast<std::uint8_t>(burst_dir_));
  w.put_u32(beats_seen_);
  w.end();
}

void BusChecker::restore_state(state::StateReader& r) {
  r.enter("bus-checker");
  cycles_ = r.get_u64();
  if (r.get_bool()) {
    prev_.emplace();
    restore_view(r, *prev_);
  } else {
    prev_.reset();
  }
  prev_requests_ = r.get_u32();
  pending_requests_ = r.get_u32();
  in_burst_ = r.get_bool();
  seq_.restore_state(r);
  burst_kind_ = static_cast<ahb::Burst>(r.get_u8());
  burst_size_ = static_cast<ahb::Size>(r.get_u8());
  burst_dir_ = static_cast<ahb::Dir>(r.get_u8());
  beats_seen_ = r.get_u32();
  r.leave();
}

}  // namespace ahbp::chk
