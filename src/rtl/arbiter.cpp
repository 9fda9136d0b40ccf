#include "rtl/arbiter.hpp"

#include <bit>

#include "assertions/assert.hpp"
#include "rtl/write_buffer.hpp"

namespace ahbp::rtl {

RtlArbiter::RtlArbiter(sim::EventKernel& kernel, const ahb::BusConfig& cfg,
                       ahb::QosRegisterFile& qos, SharedWires& shared,
                       std::vector<MasterWires*> masters,
                       RtlWriteBuffer& wbuf,
                       std::vector<ddr::ChannelConfig> channels,
                       const ddr::Interleave& ilv, ahb::Addr ddr_base,
                       const sim::Cycle* now, chk::ViolationLog* qos_log)
    : cfg_(cfg),
      qos_(qos),
      sh_(shared),
      mw_(std::move(masters)),
      wbuf_(wbuf),
      channels_(std::move(channels)),
      ilv_(ilv),
      ddr_base_(ddr_base),
      now_(now),
      arbiter_(cfg, qos),
      proc_(kernel, "rtl-arbiter", [this] { at_edge(); }),
      masters_(static_cast<unsigned>(mw_.size())) {
  AHBP_ASSERT_MSG(masters_ < 32, "RtlArbiter supports up to 31 masters");
  bank_base_ = ddr::bank_bases(channels_);
  ctx_.cfg = &cfg_;
  ctx_.qos = &qos_;
  ctx_.masters = masters_;
  ctx_.candidates.resize(masters_ + 1);
  target_.resize(masters_ + 1);
  if (qos_log != nullptr) {
    qos_checker_.emplace(qos_, *qos_log);
  }
}

ddr::BankAffinity RtlArbiter::wire_affinity(unsigned col,
                                            ahb::Addr bus_addr) {
  const ddr::ChannelCoord& t =
      target_[col].of(bus_addr - ddr_base_, [this](ahb::Addr off) {
        const std::uint32_t ch = ilv_.channel_of(off);
        return ddr::ChannelCoord{
            ch, channels_[ch].geom.decode(ilv_.local_of(off))};
      });
  const std::uint32_t w = bank_base_[t.channel] + t.coord.bank;
  return ddr::bank_affinity(
      static_cast<ddr::BankState>(sh_.bi_bank_state[w]->read()),
      sh_.bi_open_row[w]->read(), t.coord);
}

void RtlArbiter::bind_clock(sim::Signal<bool>& clk) {
  clk.subscribe(proc_, sim::Edge::kPos);
}

ahb::Transaction RtlArbiter::txn_from_sideband(unsigned m) const {
  ahb::Transaction t;
  t.master = static_cast<ahb::MasterId>(m);
  t.addr = mw_[m]->req_addr.read();
  t.dir = unpack_dir(mw_[m]->req_dir.read());
  t.burst = unpack_burst(mw_[m]->req_burst.read());
  t.size = unpack_size(mw_[m]->req_size.read());
  t.beats = mw_[m]->req_beats.read();
  t.locked = mw_[m]->hlock.read();
  return t;
}

void RtlArbiter::track_requests(sim::Cycle now) {
  for (unsigned m = 0; m < masters_; ++m) {
    const std::uint32_t bit = 1U << m;
    const bool r = mw_[m]->hbusreq.read();
    if ((absorbed_wait_ & bit) != 0) {
      // Taken by the write buffer; wait for the master to drop HBUSREQ so
      // the stale high cannot be double-served.
      if (!r) {
        absorbed_wait_ &= ~bit;
      }
    } else if (r && (prev_req_ & bit) == 0) {
      arbiter_.on_request(static_cast<ahb::MasterId>(m), now);
    }
    prev_req_ = r ? prev_req_ | bit : prev_req_ & ~bit;
  }
  // Deassert last edge's take pulses (one-cycle strobes).
  for (std::uint32_t p = take_pulse_; p != 0; p &= p - 1) {
    sh_.wbuf_take[static_cast<unsigned>(std::countr_zero(p))]->write(false);
  }
  take_pulse_ = 0;
}

void RtlArbiter::track_transfer_progress() {
  const auto tr_any = unpack_trans(sh_.htrans.read());
  const bool hr_any = sh_.hready.read();
  // Delayed data-phase owner (HMASTERD): every accepted address phase
  // hands its data phase to the owner that presented it.
  if (hr_any &&
      (tr_any == ahb::Trans::kNonSeq || tr_any == ahb::Trans::kSeq)) {
    sh_.hmaster_data.write(sh_.hmaster.read());
  }
  if (!owner_active_) {
    return;
  }
  const auto tr = tr_any;
  const bool hr = hr_any;
  if (hr && (tr == ahb::Trans::kNonSeq || tr == ahb::Trans::kSeq)) {
    ++owner_addr_accepted_;
    if (owner_addr_accepted_ >= owner_beats_) {
      owner_active_ = false;  // address bus free; data tail may continue
    }
  }
  // Robustness: an owner driving IDLE after its first address phase has
  // finished presenting (early burst end) — release the address bus even
  // if the announced beat count was stale.
  if (owner_active_ && owner_addr_accepted_ > 0 && tr == ahb::Trans::kIdle) {
    owner_active_ = false;
  }
}

void RtlArbiter::do_handover(sim::Cycle now) {
  (void)now;
  if (!pending_ || owner_active_) {
    return;
  }
  sh_.hmaster.write(static_cast<std::uint8_t>(pending_master_));
  for (unsigned i = 0; i < sh_.hgrant.size(); ++i) {
    sh_.hgrant[i]->write(i == pending_master_);
  }
  grant_pulse_ = true;
  grant_pulse_master_ = pending_master_;
  // BI announce (§3.4): the DDRC learns the upcoming transaction — its
  // target (for bank prep) and its true burst length (INCR carries no
  // length on the AHB control signals).
  sh_.bi_next_valid.write(true);
  sh_.bi_next_addr.write(pending_txn_.addr);
  sh_.bi_next_burst.write(pack(pending_txn_.burst));
  sh_.bi_next_size.write(pack(pending_txn_.size));
  sh_.bi_next_beats.write(pending_txn_.beats);
  sh_.bi_next_write.write(pending_txn_.dir == ahb::Dir::kWrite);

  owner_active_ = true;
  owner_ = pending_master_;
  owner_beats_ = pending_txn_.beats;
  owner_addr_accepted_ = 0;
  owner_locked_ = pending_txn_.locked;
  pending_ = false;
}

void RtlArbiter::do_arbitration(sim::Cycle now) {
  if (pending_) {
    return;
  }
  // Request pipelining window: overlap arbitration only with the tail of
  // the current transfer (<= 2 outstanding beats), as the TLM does.
  const unsigned effective_remaining =
      owner_active_ ? owner_beats_ - owner_addr_accepted_ + 1
                    : sh_.bi_remaining.read();
  if (effective_remaining > 2) {
    return;
  }
  if (!sh_.bi_permit.read()) {
    return;
  }

  tlm::ArbContext& ctx = ctx_;
  ctx.now = now;
  ctx.lock_owner = ahb::kNoMaster;
  ctx.candidates.assign(masters_ + 1, tlm::ArbCandidate{});
  bool any_hazard = false;
  for (unsigned m = 0; m < masters_; ++m) {
    tlm::ArbCandidate& c = ctx.candidates[m];
    if (!qos_.state(static_cast<ahb::MasterId>(m)).requesting ||
        ((absorbed_wait_ >> m) & 1U) != 0) {
      continue;
    }
    const ahb::Transaction t = txn_from_sideband(m);
    c.requesting = true;
    c.is_write = t.dir == ahb::Dir::kWrite;
    c.locked = t.locked;
    c.beats = t.beats;
    if (cfg_.bi_hints_enabled && t.addr >= ddr_base_) {
      c.affinity = wire_affinity(m, t.addr);
    }
    if (wbuf_.overlaps(t.addr, t.addr + t.bytes())) {
      c.blocked_by_hazard = true;
      wbuf_.flag_hazard();
      any_hazard = true;
      if (t.dir == ahb::Dir::kRead) {
        wbuf_.fifo().count_forward();
      }
    }
  }
  tlm::ArbCandidate& wc = ctx.candidates[masters_];
  wc.requesting = wbuf_.drain_requesting();
  if (wc.requesting) {
    wc.is_write = true;
    wc.beats = sh_.wb_req_beats.read();
    if (cfg_.bi_hints_enabled) {
      const ahb::Addr a = sh_.wb_req_addr.read();
      if (a >= ddr_base_) {
        wc.affinity = wire_affinity(masters_, a);
      }
    }
  }
  ctx.wbuf_urgent = wbuf_.urgent();
  // Lock: the owner holds the bus while its locked transfer is active.
  if (owner_locked_ && (owner_active_ || sh_.bi_remaining.read() > 0)) {
    ctx.lock_owner = owner_;
  }
  wbuf_.clear_hazard_if_unneeded(any_hazard);

  const auto grant = arbiter_.arbitrate(ctx);
  if (!grant) {
    return;
  }
  pending_ = true;
  pending_master_ = grant->master;
  if (grant->handover) {
    ++handovers_;
  }
  if (grant->is_wbuf) {
    wbuf_.note_grant();
    pending_txn_ = ahb::Transaction{};
    pending_txn_.master = static_cast<ahb::MasterId>(masters_);
    pending_txn_.dir = ahb::Dir::kWrite;
    pending_txn_.addr = sh_.wb_req_addr.read();
    pending_txn_.burst = unpack_burst(sh_.wb_req_burst.read());
    pending_txn_.size = unpack_size(sh_.wb_req_size.read());
    pending_txn_.beats = sh_.wb_req_beats.read();
  } else {
    pending_txn_ = txn_from_sideband(grant->master);
    if (qos_checker_) {
      qos_checker_->on_grant(grant->master, grant->waited, now);
    }
    if (qos_.config(grant->master).cls == ahb::MasterClass::kRealTime &&
        grant->waited > qos_.config(grant->master).objective) {
      ++qos_.state(grant->master).qos_misses;
    }
  }
}

void RtlArbiter::do_takes(sim::Cycle now) {
  (void)now;  // takes are decided on sampled wires; kept for symmetry
  if (!wbuf_.fifo().enabled()) {
    return;
  }
  for (unsigned m = 0; m < masters_; ++m) {
    if (!qos_.state(static_cast<ahb::MasterId>(m)).requesting ||
        ((absorbed_wait_ >> m) & 1U) != 0) {
      continue;
    }
    if (unpack_dir(mw_[m]->req_dir.read()) != ahb::Dir::kWrite) {
      continue;
    }
    if (pending_ && pending_master_ == m) {
      wbuf_.fifo().count_bypass();
      continue;
    }
    // Do not absorb a write overlapping a granted read that has not yet
    // presented its first address phase (it would read stale memory).
    const bool read_grant_in_flight =
        (pending_ || (owner_active_ && owner_addr_accepted_ == 0)) &&
        pending_txn_.dir == ahb::Dir::kRead &&
        pending_txn_.master != static_cast<ahb::MasterId>(masters_);
    if (read_grant_in_flight) {
      const ahb::Transaction t = txn_from_sideband(m);
      const bool overlap = t.addr < pending_txn_.addr + pending_txn_.bytes() &&
                           pending_txn_.addr < t.addr + t.bytes();
      if (overlap) {
        continue;
      }
    }
    if (!wbuf_.can_reserve()) {
      wbuf_.fifo().count_full_stall();
      continue;
    }
    ahb::Transaction t = txn_from_sideband(m);
    wbuf_.reserve(m, t);
    sh_.wbuf_take[m]->write(true);
    take_pulse_ |= 1U << m;
    absorbed_wait_ |= 1U << m;
    qos_.state(static_cast<ahb::MasterId>(m)).requesting = false;
  }
}

std::string RtlArbiter::debug_string() const {
  std::string s = "arbiter{";
  s += pending_ ? "pending=" + std::to_string(pending_master_) : "no-pending";
  s += owner_active_ ? " owner=" + std::to_string(owner_) + " acc=" +
                           std::to_string(owner_addr_accepted_) + "/" +
                           std::to_string(owner_beats_)
                     : " no-owner";
  for (unsigned m = 0; m < masters_; ++m) {
    s += " m" + std::to_string(m) + "(req=" +
         (qos_.state(static_cast<ahb::MasterId>(m)).requesting ? "1" : "0") +
         ",abs=" + (((absorbed_wait_ >> m) & 1U) != 0 ? "1" : "0") + ")";
  }
  s += "}";
  return s;
}

void RtlArbiter::at_edge() {
  const sim::Cycle now = *now_;
  arbiter_.tick(now);
  // Close last edge's grant pulse before anything else: HGRANT is valid
  // for exactly one cycle so a parked grant cannot be reused.
  if (grant_pulse_) {
    sh_.hgrant[grant_pulse_master_]->write(false);
    grant_pulse_ = false;
  }
  track_requests(now);
  track_transfer_progress();
  do_handover(now);
  do_arbitration(now);
  do_takes(now);
  // A grant issued this edge hands over immediately when the address bus
  // is already free (combinational handover off a registered grant).
  do_handover(now);
}

void RtlArbiter::save_state(state::StateWriter& w) const {
  w.begin("rtl-arbiter");
  arbiter_.save_state(w);
  w.put_bool(qos_checker_.has_value());
  if (qos_checker_) {
    qos_checker_->save_state(w);
  }
  const auto save_flags = [&w, this](std::uint32_t flags) {
    w.put_u64(masters_);
    for (unsigned m = 0; m < masters_; ++m) {
      w.put_bool(((flags >> m) & 1U) != 0);
    }
  };
  save_flags(prev_req_);
  save_flags(take_pulse_);
  save_flags(absorbed_wait_);
  w.put_bool(pending_);
  w.put_u8(pending_master_);
  ahb::save_state(w, pending_txn_);
  w.put_bool(grant_pulse_);
  w.put_u8(grant_pulse_master_);
  w.put_bool(owner_active_);
  w.put_u8(owner_);
  w.put_u32(owner_beats_);
  w.put_u32(owner_addr_accepted_);
  w.put_bool(owner_locked_);
  w.put_u64(handovers_);
  w.end();
}

void RtlArbiter::restore_state(state::StateReader& r) {
  r.enter("rtl-arbiter");
  arbiter_.restore_state(r);
  state::expect_presence_match(r.get_bool(), qos_checker_.has_value(),
                               "RtlArbiter QoS checkers");
  if (qos_checker_) {
    qos_checker_->restore_state(r);
  }
  const auto restore_flags = [&r, this](std::uint32_t& flags,
                                        const char* what) {
    if (r.get_u64() != masters_) {
      throw state::StateError(std::string("RtlArbiter: ") + what +
                              " width mismatch");
    }
    flags = 0;
    for (unsigned m = 0; m < masters_; ++m) {
      flags |= r.get_bool() ? 1U << m : 0U;
    }
  };
  restore_flags(prev_req_, "prev_req");
  restore_flags(take_pulse_, "take_pulse");
  restore_flags(absorbed_wait_, "absorbed_wait");
  pending_ = r.get_bool();
  pending_master_ = r.get_u8();
  ahb::restore_state(r, pending_txn_);
  grant_pulse_ = r.get_bool();
  grant_pulse_master_ = r.get_u8();
  owner_active_ = r.get_bool();
  owner_ = r.get_u8();
  owner_beats_ = r.get_u32();
  owner_addr_accepted_ = r.get_u32();
  owner_locked_ = r.get_bool();
  handovers_ = r.get_u64();
  r.leave();
}

}  // namespace ahbp::rtl
