#include "tlm/bus.hpp"

#include <algorithm>
#include <cstdio>

#include "assertions/assert.hpp"
#include "obs/timeline.hpp"

namespace ahbp::tlm {

namespace {

/// Bus-track span label: owner + direction + address.
std::string owner_label(std::string_view owner, const ahb::Transaction& t) {
  char buf[56];
  std::snprintf(buf, sizeof(buf), "%.*s %s@0x%llx",
                static_cast<int>(owner.size()), owner.data(),
                t.dir == ahb::Dir::kRead ? "rd" : "wr",
                static_cast<unsigned long long>(t.addr));
  return buf;
}

}  // namespace

AhbPlusBus::AhbPlusBus(const ahb::BusConfig& cfg, ahb::QosRegisterFile& qos,
                       ddr::ChannelSet& dram, ahb::Addr ddr_base,
                       unsigned masters, chk::ViolationLog* checker_log)
    : cfg_(cfg),
      qos_(qos),
      dram_(dram),
      ddr_base_(ddr_base),
      masters_(masters),
      arbiter_(cfg_, qos),
      wbuf_(cfg.write_buffer_depth),
      slots_(masters),
      master_profiles_(masters),
      target_(masters + 1) {
  AHBP_ASSERT_MSG(masters >= 1 && masters <= 30,
                  "AhbPlusBus supports 1..30 masters");
  AHBP_ASSERT_MSG(ahb::valid_beat_bytes(cfg.data_width_bytes),
                  "bus.data_width_bytes must be 1, 2, 4 or 8");
  AHBP_ASSERT(qos.masters() == masters);
  for (unsigned m = 0; m < masters; ++m) {
    // Appended, not `"lit" + std::string`: GCC 12 -O3 flags that with a
    // false-positive -Wrestrict.
    master_profiles_[m].name = std::string("M").append(std::to_string(m));
  }
  if (checker_log != nullptr) {
    checker_.emplace(
        chk::CheckerConfig{.masters = masters,
                           .write_buffer_depth = cfg.write_buffer_depth,
                           .bus_width_bytes = cfg.data_width_bytes},
        *checker_log);
    qos_checker_.emplace(qos_, *checker_log);
  }
}

// --------------------------------------------------------- master port

void AhbPlusBus::request(ahb::MasterId m, const ahb::Transaction& txn,
                         sim::Cycle now) {
  AHBP_ASSERT(m < masters_);
  Slot& s = slots_[m];
  AHBP_ASSERT_MSG(s.st == Slot::St::kIdle,
                  "master issued a request with one already outstanding");
  AHBP_ASSERT_MSG(ahb::structurally_valid(txn), "malformed transaction");
  s.txn = txn;
  s.txn.master = m;
  s.txn.issued_at = now;
  s.st = Slot::St::kRequested;
  arbiter_.on_request(m, now);
}

GrantPoll AhbPlusBus::poll_grant(ahb::MasterId m) const {
  AHBP_ASSERT(m < masters_);
  const Slot& s = slots_[m];
  switch (s.st) {
    case Slot::St::kOwner:
      return GrantPoll::kGranted;
    case Slot::St::kBuffered:
      return GrantPoll::kBuffered;
    default:
      return GrantPoll::kWait;
  }
}

bool AhbPlusBus::poll_done(ahb::MasterId m, ahb::Transaction& out) {
  AHBP_ASSERT(m < masters_);
  Slot& s = slots_[m];
  if (s.st != Slot::St::kDone) {
    return false;
  }
  // Copy (not move): the slot keeps its beat-buffer capacity for the
  // master's next transaction, and `out` is the caller's reusable scratch.
  out = s.txn;
  s.st = Slot::St::kIdle;
  return true;
}

void AhbPlusBus::set_timeline(obs::Timeline& tl, unsigned pid) {
  tl_ = &tl;
  for (unsigned m = 0; m < masters_; ++m) {
    master_profiles_[m].timeline = &tl;
    master_profiles_[m].timeline_track =
        tl.add_track(pid, master_profiles_[m].name);
  }
  tl_bus_track_ = tl.add_track(pid, "bus");
  tl_wbuf_track_ = tl.add_track(pid, "wbuf");
  tl_last_occ_ = ~0U;
}

bool AhbPlusBus::quiescent() const noexcept {
  if (inflight_active_ || granted_ || !wbuf_.empty() || dram_.busy()) {
    return false;
  }
  if (dram_.pending_write_chunks() != 0) {
    return false;
  }
  return std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.st == Slot::St::kIdle;
  });
}

// ----------------------------------------------------------- idle leap

sim::Cycle AhbPlusBus::idle_until(sim::Cycle now) const noexcept {
  if (inflight_active_ || granted_ || !wbuf_.empty()) {
    return now;
  }
  for (const Slot& s : slots_) {
    if (s.st != Slot::St::kIdle) {
      return now;
    }
  }
  return dram_.idle_until(now);
}

void AhbPlusBus::skip_idle(sim::Cycle from, sim::Cycle to) {
  AHBP_ASSERT(to > from);
  const sim::Cycle n = to - from;
  // Mirror of evaluate() on an inert bus, cycle by cycle: tick() is the
  // epoch clock (closed-form catch-up); begin/BI/step/beat/completion/
  // arbitration/absorption all no-op with no requests and an idle DDRC;
  // what remains is bookkeeping, which commutes across cycles and
  // collapses to bulk updates.
  arbiter_.skip_idle(from, to);
  // do_arbitration() with zero hazard candidates clears a stale hazard
  // flag on the first idle cycle; the call is idempotent after that.
  wbuf_.clear_hazard_if_unneeded(false);
  for (unsigned m = 0; m < masters_; ++m) {
    master_profiles_[m].stalls.add_n(obs::StallClass::kThink, n);
  }
  wbuf_.sample_n(n);
  bus_profile_.sample_idle_n(n);
  // Occupancy counter: constant (empty) over the stretch, so at most the
  // first skipped cycle can emit a sample.
  if (tl_ != nullptr && wbuf_.enabled() && wbuf_.occupancy() != tl_last_occ_) {
    tl_last_occ_ = wbuf_.occupancy();
    tl_->counter(tl_wbuf_track_, from, "occupancy", tl_last_occ_);
  }
  if (checker_) {
    checker_->skip_idle(from, to);
  }
}

const ddr::ChannelCoord& AhbPlusBus::decode(ddr::CoordMemo& memo,
                                            ahb::Addr addr) {
  return memo.of(addr - ddr_base_,
                 [this](ahb::Addr off) { return dram_.coord_of(off); });
}

// ------------------------------------------------------------ evaluate

void AhbPlusBus::evaluate(sim::Cycle now) {
  arbiter_.tick(now);

  // Buffered writes finish once their data has streamed into the buffer.
  for (Slot& s : slots_) {
    if (s.st == Slot::St::kBuffered && now >= s.buffered_done_at) {
      s.st = Slot::St::kDone;
    }
  }

  do_begin(now);

  // BI hint: advertise the next transaction (the pending grant) ahead of
  // its address phase so the DDRC can prep the bank (§2, §3.4).
  std::optional<ddr::ChannelCoord> hint;
  if (cfg_.bi_hints_enabled && granted_) {
    const ahb::Transaction& next = *granted_ == masters_
                                       ? wbuf_.front()
                                       : slots_[*granted_].txn;
    hint = decode(hint_, next.addr);
  }
  dram_.set_hint(hint);

  dram_.step(now);

  const bool moved = move_data_beat(now);
  const bool busy = inflight_active_;
  const unsigned moved_bytes =
      moved && inflight_active_ ? ahb::size_bytes(inflight_.txn.size) : 0;

  // Capture the checker view before completion tears the transfer down —
  // the final beat must still be visible as an accepted SEQ/NONSEQ cycle.
  chk::BusCycleView view;
  if (checker_) {
    view.cycle = now;
    if (inflight_active_) {
      const Inflight& f = inflight_;
      const unsigned shown =
          moved ? f.beat - 1 : std::min(f.beat, f.txn.beats - 1);
      view.hmaster = f.owner;
      view.htrans = shown == 0 ? ahb::Trans::kNonSeq : ahb::Trans::kSeq;
      view.haddr =
          ahb::burst_beat_addr(f.txn.addr, f.txn.size, f.txn.burst, shown);
      view.hburst = f.txn.burst;
      view.hsize = f.txn.size;
      view.hwrite = f.txn.dir;
      view.hready = moved;
    } else {
      view.hmaster = ahb::kNoMaster;
      view.htrans = ahb::Trans::kIdle;
      view.hready = true;
    }
  }

  do_completion(now);
  do_arbitration(now);
  do_absorption(now);
  account_stalls(now);

  unsigned requesters = wbuf_.requesting() ? 1U : 0U;
  for (const Slot& s : slots_) {
    if (s.st == Slot::St::kRequested) {
      ++requesters;
    }
  }
  wbuf_.sample();
  bus_profile_.sample(requesters, busy, moved_bytes);
  if (tl_ != nullptr && wbuf_.enabled() && wbuf_.occupancy() != tl_last_occ_) {
    tl_last_occ_ = wbuf_.occupancy();
    tl_->counter(tl_wbuf_track_, now, "occupancy", tl_last_occ_);
  }
  emit_view(now, view);
}

void AhbPlusBus::account_stalls(sim::Cycle now) {
  for (unsigned m = 0; m < masters_; ++m) {
    const Slot& s = slots_[m];
    obs::StallClass c = obs::StallClass::kThink;
    switch (s.st) {
      case Slot::St::kIdle:
        c = obs::StallClass::kThink;
        break;
      case Slot::St::kOwner:
      case Slot::St::kBuffered:
      case Slot::St::kDone:
        c = obs::StallClass::kRunning;
        break;
      case Slot::St::kRequested:
        if (s.txn.dir == ahb::Dir::kWrite && wbuf_.enabled() && wbuf_.full()) {
          c = obs::StallClass::kWbufFull;
        } else if (inflight_active_) {
          c = obs::StallClass::kBusBusy;
        } else if (dram_.busy() || !dram_.access_permitted(now)) {
          c = obs::StallClass::kDdrBusy;
        } else {
          c = obs::StallClass::kArbWait;
        }
        break;
    }
    master_profiles_[m].stalls.add(c);
  }
}

void AhbPlusBus::do_begin(sim::Cycle now) {
  if (!granted_ || inflight_active_ || dram_.busy()) {
    return;
  }
  if (now < granted_cycle_ + kGrantToStart) {
    return;
  }
  // Rebuild the in-flight record in place (beat buffers keep capacity).
  Inflight& f = inflight_;
  f.owner = *granted_;
  f.from_wbuf = *granted_ == masters_;
  f.beat = 0;
  if (f.from_wbuf) {
    AHBP_ASSERT_MSG(!wbuf_.empty(), "wbuf grant with empty buffer");
    f.txn = wbuf_.front();
  } else {
    Slot& s = slots_[f.owner];
    AHBP_ASSERT(s.st == Slot::St::kRequested);
    s.st = Slot::St::kOwner;
    f.txn = s.txn;
    f.txn.started_at = now;
    s.txn.started_at = now;
    if (f.txn.locked) {
      lock_owner_ = f.owner;
    }
  }
  if (f.txn.dir == ahb::Dir::kRead) {
    f.txn.data.assign(f.txn.beats, 0);
  }
  f.addr_cycle = now;
  ddr::MemRequest req;
  req.is_write = f.txn.dir == ahb::Dir::kWrite;
  req.addr = f.txn.addr - ddr_base_;
  req.beat_bytes = ahb::size_bytes(f.txn.size);
  req.beats = f.txn.beats;
  req.burst = f.txn.burst;
  dram_.begin(req, now);
  if (tl_ != nullptr) {
    tl_->begin(tl_bus_track_, now,
               owner_label(f.from_wbuf ? std::string_view("wbuf")
                                       : master_profiles_[f.owner].name,
                           f.txn));
  }
  inflight_active_ = true;
  granted_.reset();
}

bool AhbPlusBus::move_data_beat(sim::Cycle now) {
  if (!inflight_active_) {
    return false;
  }
  Inflight& f = inflight_;
  if (f.beat >= f.txn.beats) {
    return false;
  }
  if (f.txn.dir == ahb::Dir::kRead) {
    if (!dram_.read_beat_available(now)) {
      return false;
    }
    f.txn.data[f.beat] = dram_.take_read_beat(now);
    ++f.beat;
    return true;
  }
  // Write: data phase begins the cycle after the address phase (AHB
  // pipeline), then one beat per cycle while the DDRC accepts.
  if (now <= f.addr_cycle || !dram_.write_beat_ready(now)) {
    return false;
  }
  dram_.put_write_beat(now, f.txn.data[f.beat]);
  ++f.beat;
  return true;
}

void AhbPlusBus::do_completion(sim::Cycle now) {
  if (!inflight_active_ || inflight_.beat < inflight_.txn.beats ||
      !dram_.done()) {
    return;
  }
  dram_.finish();
  Inflight& f = inflight_;
  f.txn.finished_at = now;
  if (f.from_wbuf) {
    wbuf_.pop_front(now);
  } else {
    Slot& s = slots_[f.owner];
    AHBP_ASSERT(s.st == Slot::St::kOwner);
    s.txn = f.txn;  // return read data + timestamps to the master
    s.st = Slot::St::kDone;
    master_profiles_[f.owner].record(s.txn, /*buffered=*/false);
    if (f.txn.locked) {
      lock_owner_ = ahb::kNoMaster;
    }
  }
  if (tl_ != nullptr) {
    tl_->end(tl_bus_track_, now);
  }
  inflight_active_ = false;
}

void AhbPlusBus::do_arbitration(sim::Cycle now) {
  if (granted_) {
    return;  // a grant is already waiting to begin
  }
  // Request pipelining (§2): overlap the next arbitration with the tail of
  // the current transfer.
  if (inflight_active_) {
    const unsigned remaining = inflight_.txn.beats - inflight_.beat;
    if (remaining > 2) {
      return;
    }
  }
  // BI admission: refresh wins over new grants.
  if (!dram_.access_permitted(now)) {
    return;
  }

  ArbContext& ctx = ctx_;
  ctx.now = now;
  ctx.cfg = &cfg_;
  ctx.qos = &qos_;
  ctx.masters = masters_;
  ctx.lock_owner = lock_owner_;
  ctx.candidates.assign(masters_ + 1, ArbCandidate{});
  bool any_hazard = false;
  for (unsigned m = 0; m < masters_; ++m) {
    const Slot& s = slots_[m];
    ArbCandidate& c = ctx.candidates[m];
    if (s.st != Slot::St::kRequested) {
      continue;
    }
    // Edge-sampled requests: the arbiter sees a request one cycle after
    // the master raised it, as the registered fabric does.
    if (s.txn.issued_at >= now) {
      continue;
    }
    c.requesting = true;
    c.is_write = s.txn.dir == ahb::Dir::kWrite;
    c.locked = s.txn.locked;
    c.beats = s.txn.beats;
    c.requested_at = s.txn.issued_at;
    c.affinity = cfg_.bi_hints_enabled
                     ? dram_.affinity_for(decode(target_[m], s.txn.addr), now)
                     : ddr::BankAffinity::kIdle;
    // Read-after-write (and write-after-write) ordering against the
    // buffer: an overlapping transaction must not be granted before the
    // buffered writes drain.
    if (wbuf_.overlaps(s.txn.addr, s.txn.addr + s.txn.bytes())) {
      c.blocked_by_hazard = true;
      wbuf_.flag_hazard();
      any_hazard = true;
      if (s.txn.dir == ahb::Dir::kRead) {
        wbuf_.count_forward();
      }
    }
  }
  ArbCandidate& wc = ctx.candidates[masters_];
  // The front entry may already be draining (granted while the previous
  // drain streams its tail); the buffer only re-requests while it holds a
  // further entry to drain.
  const unsigned draining =
      inflight_active_ && inflight_.from_wbuf ? 1U : 0U;
  wc.requesting = wbuf_.requesting() && wbuf_.occupancy() > draining;
  if (wc.requesting) {
    const ahb::Transaction& next = wbuf_.peek(draining);
    wc.is_write = true;
    wc.beats = next.beats;
    wc.affinity = cfg_.bi_hints_enabled
                      ? dram_.affinity_for(decode(target_[masters_], next.addr),
                                           now)
                      : ddr::BankAffinity::kIdle;
  }
  ctx.wbuf_urgent = wbuf_.urgent();
  wbuf_.clear_hazard_if_unneeded(any_hazard);

  const auto grant = arbiter_.arbitrate(ctx);
  if (!grant) {
    return;
  }
  granted_ = grant->master;
  granted_cycle_ = now;
  if (tl_ != nullptr) {
    tl_->instant(tl_bus_track_, now,
                 grant->is_wbuf
                     ? std::string("grant wbuf")
                     : "grant " + master_profiles_[grant->master].name);
  }
  ++bus_profile_.grants;
  if (grant->handover) {
    ++bus_profile_.handovers;
  }
  if (!grant->is_wbuf) {
    Slot& s = slots_[grant->master];
    s.txn.granted_at = now;
    if (qos_checker_) {
      qos_checker_->on_grant(grant->master, grant->waited, now);
    }
    if (grant->waited > qos_.config(grant->master).objective &&
        qos_.config(grant->master).cls == ahb::MasterClass::kRealTime) {
      ++master_profiles_[grant->master].qos_misses;
      ++qos_.state(grant->master).qos_misses;
    }
  }
}

void AhbPlusBus::do_absorption(sim::Cycle now) {
  if (!wbuf_.enabled()) {
    return;
  }
  for (unsigned m = 0; m < masters_; ++m) {
    Slot& s = slots_[m];
    if (s.st != Slot::St::kRequested || s.txn.dir != ahb::Dir::kWrite) {
      continue;
    }
    if (s.txn.issued_at >= now) {
      continue;  // not yet visible to the arbiter — no absorb decision yet
    }
    if (granted_ && *granted_ == m) {
      wbuf_.count_bypass();  // won arbitration outright: no buffering
      continue;
    }
    // Never absorb a write that overlaps the address range of a granted,
    // not-yet-started read — the read would then see stale memory.
    if (granted_ && *granted_ != masters_) {
      const ahb::Transaction& g = slots_[*granted_].txn;
      const bool overlap =
          s.txn.addr < g.addr + g.bytes() && g.addr < s.txn.addr + s.txn.bytes();
      if (overlap && g.dir == ahb::Dir::kRead) {
        continue;
      }
    }
    if (wbuf_.full()) {
      wbuf_.count_full_stall();
      continue;
    }
    ahb::Transaction t = s.txn;
    t.granted_at = now;
    t.started_at = now;
    // The buffer ingests the write data at one beat per cycle (off the
    // bus); the master is released when the streaming finishes.
    t.finished_at = now + t.beats;
    if (wbuf_.absorb(t, now)) {
      s.txn = t;
      s.st = Slot::St::kBuffered;
      s.buffered_done_at = t.finished_at;
      qos_.state(static_cast<ahb::MasterId>(m)).requesting =
          false;  // request satisfied by the buffer
      master_profiles_[m].record(t, /*buffered=*/true);
    }
  }
}

void AhbPlusBus::save_state(state::StateWriter& w) const {
  w.begin("ahb-bus");
  w.put_u64(slots_.size());
  for (const Slot& s : slots_) {
    w.put_u8(static_cast<std::uint8_t>(s.st));
    ahb::save_state(w, s.txn);
    w.put_u64(s.buffered_done_at);
  }
  w.put_bool(inflight_active_);
  if (inflight_active_) {
    w.put_u8(inflight_.owner);
    ahb::save_state(w, inflight_.txn);
    w.put_u32(inflight_.beat);
    w.put_u64(inflight_.addr_cycle);
    w.put_bool(inflight_.from_wbuf);
  }
  w.put_bool(granted_.has_value());
  w.put_u8(granted_ ? *granted_ : ahb::kNoMaster);
  w.put_u64(granted_cycle_);
  w.put_u8(lock_owner_);
  arbiter_.save_state(w);
  wbuf_.save_state(w);
  bus_profile_.save_state(w);
  for (const stats::MasterProfile& p : master_profiles_) {
    p.save_state(w);
  }
  w.put_bool(checker_.has_value());
  if (checker_) {
    checker_->save_state(w);
    qos_checker_->save_state(w);
  }
  w.end();
}

void AhbPlusBus::restore_state(state::StateReader& r) {
  r.enter("ahb-bus");
  const std::uint64_t n = r.get_u64();
  if (n != slots_.size()) {
    throw state::StateError("AhbPlusBus: snapshot has " + std::to_string(n) +
                            " masters, platform has " +
                            std::to_string(slots_.size()));
  }
  for (Slot& s : slots_) {
    s.st = static_cast<Slot::St>(r.get_u8());
    ahb::restore_state(r, s.txn);
    s.buffered_done_at = r.get_u64();
  }
  if (r.get_bool()) {
    inflight_active_ = true;
    inflight_.owner = r.get_u8();
    ahb::restore_state(r, inflight_.txn);
    inflight_.beat = r.get_u32();
    inflight_.addr_cycle = r.get_u64();
    inflight_.from_wbuf = r.get_bool();
  } else {
    inflight_active_ = false;
  }
  const bool has_grant = r.get_bool();
  const ahb::MasterId g = r.get_u8();
  granted_ = has_grant ? std::optional<ahb::MasterId>(g) : std::nullopt;
  granted_cycle_ = r.get_u64();
  lock_owner_ = r.get_u8();
  arbiter_.restore_state(r);
  wbuf_.restore_state(r);
  bus_profile_.restore_state(r);
  for (stats::MasterProfile& p : master_profiles_) {
    p.restore_state(r);
  }
  state::expect_presence_match(r.get_bool(), checker_.has_value(),
                               "AhbPlusBus checkers");
  if (checker_) {
    checker_->restore_state(r);
    qos_checker_->restore_state(r);
  }
  r.leave();
}

void AhbPlusBus::emit_view(sim::Cycle now, chk::BusCycleView view) {
  (void)now;
  if (!checker_) {
    return;
  }
  for (unsigned m = 0; m < masters_; ++m) {
    if (slots_[m].st == Slot::St::kRequested) {
      view.request_mask |= 1U << m;
    }
  }
  if (wbuf_.requesting()) {
    view.request_mask |= 1U << masters_;
  }
  view.wbuf_occupancy = wbuf_.occupancy();
  checker_->on_cycle(view);
}

}  // namespace ahbp::tlm
