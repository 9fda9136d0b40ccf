#include "ddr/channels.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ahb/address.hpp"
#include "obs/timeline.hpp"

namespace ahbp::ddr {

// ------------------------------------------------------ ChannelOverride --

bool ChannelOverride::any() const noexcept {
  for (const TimingField& f : kTimingFields) {
    if (this->*f.opt) {
      return true;
    }
  }
  return banks || rows || cols || col_bytes || mapping;
}

void ChannelOverride::apply(DdrTiming& t, Geometry& g) const {
  for (const TimingField& f : kTimingFields) {
    if (this->*f.opt) {
      t.*f.shared = *(this->*f.opt);
    }
  }
  if (banks) g.banks = *banks;
  if (rows) g.rows = *rows;
  if (cols) g.cols = *cols;
  if (col_bytes) g.col_bytes = *col_bytes;
  if (mapping) g.mapping = *mapping;
}

std::vector<std::uint32_t> bank_bases(
    const std::vector<ChannelConfig>& cfgs) {
  std::vector<std::uint32_t> bases;
  bases.reserve(cfgs.size() + 1);
  std::uint32_t base = 0;
  for (const ChannelConfig& c : cfgs) {
    bases.push_back(base);
    base += c.geom.banks;
  }
  bases.push_back(base);
  return bases;
}

std::vector<ChannelConfig> resolve_channels(
    const DdrTiming& shared_timing, const Geometry& shared_geom,
    const Interleave& ilv, const std::vector<ChannelOverride>& overrides) {
  std::vector<ChannelConfig> out(ilv.channels,
                                 ChannelConfig{shared_timing, shared_geom});
  for (std::uint32_t k = 0; k < ilv.channels && k < overrides.size(); ++k) {
    overrides[k].apply(out[k].timing, out[k].geom);
  }
  return out;
}

// ----------------------------------------------------------- ChannelSet --

ChannelSet::ChannelSet(const std::vector<ChannelConfig>& cfgs,
                       const Interleave& ilv)
    : ilv_(ilv) {
  if (!ilv.valid()) {
    throw std::invalid_argument(
        "ChannelSet: interleave must have 1/2/4/8 channels and a"
        " power-of-two stripe >= 8 bytes");
  }
  if (cfgs.size() != ilv.channels) {
    throw std::invalid_argument(
        "ChannelSet: one ChannelConfig per interleave channel required");
  }
  engines_.reserve(cfgs.size());
  for (const ChannelConfig& c : cfgs) {
    // Bijection precondition: a stripe that does not divide the device
    // capacity would map some aperture offsets beyond the channel's last
    // byte (the decode would silently wrap).
    if (ilv.channels > 1 && c.geom.capacity() % ilv.stripe_bytes != 0) {
      throw std::invalid_argument(
          "ChannelSet: interleave stripe must divide every channel's"
          " capacity");
    }
    engines_.push_back(std::make_unique<DdrcEngine>(c.timing, c.geom));
  }
  bank_base_ = bank_bases(cfgs);
}

bool ChannelSet::busy() const noexcept {
  return channels() == 1 ? engines_[0]->busy() : txn_active_;
}

void ChannelSet::split(const MemRequest& req) {
  segments_.clear();
  const ahb::Size size = ahb::size_for_bytes(req.beat_bytes);
  std::vector<ahb::Addr>& beat = split_scratch_;  // capacity reused per txn
  beat.resize(req.beats);
  for (unsigned i = 0; i < req.beats; ++i) {
    beat[i] = ahb::burst_beat_addr(req.addr, size, req.burst, i);
  }
  // A burst whose beats all land on one channel with their address pattern
  // preserved under localization forwards verbatim — wrap semantics and
  // chunking stay exactly what a dedicated controller would see.
  const std::uint32_t ch0 = ilv_.channel_of(beat[0]);
  const ahb::Addr l0 = ilv_.local_of(beat[0]);
  bool intact = true;
  for (unsigned i = 0; i < req.beats && intact; ++i) {
    intact = ilv_.channel_of(beat[i]) == ch0 &&
             ilv_.local_of(beat[i]) ==
                 ahb::burst_beat_addr(l0, size, req.burst, i);
  }
  if (intact) {
    MemRequest sub = req;
    sub.addr = l0;
    segments_.push_back(Segment{ch0, sub, false});
    return;
  }
  // Otherwise decompose into maximal runs of consecutive channel-local
  // addresses; each run is an INCR sub-request on its channel.
  for (unsigned i = 0; i < req.beats; ++i) {
    const std::uint32_t ch = ilv_.channel_of(beat[i]);
    const ahb::Addr l = ilv_.local_of(beat[i]);
    const bool extend =
        !segments_.empty() && segments_.back().channel == ch &&
        l == segments_.back().req.addr +
                 static_cast<ahb::Addr>(segments_.back().req.beats) *
                     req.beat_bytes;
    if (extend) {
      ++segments_.back().req.beats;
    } else {
      MemRequest sub = req;
      sub.addr = l;
      sub.beats = 1;
      sub.burst = ahb::Burst::kIncr;
      segments_.push_back(Segment{ch, sub, false});
    }
  }
}

void ChannelSet::advance(sim::Cycle now) {
  // Retire drained bus-facing segments in order.
  while (active_ < segments_.size()) {
    const Segment& s = segments_[active_];
    if (!s.begun) {
      break;
    }
    DdrcEngine& e = *engines_[s.channel];
    if (!e.busy() || !e.done()) {
      break;
    }
    e.finish();
    ++active_;
  }
  // Begin every pending segment whose channel engine is free.  In-order
  // iteration keeps same-channel segments sequential; different channels
  // begin immediately and overlap their bank/command work.
  for (std::size_t i = active_; i < segments_.size(); ++i) {
    Segment& s = segments_[i];
    if (!s.begun && !engines_[s.channel]->busy()) {
      engines_[s.channel]->begin(s.req, now);
      s.begun = true;
    }
  }
}

void ChannelSet::begin(const MemRequest& req, sim::Cycle now) {
  if (channels() == 1) {
    engines_[0]->begin(req, now);
    return;
  }
  if (txn_active_) {
    throw std::logic_error("ChannelSet::begin while busy");
  }
  split(req);
  txn_active_ = true;
  active_ = 0;
  advance(now);
}

bool ChannelSet::done() const noexcept {
  if (channels() == 1) {
    return engines_[0]->done();
  }
  return txn_active_ && active_ >= segments_.size();
}

void ChannelSet::finish() {
  if (channels() == 1) {
    engines_[0]->finish();
    return;
  }
  if (!done()) {
    throw std::logic_error("ChannelSet::finish before done");
  }
  txn_active_ = false;
  segments_.clear();
  active_ = 0;
}

unsigned ChannelSet::remaining_beats() const noexcept {
  if (channels() == 1) {
    return engines_[0]->remaining_beats();
  }
  if (!txn_active_) {
    return 0;
  }
  unsigned remaining = 0;
  for (std::size_t i = active_; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    // Only the bus-facing segment has transferred beats; later segments
    // may have begun (command work overlaps) but their beats all remain.
    remaining += i == active_ && s.begun
                     ? engines_[s.channel]->remaining_beats()
                     : s.req.beats;
  }
  return remaining;
}

Command ChannelSet::step(sim::Cycle now) {
  if (channels() == 1) {
    const Command c = engines_[0]->step(now);
    if (tl_ != nullptr) {
      emit_command(0, c, now);
    }
    return c;
  }
  advance(now);
  // Each channel has its own command bus; timeline emission and live
  // selection run in channel order.
  Command live{};
  for (std::uint32_t ch = 0; ch < channels(); ++ch) {
    const Command c = engines_[ch]->step(now);
    if (tl_ != nullptr) {
      emit_command(ch, c, now);
    }
    if (c.kind != CmdKind::kNop && active_ < segments_.size() &&
        segments_[active_].channel == ch) {
      live = c;
    }
  }
  return live;
}

sim::Cycle ChannelSet::idle_until(sim::Cycle now) const noexcept {
  if (channels() > 1 && txn_active_) {
    return now;
  }
  sim::Cycle bound = sim::kNeverCycle;
  for (const auto& e : engines_) {
    const sim::Cycle b = e->idle_until(now);
    if (b < bound) {
      bound = b;
    }
  }
  return bound;
}

void ChannelSet::set_timeline(obs::Timeline* tl, unsigned pid) {
  tl_ = tl;
  tl_ch_track_.clear();
  tl_bank_track_.clear();
  if (tl_ == nullptr) {
    return;
  }
  for (std::uint32_t ch = 0; ch < channels(); ++ch) {
    tl_ch_track_.push_back(tl_->add_track(pid, "ddr ch" + std::to_string(ch)));
    const std::uint32_t banks = bank_base_[ch + 1] - bank_base_[ch];
    for (std::uint32_t b = 0; b < banks; ++b) {
      tl_bank_track_.push_back(tl_->add_track(
          pid, "ch" + std::to_string(ch) + " bank" + std::to_string(b)));
    }
  }
}

void ChannelSet::emit_command(std::uint32_t ch, const Command& c,
                              sim::Cycle now) {
  if (c.kind == CmdKind::kNop) {
    return;
  }
  const unsigned ch_track = tl_ch_track_[ch];
  switch (c.kind) {
    case CmdKind::kActivate:
      tl_->begin(tl_bank_track_[bank_base_[ch] + c.bank], now,
                 "row " + std::to_string(c.row));
      tl_->instant(ch_track, now, "ACT b" + std::to_string(c.bank));
      break;
    case CmdKind::kPrecharge:
      tl_->end(tl_bank_track_[bank_base_[ch] + c.bank], now);
      tl_->instant(ch_track, now, "PRE b" + std::to_string(c.bank));
      break;
    case CmdKind::kRead:
      tl_->instant(ch_track, now, "RD b" + std::to_string(c.bank));
      break;
    case CmdKind::kWrite:
      tl_->instant(ch_track, now, "WR b" + std::to_string(c.bank));
      break;
    case CmdKind::kRefresh:
      tl_->instant(ch_track, now, "REF");
      break;
    case CmdKind::kNop:
      break;
  }
}

bool ChannelSet::read_beat_available(sim::Cycle now) const noexcept {
  if (channels() == 1) {
    return engines_[0]->read_beat_available(now);
  }
  if (!txn_active_ || active_ >= segments_.size()) {
    return false;
  }
  const Segment& s = segments_[active_];
  return s.begun && engines_[s.channel]->read_beat_available(now);
}

ahb::Word ChannelSet::take_read_beat(sim::Cycle now) {
  if (channels() == 1) {
    return engines_[0]->take_read_beat(now);
  }
  if (!read_beat_available(now)) {
    throw std::logic_error("ChannelSet::take_read_beat: no beat available");
  }
  const ahb::Word w = engines_[segments_[active_].channel]->take_read_beat(now);
  advance(now);
  return w;
}

bool ChannelSet::write_beat_ready(sim::Cycle now) const noexcept {
  if (channels() == 1) {
    return engines_[0]->write_beat_ready(now);
  }
  if (!txn_active_ || active_ >= segments_.size()) {
    return false;
  }
  const Segment& s = segments_[active_];
  return s.begun && engines_[s.channel]->write_beat_ready(now);
}

void ChannelSet::put_write_beat(sim::Cycle now, ahb::Word w) {
  if (channels() == 1) {
    engines_[0]->put_write_beat(now, w);
    return;
  }
  if (!write_beat_ready(now)) {
    throw std::logic_error("ChannelSet::put_write_beat: not ready");
  }
  engines_[segments_[active_].channel]->put_write_beat(now, w);
  advance(now);
}

std::uint32_t ChannelSet::idle_bank_mask(sim::Cycle now) const {
  if (channels() == 1) {
    return engines_[0]->idle_bank_mask(now);
  }
  std::uint32_t mask = 0;
  for (std::uint32_t ch = 0; ch < channels(); ++ch) {
    if (bank_base_[ch] >= 32) {
      break;
    }
    mask |= engines_[ch]->idle_bank_mask(now) << bank_base_[ch];
  }
  return mask;
}

bool ChannelSet::access_permitted(sim::Cycle now) const noexcept {
  for (const auto& e : engines_) {
    if (!e->access_permitted(now)) {
      return false;
    }
  }
  return true;
}

std::size_t ChannelSet::pending_write_chunks() const noexcept {
  std::size_t n = 0;
  for (const auto& e : engines_) {
    n += e->pending_write_chunks();
  }
  return n;
}

BankEngine::Counters ChannelSet::command_counters() const noexcept {
  BankEngine::Counters sum;
  for (const auto& e : engines_) {
    const BankEngine::Counters& c = e->banks().counters();
    sum.activates += c.activates;
    sum.reads += c.reads;
    sum.writes += c.writes;
    sum.precharges += c.precharges;
    sum.refreshes += c.refreshes;
    sum.read_beats += c.read_beats;
    sum.write_beats += c.write_beats;
  }
  return sum;
}

void ChannelSet::save_state(state::StateWriter& w) const {
  w.begin("channel-set");
  w.put_u32(channels());
  for (const auto& e : engines_) {
    e->save_state(w);
  }
  w.put_bool(txn_active_);
  w.put_u64(segments_.size());
  for (const Segment& s : segments_) {
    w.put_u32(s.channel);
    ddr::save_state(w, s.req);
    w.put_bool(s.begun);
  }
  w.put_u64(active_);
  w.end();
}

void ChannelSet::restore_state(state::StateReader& r) {
  r.enter("channel-set");
  const std::uint32_t n = r.get_u32();
  if (n != channels()) {
    throw state::StateError(
        "ChannelSet: snapshot has " + std::to_string(n) +
        " channels, configuration has " + std::to_string(channels()));
  }
  for (auto& e : engines_) {
    e->restore_state(r);
  }
  txn_active_ = r.get_bool();
  segments_.assign(r.get_count(), Segment{});
  for (Segment& s : segments_) {
    s.channel = r.get_u32();
    ddr::restore_state(r, s.req);
    s.begun = r.get_bool();
  }
  active_ = r.get_u64();
  r.leave();
}

DdrcEngine::HitStats ChannelSet::hit_stats() const noexcept {
  DdrcEngine::HitStats sum;
  for (const auto& e : engines_) {
    const DdrcEngine::HitStats& h = e->hit_stats();
    sum.row_hits += h.row_hits;
    sum.row_misses += h.row_misses;
    sum.row_conflicts += h.row_conflicts;
    sum.hint_activates += h.hint_activates;
    sum.hint_precharges += h.hint_precharges;
  }
  return sum;
}

}  // namespace ahbp::ddr
