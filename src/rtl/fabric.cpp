#include "rtl/fabric.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "assertions/assert.hpp"
#include "obs/selfprof.hpp"
#include "obs/timeline.hpp"

namespace ahbp::rtl {

namespace {
constexpr sim::Tick kClockPeriod = 2;  // one bus cycle = 2 ticks
}

RtlFabric::RtlFabric(const core::PlatformConfig& cfg,
                     std::vector<traffic::Script> scripts)
    : bus_(cfg.bus),
      masters_(static_cast<unsigned>(scripts.size())),
      clock_(kernel_, "hclk", kClockPeriod),
      // The cycle counter must be the first posedge subscriber: every other
      // process reads the incremented value.
      tick_(kernel_, "cycle-tick", [this] { ++cycle_; }),
      qos_(masters_),
      ch_cfg_(core::ddr_channel_configs(cfg)),
      sh_(kernel_, masters_, ddr::bank_bases(ch_cfg_).back()),
      master_profiles_(masters_),
      observer_(kernel_, "observer", [this] { observe_edge(); }) {
  AHBP_ASSERT_MSG(masters_ >= 1, "at least one master required");
  AHBP_ASSERT_MSG(ahb::valid_beat_bytes(bus_.data_width_bytes),
                  "bus.data_width_bytes must be 1, 2, 4 or 8");
  AHBP_ASSERT_MSG(cfg.masters.size() == masters_,
                  "one script per configured master required");
  for (unsigned m = 0; m < masters_; ++m) {
    qos_.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }

  clock_.signal().subscribe(tick_, sim::Edge::kPos);

  // Wire columns: one per master plus, last, the write buffer's.
  columns_.reserve(masters_ + 1);
  std::vector<MasterWires*> all_cols;
  for (unsigned m = 0; m <= masters_; ++m) {
    columns_.push_back(std::make_unique<MasterWires>(kernel_, m));
    all_cols.push_back(columns_.back().get());
  }
  const std::vector<MasterWires*> mw(all_cols.begin(), all_cols.end() - 1);

  // Masters (subscribe before arbiter/wbuf/ddrc).
  for (unsigned m = 0; m < masters_; ++m) {
    auto master = std::make_unique<RtlMaster>(
        kernel_, static_cast<ahb::MasterId>(m), *columns_[m], sh_,
        std::move(scripts[m]), &cycle_, master_profiles_[m]);
    master->on_complete = [this, m](const ahb::Transaction& t) {
      last_completion_ = cycle_;
      ++completed_;
      if (on_complete_) {
        on_complete_(static_cast<ahb::MasterId>(m), t);
      }
    };
    master->bind_clock(clock_.signal());
    rtl_masters_.push_back(std::move(master));
    // Appended, not `"lit" + std::string`: GCC 12 -O3 flags that with a
    // false-positive -Wrestrict.
    master_profiles_[m].name = std::string("M").append(std::to_string(m));
  }

  wbuf_ = std::make_unique<RtlWriteBuffer>(kernel_, bus_, masters_, sh_,
                                           *columns_[masters_], mw, &cycle_);
  arbiter_ = std::make_unique<RtlArbiter>(
      kernel_, bus_, qos_, sh_, mw, *wbuf_, ch_cfg_, cfg.interleave,
      cfg.ddr_base, &cycle_, cfg.enable_checkers ? &log_ : nullptr);
  // Subscription order: arbiter before write buffer (reservation happens
  // before the buffer's capture/drain pass, as in the TLM).
  arbiter_->bind_clock(clock_.signal());
  wbuf_->bind_clock(clock_.signal());

  ddrc_ = std::make_unique<RtlDdrc>(kernel_, ch_cfg_, cfg.interleave,
                                    cfg.ddr_base, bus_, sh_, &cycle_);
  ddrc_->bind_clock(clock_.signal());

  detail_ = std::make_unique<DetailLayer>(kernel_, sh_, all_cols,
                                          ddrc_->channels(), &cycle_);
  detail_->bind_clock(clock_.signal());
  bitlevel_ = std::make_unique<BitLevelLayer>(kernel_, sh_, all_cols);

  make_muxes();

  if (cfg.enable_checkers) {
    checker_ = std::make_unique<chk::BusChecker>(
        chk::CheckerConfig{.masters = masters_,
                           .write_buffer_depth = bus_.write_buffer_depth,
                           .bus_width_bytes = bus_.data_width_bytes},
        log_);
  }
  clock_.signal().subscribe(observer_, sim::Edge::kPos);
}

void RtlFabric::make_muxes() {
  // Combinational address/control mux: routes the address-phase owner's
  // column (HMASTER-selected) onto the shared bus.  Settles through delta
  // cycles whenever the owner or any routed signal changes.
  mux_proc_ = std::make_unique<sim::Process>(kernel_, "bus-mux", [this] {
    const std::uint8_t owner = sh_.hmaster.read();
    if (owner >= columns_.size()) {
      sh_.htrans.write(pack(ahb::Trans::kIdle));
      return;
    }
    const MasterWires& c = *columns_[owner];
    sh_.htrans.write(c.htrans.read());
    sh_.haddr.write(c.haddr.read());
    sh_.hburst.write(c.hburst.read());
    sh_.hsize.write(c.hsize.read());
    sh_.hwrite.write(c.hwrite.read());
  });
  sh_.hmaster.subscribe(*mux_proc_);
  for (auto& col : columns_) {
    col->htrans.subscribe(*mux_proc_);
    col->haddr.subscribe(*mux_proc_);
    col->hburst.subscribe(*mux_proc_);
    col->hsize.subscribe(*mux_proc_);
    col->hwrite.subscribe(*mux_proc_);
  }

  // Write-data mux: selected by the *delayed* data-phase owner (HMASTERD).
  data_mux_proc_ = std::make_unique<sim::Process>(kernel_, "wdata-mux", [this] {
    const std::uint8_t owner = sh_.hmaster_data.read();
    if (owner < columns_.size()) {
      sh_.hwdata.write(columns_[owner]->hwdata.read());
    }
  });
  sh_.hmaster_data.subscribe(*data_mux_proc_);
  for (auto& col : columns_) {
    col->hwdata.subscribe(*data_mux_proc_);
  }
}

void RtlFabric::observe_edge() {
  if (vcd_) {
    vcd_->sample(cycle_);
  }
  // Views describe the previous bus cycle (all reads return values
  // committed before this edge).
  const auto tr = unpack_trans(sh_.htrans.read());
  const bool hr = sh_.hready.read();

  chk::BusCycleView v;
  v.cycle = cycle_;
  for (unsigned m = 0; m < masters_; ++m) {
    if (columns_[m]->hbusreq.read()) {
      v.request_mask |= 1U << m;
    }
  }
  if (sh_.wbuf_req.read()) {
    v.request_mask |= 1U << masters_;
  }
  v.hmaster = sh_.hmaster.read();
  v.htrans = tr;
  v.haddr = sh_.haddr.read();
  v.hburst = unpack_burst(sh_.hburst.read());
  v.hsize = unpack_size(sh_.hsize.read());
  v.hwrite = unpack_dir(sh_.hwrite.read());
  v.hready = hr;
  v.hresp = static_cast<ahb::Resp>(sh_.hresp.read());
  v.wbuf_occupancy = sh_.wbuf_occupancy.read();
  if (checker_) {
    checker_->on_cycle(v);
  }

  // Bus profile: track data-phase progress with a small burst follower.
  bool moved = false;
  if (hr && obs_pending_data_ > 0) {
    moved = true;
    --obs_pending_data_;
  }
  if (hr && (tr == ahb::Trans::kNonSeq || tr == ahb::Trans::kSeq)) {
    if (tr == ahb::Trans::kNonSeq) {
      obs_beat_bytes_ = ahb::size_bytes(v.hsize);
    }
    ++obs_pending_data_;
  }
  unsigned requesters = sh_.wbuf_req.read() ? 1U : 0U;
  for (unsigned m = 0; m < masters_; ++m) {
    if (columns_[m]->hbusreq.read()) {
      ++requesters;
    }
  }
  const bool busy = tr != ahb::Trans::kIdle || obs_pending_data_ > 0;
  bus_profile_.sample(requesters, busy, moved ? obs_beat_bytes_ : 0);

  // Stall attribution: charge this cycle to one class per master, from the
  // same committed wires the checker view reads (always on — observation
  // only, so it cannot perturb the simulation).
  const std::uint8_t owner = sh_.hmaster.read();
  const bool ddr_blocked =
      ddrc_->channels().busy() || !sh_.bi_permit.read();
  for (unsigned m = 0; m < masters_; ++m) {
    obs::StallClass c = obs::StallClass::kThink;
    switch (rtl_masters_[m]->state()) {
      case RtlMaster::State::kIdle:
        c = obs::StallClass::kThink;
        break;
      case RtlMaster::State::kTransfer:
      case RtlMaster::State::kBufStream:
        c = obs::StallClass::kRunning;
        break;
      case RtlMaster::State::kRequest:
        if (wbuf_->fifo().enabled() &&
            rtl_masters_[m]->pending_txn().dir == ahb::Dir::kWrite &&
            !wbuf_->can_reserve()) {
          c = obs::StallClass::kWbufFull;
        } else if (busy && owner != m) {
          c = obs::StallClass::kBusBusy;
        } else if (ddr_blocked) {
          c = obs::StallClass::kDdrBusy;
        } else {
          c = obs::StallClass::kArbWait;
        }
        break;
    }
    master_profiles_[m].stalls.add(c);
  }

  if (tl_ != nullptr) {
    if (owner != tl_last_owner_ && owner <= masters_) {
      tl_->instant(tl_bus_track_, cycle_,
                   owner == masters_ ? std::string("grant wbuf")
                                     : "grant M" + std::to_string(owner));
    }
    tl_last_owner_ = owner;
    if (busy && !tl_busy_open_) {
      tl_busy_open_ = true;
      tl_->begin(tl_bus_track_, cycle_,
                 owner == masters_ ? std::string("xfer wbuf")
                 : owner < masters_ ? "xfer M" + std::to_string(owner)
                                    : std::string("xfer"));
    } else if (!busy && tl_busy_open_) {
      tl_busy_open_ = false;
      tl_->end(tl_bus_track_, cycle_);
    }
    const unsigned occ = sh_.wbuf_occupancy.read();
    if (wbuf_->fifo().enabled() && occ != tl_last_occ_) {
      tl_last_occ_ = occ;
      tl_->counter(tl_wbuf_track_, cycle_, "occupancy", occ);
    }
  }
}

sim::Cycle RtlFabric::run(sim::Cycle max_cycles) {
  const sim::Cycle start = cycle_;
  while (cycle_ - start < max_cycles && !finished()) {
    // Chunks align to *absolute* 256-cycle boundaries, not to this call's
    // entry point: finished() is only sampled between chunks, so a resumed
    // fabric (entering mid-interval after a checkpoint restore) must test
    // it at the same cycles an uninterrupted run does or the two runs stop
    // at different ran_cycles.
    const sim::Cycle to_boundary = 256 - cycle_ % 256;
    const sim::Cycle chunk =
        std::min(to_boundary, max_cycles - (cycle_ - start));
    kernel_.run_until(kernel_.now() + chunk * kClockPeriod);
  }
  return cycle_ - start;
}

bool RtlFabric::finished() const {
  for (const auto& m : rtl_masters_) {
    if (!m->finished()) {
      return false;
    }
  }
  return !wbuf_->draining() && wbuf_->fifo().empty() && ddrc_->quiescent();
}

stats::RunProfile RtlFabric::profile() const {
  stats::RunProfile p;
  p.masters = master_profiles_;
  for (unsigned m = 0; m < masters_; ++m) {
    p.masters[m].qos_misses = qos_.state(static_cast<ahb::MasterId>(m)).qos_misses;
  }
  p.bus = bus_profile_;
  p.bus.grants = arbiter_->grants();
  p.bus.handovers = arbiter_->handovers();
  p.write_buffer = wbuf_->fifo().profile();
  p.ddr.commands = ddrc_->channels().command_counters();
  p.ddr.hits = ddrc_->channels().hit_stats();
  p.total_cycles = last_completion_;
  p.completed_txns = completed_;
  return p;
}

void RtlFabric::set_on_complete(core::CompletionHook fn) {
  on_complete_ = std::move(fn);
}

void RtlFabric::set_trace_recorder(unsigned m, traffic::TraceRecorder* rec) {
  AHBP_ASSERT(m < masters_);
  rtl_masters_[m]->set_trace_recorder(rec);
}

void RtlFabric::enable_vcd(std::ostream& os) {
  vcd_ = std::make_unique<sim::VcdWriter>(os);
  vcd_->add_signal(clock_.signal(), 1);
  vcd_->add_signal(sh_.hmaster, 8);
  vcd_->add_signal(sh_.htrans, 2);
  // Data buses are as wide as the configured datapath (HSIZE semantics:
  // a beat occupies the low size_bytes lanes of this width).
  const unsigned data_bits = bus_.data_width_bytes * 8;
  vcd_->add_signal(sh_.haddr, 32);
  vcd_->add_signal(sh_.hwdata, data_bits);
  vcd_->add_signal(sh_.hrdata, data_bits);
  vcd_->add_signal(sh_.hready, 1);
  for (unsigned m = 0; m < masters_; ++m) {
    vcd_->add_signal(columns_[m]->hbusreq, 1);
    vcd_->add_signal(*sh_.hgrant[m], 1);
  }
  vcd_->add_signal(sh_.wbuf_req, 1);
  // At least 4 bits keeps shallow-buffer waveforms unchanged; deeper
  // buffers widen the wire so a full buffer never wraps to zero.
  vcd_->add_signal(sh_.wbuf_occupancy,
                   std::max(4U, static_cast<unsigned>(std::bit_width(
                                    bus_.write_buffer_depth))));
  vcd_->add_signal(sh_.bi_permit, 1);
  vcd_->write_header();
}

void RtlFabric::enable_timeline(obs::Timeline& tl, unsigned pid) {
  tl_ = &tl;
  for (unsigned m = 0; m < masters_; ++m) {
    master_profiles_[m].timeline = &tl;
    master_profiles_[m].timeline_track =
        tl.add_track(pid, master_profiles_[m].name);
  }
  tl_bus_track_ = tl.add_track(pid, "bus");
  tl_wbuf_track_ = tl.add_track(pid, "wbuf");
  tl_last_occ_ = ~0U;
  tl_last_owner_ = 0xFF;
  tl_busy_open_ = false;
  ddrc_->channels().set_timeline(&tl, pid);
}

void RtlFabric::set_profiler(obs::SelfProfiler* p) {
  kernel_.set_profiler(p);
}

void RtlFabric::save_state(state::StateWriter& w) const {
  w.begin("rtl-fabric");
  w.put_u64(cycle_);
  w.put_u64(last_completion_);
  w.put_u64(completed_);
  w.put_u32(obs_pending_data_);
  w.put_u32(obs_beat_bytes_);
  clock_.save_state(w);
  qos_.save_state(w);
  log_.save_state(w);
  bus_profile_.save_state(w);
  w.put_u64(master_profiles_.size());
  for (const stats::MasterProfile& p : master_profiles_) {
    p.save_state(w);
  }
  for (const auto& m : rtl_masters_) {
    m->save_state(w);
  }
  wbuf_->save_state(w);
  arbiter_->save_state(w);
  ddrc_->save_state(w);
  w.put_bool(checker_ != nullptr);
  if (checker_) {
    checker_->save_state(w);
  }
  kernel_.save_signals(w);
  w.end();
}

void RtlFabric::restore_state(state::StateReader& r) {
  r.enter("rtl-fabric");
  cycle_ = r.get_u64();
  last_completion_ = r.get_u64();
  completed_ = r.get_u64();
  obs_pending_data_ = r.get_u32();
  obs_beat_bytes_ = r.get_u32();
  clock_.restore_state(r);
  qos_.restore_state(r);
  log_.restore_state(r);
  bus_profile_.restore_state(r);
  if (r.get_u64() != master_profiles_.size()) {
    throw state::StateError("RtlFabric: snapshot master count mismatch");
  }
  for (stats::MasterProfile& p : master_profiles_) {
    p.restore_state(r);
  }
  for (auto& m : rtl_masters_) {
    m->restore_state(r);
  }
  wbuf_->restore_state(r);
  arbiter_->restore_state(r);
  ddrc_->restore_state(r);
  state::expect_presence_match(r.get_bool(), checker_ != nullptr,
                               "RtlFabric checkers");
  if (checker_) {
    checker_->restore_state(r);
  }
  kernel_.restore_signals(r);
  r.leave();
}

std::string RtlFabric::dump_state() const {
  std::string s = "cycle " + std::to_string(cycle_) + "\n";
  for (unsigned m = 0; m < masters_; ++m) {
    s += "  m" + std::to_string(m) + ": " +
         std::string(rtl_masters_[m]->state_name()) + " completed=" +
         std::to_string(rtl_masters_[m]->completed()) + "\n";
  }
  s += "  wbuf: occ=" + std::to_string(wbuf_->fifo().occupancy()) +
       (wbuf_->draining() ? " draining" : "") + "\n";
  s += "  ddrc: " + std::string(ddrc_->channels().busy() ? "busy" : "idle") +
       " pending-wr=" +
       std::to_string(ddrc_->channels().pending_write_chunks()) + "\n";
  s += "  " + arbiter_->debug_string() + "\n";
  s += "  hready=" + std::string(sh_.hready.read() ? "1" : "0") +
       " htrans=" + std::to_string(sh_.htrans.read()) +
       " hmaster=" + std::to_string(sh_.hmaster.read()) + "\n";
  return s;
}

}  // namespace ahbp::rtl
