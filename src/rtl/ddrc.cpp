#include "rtl/ddrc.hpp"

#include "assertions/assert.hpp"

namespace ahbp::rtl {

RtlDdrc::RtlDdrc(sim::EventKernel& kernel,
                 const std::vector<ddr::ChannelConfig>& channels,
                 const ddr::Interleave& ilv, ahb::Addr region_base,
                 const ahb::BusConfig& cfg, SharedWires& shared,
                 const sim::Cycle* now)
    : set_(channels, ilv),
      base_(region_base),
      cfg_(cfg),
      sh_(shared),
      now_(now),
      proc_(kernel, "rtl-ddrc", [this] { at_edge(); }) {}

void RtlDdrc::bind_clock(sim::Clock& clk) {
  clk.subscribe(proc_);
}

void RtlDdrc::sample_inputs(sim::Cycle now) {
  // Latch the BI announce whenever the arbiter drives a fresh one.
  if (sh_.bi_next_valid.read()) {
    Announce a;
    a.addr = sh_.bi_next_addr.read();
    a.burst = unpack_burst(sh_.bi_next_burst.read());
    a.size = unpack_size(sh_.bi_next_size.read());
    a.beats = sh_.bi_next_beats.read();
    a.is_write = sh_.bi_next_write.read();
    announce_ = a;
  }

  const bool hready_prev = sh_.hready.read();
  const auto tr = unpack_trans(sh_.htrans.read());

  // 1. Write data phase completing during the previous cycle: sample the
  //    write bus into the channel set.
  if (cur_active_ && cur_is_write_ && hready_prev &&
      puts_done_ < addr_accepted_) {
    set_.put_write_beat(now, sh_.hwdata.read());
    ++puts_done_;
  }

  // 2. Address-phase acceptance.
  bool begin_now = false;
  if (hready_prev && (tr == ahb::Trans::kNonSeq || tr == ahb::Trans::kSeq)) {
    if (tr == ahb::Trans::kNonSeq) {
      begin_now = true;
    } else if (cur_active_) {
      ++addr_accepted_;
    }
  }

  // 3. Completion of the current transaction.
  if (set_.busy() && set_.done()) {
    set_.finish();
    cur_active_ = false;
  }

  // 4. Begin the newly accepted transaction.
  if (begin_now) {
    AHBP_ASSERT_MSG(!set_.busy(),
                    "NONSEQ accepted while a transaction is in flight");
    AHBP_ASSERT_MSG(announce_.has_value(),
                    "NONSEQ accepted without a BI announce");
    const Announce& a = *announce_;
    AHBP_ASSERT_MSG(a.addr == sh_.haddr.read(),
                    "BI announce does not match the presented address");
    ddr::MemRequest req;
    req.is_write = a.is_write;
    req.addr = a.addr - base_;
    req.beat_bytes = ahb::size_bytes(a.size);
    req.beats = a.beats;
    req.burst = a.burst;
    set_.begin(req, now);
    cur_active_ = true;
    cur_is_write_ = a.is_write;
    cur_beats_ = a.beats;
    addr_accepted_ = 1;
    puts_done_ = 0;
    announce_.reset();
  }

  // 5. Bank-prep hint from the (unconsumed) announce, routed to the
  //    owning channel.
  if (cfg_.bi_hints_enabled && announce_) {
    set_.set_hint(hint_.of(announce_->addr - base_, [this](ahb::Addr off) {
      return set_.coord_of(off);
    }));
  } else {
    set_.set_hint(std::nullopt);
  }
}

void RtlDdrc::drive_outputs(sim::Cycle now) {
  sh_.hresp.write(static_cast<std::uint8_t>(ahb::Resp::kOkay));
  if (set_.busy()) {
    if (!cur_is_write_) {
      if (set_.read_beat_available(now)) {
        sh_.hrdata.write(set_.take_read_beat(now));
        sh_.hready.write(true);
      } else {
        sh_.hready.write(false);
      }
    } else {
      // Write data phase active this cycle?
      const bool data_active = puts_done_ < addr_accepted_;
      sh_.hready.write(data_active && set_.write_beat_ready(now));
    }
  } else {
    sh_.hready.write(true);  // idle slave: zero-wait-state acceptance
  }
}

void RtlDdrc::drive_bi(sim::Cycle now) {
  // Per-channel slices: channel ch's banks occupy wire indices
  // [bank_base(ch), bank_base(ch+1)).
  for (std::uint32_t ch = 0; ch < set_.channels(); ++ch) {
    const ddr::BankEngine& banks = set_.engine(ch).banks();
    const std::uint32_t base = set_.bank_base(ch);
    for (std::uint32_t b = 0; b < banks.banks(); ++b) {
      sh_.bi_bank_state[base + b]->write(
          static_cast<std::uint8_t>(banks.bank_state(b, now)));
      sh_.bi_open_row[base + b]->write(banks.open_row(b));
    }
  }
  sh_.bi_idle_mask.write(set_.idle_bank_mask(now));
  sh_.bi_permit.write(set_.access_permitted(now));
  sh_.bi_remaining.write(set_.remaining_beats());
}

void RtlDdrc::at_edge() {
  const sim::Cycle now = *now_;
  sample_inputs(now);
  set_.step(now);
  drive_outputs(now);
  drive_bi(now);
}

void RtlDdrc::save_state(state::StateWriter& w) const {
  w.begin("rtl-ddrc");
  set_.save_state(w);
  w.put_bool(announce_.has_value());
  if (announce_) {
    w.put_u64(announce_->addr);
    w.put_u8(static_cast<std::uint8_t>(announce_->burst));
    w.put_u8(static_cast<std::uint8_t>(announce_->size));
    w.put_u32(announce_->beats);
    w.put_bool(announce_->is_write);
  }
  w.put_bool(cur_active_);
  w.put_bool(cur_is_write_);
  w.put_u32(cur_beats_);
  w.put_u32(addr_accepted_);
  w.put_u32(puts_done_);
  w.end();
}

void RtlDdrc::restore_state(state::StateReader& r) {
  r.enter("rtl-ddrc");
  set_.restore_state(r);
  if (r.get_bool()) {
    announce_.emplace();
    announce_->addr = r.get_u64();
    announce_->burst = static_cast<ahb::Burst>(r.get_u8());
    announce_->size = static_cast<ahb::Size>(r.get_u8());
    announce_->beats = r.get_u32();
    announce_->is_write = r.get_bool();
  } else {
    announce_.reset();
  }
  cur_active_ = r.get_bool();
  cur_is_write_ = r.get_bool();
  cur_beats_ = r.get_u32();
  addr_accepted_ = r.get_u32();
  puts_done_ = r.get_u32();
  r.leave();
}

}  // namespace ahbp::rtl
