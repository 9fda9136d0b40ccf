#include "rtl/master.hpp"

#include "assertions/assert.hpp"

namespace ahbp::rtl {

RtlMaster::RtlMaster(sim::EventKernel& kernel, ahb::MasterId id,
                     MasterWires& wires, SharedWires& shared,
                     traffic::Script script, const sim::Cycle* now,
                     stats::MasterProfile& profile)
    : kernel_(kernel),
      id_(id),
      w_(wires),
      sh_(shared),
      source_(std::move(script)),
      now_(now),
      profile_(profile),
      proc_(kernel, "rtl-master" + std::to_string(id), [this] { at_edge(); }) {}

void RtlMaster::bind_clock(sim::Clock& clk) {
  clk.subscribe(proc_);
}

std::string_view RtlMaster::state_name() const noexcept {
  switch (state_) {
    case State::kIdle: return "idle";
    case State::kRequest: return "request";
    case State::kTransfer: return "transfer";
    case State::kBufStream: return "bufstream";
  }
  return "?";
}

void RtlMaster::drive_address_phase() {
  // Present the address phase for beat `addr_accepted_` (held until
  // accepted), or drive IDLE once every address phase is out.
  if (addr_accepted_ < txn_.beats) {
    const unsigned beat = addr_accepted_;
    w_.htrans.write(pack(beat == 0 ? ahb::Trans::kNonSeq : ahb::Trans::kSeq));
    w_.haddr.write(
        ahb::burst_beat_addr(txn_.addr, txn_.size, txn_.burst, beat));
    w_.hburst.write(pack(txn_.burst));
    w_.hsize.write(pack(txn_.size));
    w_.hwrite.write(pack(txn_.dir));
  } else {
    w_.htrans.write(pack(ahb::Trans::kIdle));
  }
  // Drive the write data for the beat whose data phase is active.
  if (txn_.dir == ahb::Dir::kWrite && data_done_ < addr_accepted_) {
    w_.hwdata.write(txn_.data[data_done_]);
  }
}

void RtlMaster::complete(bool buffered) {
  txn_.finished_at = *now_;
  profile_.record(txn_, buffered);
  source_.on_complete(*now_);
  ++completed_;
  if (on_complete) {
    on_complete(txn_);
  }
  if (txn_.locked) {
    w_.hlock.write(false);
  }
  state_ = State::kIdle;
}

void RtlMaster::at_edge() {
  const sim::Cycle now = *now_;
  switch (state_) {
    case State::kIdle: {
      if (!source_.ready(now)) {
        break;
      }
      txn_ = source_.pop(now);
      txn_.issued_at = now;
      if (txn_.dir == ahb::Dir::kRead) {
        txn_.data.assign(txn_.beats, 0);
      }
      w_.hbusreq.write(true);
      w_.hlock.write(txn_.locked);
      w_.req_addr.write(txn_.addr);
      w_.req_dir.write(pack(txn_.dir));
      w_.req_burst.write(pack(txn_.burst));
      w_.req_size.write(pack(txn_.size));
      w_.req_beats.write(txn_.beats);
      state_ = State::kRequest;
      break;
    }

    case State::kRequest: {
      if (id_ < sh_.wbuf_take.size() && sh_.wbuf_take[id_]->read()) {
        // The write buffer took the transaction (§3.3): stream the data
        // beats over the private column, one per cycle.
        AHBP_ASSERT(txn_.dir == ahb::Dir::kWrite);
        w_.hbusreq.write(false);
        txn_.granted_at = now;
        txn_.started_at = now;
        stream_beat_ = 0;
        w_.wbuf_stream.write(true);
        w_.hwdata.write(txn_.data[0]);
        state_ = State::kBufStream;
        break;
      }
      if (sh_.hgrant[id_]->read() &&
          sh_.hmaster.read() == static_cast<std::uint8_t>(id_)) {
        // Bus granted and the muxes route our column: start the transfer.
        w_.hbusreq.write(false);
        txn_.granted_at = now;
        txn_.started_at = now;
        addr_accepted_ = 0;
        data_done_ = 0;
        drive_address_phase();
        state_ = State::kTransfer;
      }
      break;
    }

    case State::kTransfer: {
      const bool hr = sh_.hready.read();
      if (hr) {
        // One data phase completes and/or one address phase is accepted at
        // every HREADY-high edge (AHB pipeline).
        if (data_done_ < addr_accepted_) {
          if (txn_.dir == ahb::Dir::kRead) {
            txn_.data[data_done_] = sh_.hrdata.read();
          }
          ++data_done_;
        }
        if (addr_accepted_ < txn_.beats) {
          ++addr_accepted_;
        }
      }
      if (data_done_ == txn_.beats) {
        w_.htrans.write(pack(ahb::Trans::kIdle));
        complete(/*buffered=*/false);
        break;
      }
      drive_address_phase();
      break;
    }

    case State::kBufStream: {
      // The buffer sampled beat `stream_beat_` at this edge.
      ++stream_beat_;
      if (stream_beat_ >= txn_.beats) {
        w_.wbuf_stream.write(false);
        complete(/*buffered=*/true);
        break;
      }
      w_.hwdata.write(txn_.data[stream_beat_]);
      break;
    }
  }
}

void RtlMaster::save_state(state::StateWriter& w) const {
  w.begin("rtl-master");
  w.put_u8(static_cast<std::uint8_t>(state_));
  ahb::save_state(w, txn_);
  w.put_u32(addr_accepted_);
  w.put_u32(data_done_);
  w.put_u32(stream_beat_);
  w.put_u64(completed_);
  source_.save_state(w);
  w.end();
}

void RtlMaster::restore_state(state::StateReader& r) {
  r.enter("rtl-master");
  state_ = static_cast<State>(r.get_u8());
  ahb::restore_state(r, txn_);
  addr_accepted_ = r.get_u32();
  data_done_ = r.get_u32();
  stream_beat_ = r.get_u32();
  completed_ = r.get_u64();
  source_.restore_state(r);
  r.leave();
}

}  // namespace ahbp::rtl
