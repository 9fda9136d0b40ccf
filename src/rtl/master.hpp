#pragma once

#include <functional>
#include <string>

#include "ahb/address.hpp"
#include "ahb/transaction.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"
#include "stats/profiles.hpp"
#include "traffic/generator.hpp"

/// \file master.hpp
/// Pin-accurate AHB+ master driver.
///
/// A clocked FSM that performs the full signal-level protocol per
/// transaction: raise HBUSREQ with the AHB+ request sideband, wait for
/// HGRANT/HMASTER, drive the pipelined address and data phases beat by beat
/// honouring HREADY, or — when the write buffer takes the transaction —
/// stream the write data into the buffer over its private column.
///
/// It consumes the same traffic::ScriptSource as the TLM master, so both
/// models replay identical workloads.

namespace ahbp::rtl {

class RtlMaster {
 public:
  enum class State { kIdle, kRequest, kTransfer, kBufStream };

  RtlMaster(sim::EventKernel& kernel, ahb::MasterId id, MasterWires& wires,
            SharedWires& shared, traffic::Script script,
            const sim::Cycle* now, stats::MasterProfile& profile);

  RtlMaster(const RtlMaster&) = delete;
  RtlMaster& operator=(const RtlMaster&) = delete;

  /// Subscribe the FSM to the clock's rising edge.
  void bind_clock(sim::Clock& clk);

  bool finished() const noexcept {
    return source_.done() && state_ == State::kIdle;
  }
  std::uint64_t completed() const noexcept { return completed_; }

  /// Diagnostic state string ("idle"/"request"/"transfer"/"bufstream").
  std::string_view state_name() const noexcept;

  /// FSM state + pending transaction, read by the fabric's per-cycle stall
  /// attribution (valid whenever state() != State::kIdle).
  State state() const noexcept { return state_; }
  const ahb::Transaction& pending_txn() const noexcept { return txn_; }

  /// Test hook: observes every retired transaction.
  std::function<void(const ahb::Transaction&)> on_complete;

  /// Attach a capture tap to this port's script source (symmetric with
  /// the TLM master — the tap lives in ScriptSource, so issue/complete
  /// cycles are observed identically in both models).
  void set_trace_recorder(traffic::TraceRecorder* rec) noexcept {
    source_.set_recorder(rec);
  }

  /// FSM registers + script position (wires snapshot with the kernel).
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  void at_edge();
  void drive_address_phase();
  void complete(bool buffered);

  sim::EventKernel& kernel_;
  ahb::MasterId id_;
  MasterWires& w_;
  SharedWires& sh_;
  traffic::ScriptSource source_;
  const sim::Cycle* now_;
  stats::MasterProfile& profile_;
  sim::Process proc_;

  State state_ = State::kIdle;
  ahb::Transaction txn_;
  unsigned addr_accepted_ = 0;  ///< address phases accepted so far
  unsigned data_done_ = 0;      ///< data phases completed so far
  unsigned stream_beat_ = 0;    ///< write-buffer streaming progress
  std::uint64_t completed_ = 0;
};

}  // namespace ahbp::rtl
