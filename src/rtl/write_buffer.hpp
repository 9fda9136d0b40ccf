#pragma once

#include <optional>
#include <vector>

#include "ahb/address.hpp"
#include "ahb/config.hpp"
#include "ahb/transaction.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"
#include "tlm/write_buffer.hpp"

/// \file write_buffer.hpp
/// Pin-level AHB+ write buffer.
///
/// Wraps the shared tlm::WriteBuffer FIFO (identical capacity/ordering/
/// hazard semantics in both models) with the signal-level machinery the
/// paper's RTL design needs:
///
///  * absorption is a handshake — the arbiter reserves space and pulses
///    wbuf_take[m]; the master then streams its write data over its private
///    column at one beat per cycle into a per-master staging slot; the
///    filled transaction enters the FIFO.  (The TLM absorbs a whole
///    transaction in one cycle — a deliberate §3.3 abstraction; this data
///    streaming is part of the accuracy gap Table 1 measures.)
///  * draining is a real bus transfer: when granted as pseudo-master the
///    buffer drives address/data phases from its own wire column.

namespace ahbp::rtl {

class RtlWriteBuffer {
 public:
  RtlWriteBuffer(sim::EventKernel& kernel, const ahb::BusConfig& cfg,
                 unsigned masters, SharedWires& shared, MasterWires& column,
                 std::vector<MasterWires*> master_wires,
                 const sim::Cycle* now);

  RtlWriteBuffer(const RtlWriteBuffer&) = delete;
  RtlWriteBuffer& operator=(const RtlWriteBuffer&) = delete;

  void bind_clock(sim::Signal<bool>& clk);

  // ---- arbiter-facing interface (called within the same edge, after the
  //      arbiter's own process — ordering fixed by subscription order) ----

  /// Space check counting both FIFO entries and reserved staging slots.
  bool can_reserve() const noexcept;

  /// Reserve a slot for master m's transaction (data streams in later).
  void reserve(unsigned m, const ahb::Transaction& skeleton);

  /// Any buffered or staged write overlapping [lo, hi)?
  bool overlaps(ahb::Addr lo, ahb::Addr hi) const noexcept;

  /// Pseudo-master request: an *uncommitted* FIFO entry exists (entries
  /// already draining or promised to an outstanding grant do not count).
  /// Grants therefore pipeline: the next drain can be granted while the
  /// current one still streams, exactly like the TLM's drain pipelining.
  bool drain_requesting() const noexcept;

  /// FIFO entries already committed (draining now or owed to a grant).
  unsigned committed() const noexcept {
    return (drain_active_ ? 1U : 0U) + owed_;
  }

  /// The arbiter granted the buffer: a drain is owed.  Cleared when the
  /// drain transfer starts.
  void note_grant() noexcept { ++owed_; }

  bool urgent() const noexcept { return fifo_.urgent() || staging_full(); }
  void flag_hazard() noexcept { fifo_.flag_hazard(); }
  void clear_hazard_if_unneeded(bool still) noexcept {
    fifo_.clear_hazard_if_unneeded(still);
  }

  bool draining() const noexcept { return drain_active_; }

  const tlm::WriteBuffer& fifo() const noexcept { return fifo_; }
  tlm::WriteBuffer& fifo() noexcept { return fifo_; }

  std::uint64_t drained() const noexcept { return fifo_.profile().drained; }

  /// FIFO + per-master staging slots + drain-transfer registers.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  struct Staging {
    ahb::Transaction txn;
    unsigned filled = 0;
  };

  void at_edge();
  void capture_streams(sim::Cycle now);
  void drain_fsm(sim::Cycle now);
  bool staging_full() const noexcept;

  unsigned masters_;
  SharedWires& sh_;
  MasterWires& col_;  ///< the write buffer's own bus column
  std::vector<MasterWires*> mw_;
  const sim::Cycle* now_;
  tlm::WriteBuffer fifo_;
  std::vector<std::optional<Staging>> staging_;
  unsigned reserved_ = 0;
  sim::Process proc_;

  // Drain transfer state (mirrors a master's kTransfer).
  bool drain_active_ = false;
  unsigned owed_ = 0;  ///< grants received, drains not yet started
  ahb::Transaction drain_txn_;
  unsigned drain_addr_accepted_ = 0;
  unsigned drain_data_done_ = 0;
};

}  // namespace ahbp::rtl
