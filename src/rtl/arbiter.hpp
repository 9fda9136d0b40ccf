#pragma once

#include <optional>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "assertions/bus_checker.hpp"
#include "ddr/channels.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"
#include "tlm/arbiter.hpp"
#include "tlm/write_buffer.hpp"

/// \file arbiter.hpp
/// Pin-level AHB+ arbiter.
///
/// Runs the same FilterPipeline as the TLM (shared decision semantics) but
/// lives entirely in the signal world: requests, sidebands, BI status and
/// HREADY are sampled from wires at each rising clock edge; grants, HMASTER
/// and the write-buffer take pulses are driven as registered outputs.
///
/// The arbiter also owns the "at the right time" decision of §3.3: writes
/// that lose arbitration are assigned to the write buffer via wbuf_take
/// pulses (one per master), reserving buffer space synchronously so the
/// take/grant race cannot double-serve a request.

namespace ahbp::rtl {

class RtlWriteBuffer;  // forward (reservation interface)

class RtlArbiter {
 public:
  /// `channels` + `ilv` describe the sharded DDR subsystem: candidate
  /// affinity is evaluated from the per-channel BI bank-state wire slices
  /// through the same interleave decode the controllers use.
  RtlArbiter(sim::EventKernel& kernel, const ahb::BusConfig& cfg,
             ahb::QosRegisterFile& qos, SharedWires& shared,
             std::vector<MasterWires*> masters, RtlWriteBuffer& wbuf,
             std::vector<ddr::ChannelConfig> channels,
             const ddr::Interleave& ilv, ahb::Addr ddr_base,
             const sim::Cycle* now, chk::ViolationLog* qos_log);

  RtlArbiter(const RtlArbiter&) = delete;
  RtlArbiter& operator=(const RtlArbiter&) = delete;

  void bind_clock(sim::Signal<bool>& clk);

  std::uint64_t grants() const noexcept { return arbiter_.grants(); }

  /// Grants flagged as handovers by the shared arbiter.
  std::uint64_t handovers() const noexcept { return handovers_; }

  /// One-line diagnostic state summary.
  std::string debug_string() const;

  /// Pending-grant/owner/handshake registers plus the shared bookkeeping
  /// arbiter and QoS-checker counters.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  void at_edge();
  void track_requests(sim::Cycle now);
  void track_transfer_progress();
  void do_handover(sim::Cycle now);
  void do_arbitration(sim::Cycle now);
  void do_takes(sim::Cycle now);
  ahb::Transaction txn_from_sideband(unsigned m) const;
  /// Affinity of candidate `col`'s target bank (col == masters_: the
  /// write buffer), read from the BI wires of the channel the interleave
  /// routes `bus_addr` to.
  ddr::BankAffinity wire_affinity(unsigned col, ahb::Addr bus_addr);

  const ahb::BusConfig& cfg_;
  ahb::QosRegisterFile& qos_;
  SharedWires& sh_;
  std::vector<MasterWires*> mw_;
  RtlWriteBuffer& wbuf_;
  std::vector<ddr::ChannelConfig> channels_;
  ddr::Interleave ilv_;
  std::vector<std::uint32_t> bank_base_;  ///< BI wire offset per channel
  ahb::Addr ddr_base_;
  const sim::Cycle* now_;
  tlm::Arbiter arbiter_;  ///< shared bookkeeping + FilterPipeline
  /// Arbitration context reused every round, so a round never touches
  /// the heap.
  tlm::ArbContext ctx_;
  /// Per candidate column: its target address, decoded once per address.
  std::vector<ddr::CoordMemo> target_;
  std::optional<chk::QosChecker> qos_checker_;
  sim::Process proc_;

  unsigned masters_;
  // Per-master flags, bit m for master m.
  std::uint32_t prev_req_ = 0;
  std::uint32_t take_pulse_ = 0;     ///< takes driven last edge (to deassert)
  std::uint32_t absorbed_wait_ = 0;  ///< taken; waiting for HBUSREQ to drop

  // Pending (granted but not yet switched-in) transaction.
  bool pending_ = false;
  ahb::MasterId pending_master_ = ahb::kNoMaster;
  ahb::Transaction pending_txn_;
  /// HGRANT is a one-cycle pulse: a parked grant must not let a master
  /// start a second transaction without arbitration.
  bool grant_pulse_ = false;
  ahb::MasterId grant_pulse_master_ = ahb::kNoMaster;

  // Current address-bus owner bookkeeping.
  bool owner_active_ = false;
  ahb::MasterId owner_ = ahb::kNoMaster;
  unsigned owner_beats_ = 0;
  unsigned owner_addr_accepted_ = 0;
  bool owner_locked_ = false;

  std::uint64_t handovers_ = 0;
};

}  // namespace ahbp::rtl
