#pragma once

#include <optional>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/types.hpp"
#include "ddr/channels.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"

/// \file ddrc.hpp
/// Pin-level DDR controller front end.
///
/// The AHB slave interface (HREADY/HRDATA/HWDATA sampling, pipelined
/// address acceptance) and the BI signal bundle are modeled wire-by-wire;
/// behind it sit the per-channel controllers — the shared ddr::ChannelSet
/// of DdrcEngine FSMs, the same "FSM as accurate as RTL" (§3.3) the TLM
/// uses, so both models enforce identical DRAM timing at every channel
/// count.  Each channel drives its own slice of the BI bank-state wires
/// (channel-major: channel k's banks start at wire index
/// ChannelSet::bank_base(k)); the arbiter merges the slices when it
/// evaluates candidate affinity through the address interleave.

namespace ahbp::rtl {

class RtlDdrc {
 public:
  RtlDdrc(sim::EventKernel& kernel,
          const std::vector<ddr::ChannelConfig>& channels,
          const ddr::Interleave& ilv, ahb::Addr region_base,
          const ahb::BusConfig& cfg, SharedWires& shared,
          const sim::Cycle* now);

  RtlDdrc(const RtlDdrc&) = delete;
  RtlDdrc& operator=(const RtlDdrc&) = delete;

  void bind_clock(sim::Clock& clk);

  const ddr::ChannelSet& channels() const noexcept { return set_; }
  ddr::ChannelSet& channels() noexcept { return set_; }

  /// Nothing in flight and no background writes pending on any channel.
  bool quiescent() const noexcept {
    return !set_.busy() && set_.pending_write_chunks() == 0;
  }

  /// Channel engines + the AHB-front announce/transfer registers.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  void at_edge();
  void sample_inputs(sim::Cycle now);
  void drive_outputs(sim::Cycle now);
  void drive_bi(sim::Cycle now);

  ddr::ChannelSet set_;
  ahb::Addr base_;
  const ahb::BusConfig& cfg_;
  SharedWires& sh_;
  const sim::Cycle* now_;
  sim::Process proc_;

  /// BI announce latched from the arbiter (consumed at NONSEQ acceptance).
  struct Announce {
    ahb::Addr addr = 0;
    ahb::Burst burst = ahb::Burst::kSingle;
    ahb::Size size = ahb::Size::kWord;
    unsigned beats = 1;
    bool is_write = false;
  };
  std::optional<Announce> announce_;
  ddr::CoordMemo hint_;  ///< the announce's decoded bank-prep target

  // Current bus-side transfer bookkeeping (write data-phase gating).
  bool cur_active_ = false;
  bool cur_is_write_ = false;
  unsigned cur_beats_ = 0;
  unsigned addr_accepted_ = 0;
  unsigned puts_done_ = 0;
};

}  // namespace ahbp::rtl
