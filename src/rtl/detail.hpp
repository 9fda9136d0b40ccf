#pragma once

#include <array>
#include <string>
#include <vector>

#include "ddr/channels.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"
#include "sim/fixed_array.hpp"

/// \file detail.hpp
/// Register-transfer detail layer of the signal-level reference model.
///
/// The architectural wires in signals.hpp are only the *interface* of the
/// design.  A real RTL netlist also evaluates every internal register and
/// combinational cone: the arbiter's per-stage filter wires, the DDRC's
/// per-bank state machines and timing counters, the datapath staging
/// registers, byte-lane steering and the write-buffer RAM cells.  The
/// paper's speed comparison (§4: 0.47 Kcycles/s RTL vs 166 Kcycles/s TLM)
/// is against that full population, so the reference model instantiates it
/// too: every signal below is a genuine wire of a plausible AHB+
/// implementation carrying its true value, re-evaluated with the same
/// delta-cycle machinery an RTL simulator uses.
///
/// The layer is purely structural — it observes and re-derives values and
/// drives no architectural wire.  RtlFabric always instantiates it; its
/// cost is the `rtl.rt-detail` phase of the self-profile.

namespace ahbp::rtl {

class DetailLayer {
 public:
  /// \param columns   master wire columns including the write buffer's.
  /// \param channels  the sharded DDRC (bank states / timers of *every*
  ///                  channel are re-derived each cycle, as the per-channel
  ///                  RTL FSM registers would — more channels, more wires).
  DetailLayer(sim::EventKernel& kernel, SharedWires& shared,
              std::vector<MasterWires*> columns,
              const ddr::ChannelSet& channels, const sim::Cycle* now);

  DetailLayer(const DetailLayer&) = delete;
  DetailLayer& operator=(const DetailLayer&) = delete;

  void bind_clock(sim::Clock& clk);

 private:
  void at_edge();

  SharedWires& sh_;
  std::vector<MasterWires*> cols_;
  const ddr::ChannelSet& set_;
  const sim::Cycle* now_;

  // Every register lives in place in the layer or in a FixedArray, built in
  // the order below, which is the order its wires register with the kernel.

  // --- per-column pipeline registers and address incrementers ---
  struct ColumnDetail {
    ColumnDetail(sim::EventKernel& k, unsigned i, MasterWires& col);
    sim::Signal<std::uint64_t> haddr_r;   ///< addr stage reg
    sim::Signal<std::uint64_t> hwdata_r;  ///< data stage reg
    sim::Signal<std::uint8_t> htrans_r;
    sim::Signal<std::uint64_t> haddr_next;  ///< incrementer
    sim::Signal<std::uint8_t> size_bytes_w; ///< size decode
    sim::Signal<bool> active_w;             ///< htrans != IDLE
    sim::Process incr_proc;                 ///< comb cone
  };
  sim::FixedArray<ColumnDetail> col_detail_;

  // --- shared datapath: byte lanes + read-data register ---
  struct ByteLane {
    sim::Signal<std::uint8_t> w;
    sim::Signal<std::uint8_t> r;
  };
  sim::FixedArray<ByteLane> lanes_;
  sim::Signal<std::uint64_t> hrdata_r_;
  sim::Process wlane_proc_;
  sim::Process rlane_proc_;

  // --- arbiter combinational structure ---
  sim::Signal<std::uint32_t> req_mask_w_;
  sim::Signal<std::uint8_t> req_count_w_;
  sim::Signal<std::uint8_t> first_req_w_;
  sim::FixedArray<sim::Signal<bool>> stage_pass_;  ///< per master
  sim::Process arb_proc_;

  // --- DDRC register-transfer state ---
  struct BankDetail {
    BankDetail(sim::EventKernel& k, const std::string& pre,
               const ddr::Bank& bank);
    /// The FSM these registers shadow (an engine's banks never move).
    const ddr::Bank& fsm;
    sim::Signal<std::uint8_t> state_onehot;
    sim::Signal<std::uint32_t> row_r;
    sim::Signal<std::uint32_t> ready_timer;  ///< to column-ready
    /// The individual interval counters an RTL controller decrements every
    /// cycle a constraint is outstanding: tRCD, tRAS, tRP, tRC, tWR.
    std::array<sim::Signal<std::uint32_t>, 5> timers;
  };
  /// One block per bank of every channel, channel-major.
  static sim::FixedArray<BankDetail> make_banks(sim::EventKernel& k,
                                                const ddr::ChannelSet& set);
  sim::FixedArray<BankDetail> banks_;
  sim::Signal<std::uint32_t> wq_level_;   ///< write queue level
  sim::Signal<std::uint32_t> xfer_beat_;  ///< current beat ctr
  /// Per-channel tREFI countdowns (channels may override tREFI).
  sim::FixedArray<sim::Signal<std::uint32_t>> refresh_ctr_;

  // --- DDRC data FIFOs and write-buffer RAM (real storage cells) ---
  struct FifoCell {
    sim::Signal<std::uint64_t> rd;
    sim::Signal<std::uint64_t> wr;
  };
  sim::FixedArray<FifoCell> fifo_;
  sim::Signal<std::uint8_t> rd_ptr_;
  sim::Signal<std::uint8_t> wr_ptr_;
  sim::FixedArray<sim::Signal<std::uint64_t>> wbuf_ram_;

  // --- per-master QoS state registers (slack / budget counters) ---
  struct QosRegs {
    sim::Signal<std::uint32_t> slack;
    sim::Signal<std::uint32_t> wait;
  };
  sim::FixedArray<QosRegs> qos_;

  sim::Process edge_proc_;
};

}  // namespace ahbp::rtl
