#pragma once

#include <memory>
#include <vector>

#include "ddr/channels.hpp"
#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"

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

  void bind_clock(sim::Signal<bool>& clk);

 private:
  void make_column_detail(sim::EventKernel& k, unsigned i);
  void make_datapath_detail(sim::EventKernel& k);
  void make_arbiter_detail(sim::EventKernel& k);
  void make_ddrc_detail(sim::EventKernel& k);
  void at_edge();

  SharedWires& sh_;
  std::vector<MasterWires*> cols_;
  const ddr::ChannelSet& set_;
  const sim::Cycle* now_;

  // --- per-column pipeline registers and address incrementers ---
  struct ColumnDetail {
    std::unique_ptr<sim::Signal<std::uint64_t>> haddr_r;   ///< addr stage reg
    std::unique_ptr<sim::Signal<std::uint64_t>> hwdata_r;  ///< data stage reg
    std::unique_ptr<sim::Signal<std::uint8_t>> htrans_r;
    std::unique_ptr<sim::Signal<std::uint64_t>> haddr_next; ///< incrementer
    std::unique_ptr<sim::Signal<std::uint8_t>> size_bytes_w;///< size decode
    std::unique_ptr<sim::Signal<bool>> active_w;            ///< htrans != IDLE
    std::unique_ptr<sim::Process> incr_proc;                 ///< comb cone
  };
  std::vector<ColumnDetail> col_detail_;

  // --- shared datapath: byte lanes + read-data register ---
  std::vector<std::unique_ptr<sim::Signal<std::uint8_t>>> wlane_;
  std::vector<std::unique_ptr<sim::Signal<std::uint8_t>>> rlane_;
  std::unique_ptr<sim::Signal<std::uint64_t>> hrdata_r_;
  std::unique_ptr<sim::Process> wlane_proc_;
  std::unique_ptr<sim::Process> rlane_proc_;

  // --- arbiter combinational structure ---
  std::unique_ptr<sim::Signal<std::uint32_t>> req_mask_w_;
  std::unique_ptr<sim::Signal<std::uint8_t>> req_count_w_;
  std::unique_ptr<sim::Signal<std::uint8_t>> first_req_w_;
  std::vector<std::unique_ptr<sim::Signal<bool>>> stage_pass_;  ///< per master
  std::unique_ptr<sim::Process> arb_proc_;

  // --- DDRC register-transfer state ---
  struct BankDetail {
    std::unique_ptr<sim::Signal<std::uint8_t>> state_onehot;
    std::unique_ptr<sim::Signal<std::uint32_t>> row_r;
    std::unique_ptr<sim::Signal<std::uint32_t>> ready_timer;  ///< to column-ready
    /// The individual interval counters an RTL controller decrements every
    /// cycle a constraint is outstanding: tRCD, tRAS, tRP, tRC, tWR.
    std::vector<std::unique_ptr<sim::Signal<std::uint32_t>>> timers;
  };
  std::vector<BankDetail> banks_;
  /// (channel, channel-local bank) of each banks_ entry.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> bank_of_;
  std::unique_ptr<sim::Signal<std::uint32_t>> wq_level_;   ///< write queue level
  std::unique_ptr<sim::Signal<std::uint32_t>> xfer_beat_;  ///< current beat ctr
  /// Per-channel tREFI countdowns (channels may override tREFI).
  std::vector<std::unique_ptr<sim::Signal<std::uint32_t>>> refresh_ctr_;

  // --- write-buffer RAM and DDRC data FIFOs (real storage cells) ---
  std::vector<std::unique_ptr<sim::Signal<std::uint64_t>>> wbuf_ram_;
  std::vector<std::unique_ptr<sim::Signal<std::uint64_t>>> rd_fifo_;
  std::vector<std::unique_ptr<sim::Signal<std::uint64_t>>> wr_fifo_;
  std::unique_ptr<sim::Signal<std::uint8_t>> rd_ptr_;
  std::unique_ptr<sim::Signal<std::uint8_t>> wr_ptr_;

  // --- per-master QoS state registers (slack / budget counters) ---
  std::vector<std::unique_ptr<sim::Signal<std::uint32_t>>> slack_ctr_;
  std::vector<std::unique_ptr<sim::Signal<std::uint32_t>>> wait_ctr_;

  std::unique_ptr<sim::Process> edge_proc_;
};

}  // namespace ahbp::rtl
