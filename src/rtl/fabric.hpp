#pragma once

#include <memory>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "assertions/bus_checker.hpp"
#include "assertions/violation.hpp"
#include "core/platform.hpp"
#include "ddr/channels.hpp"
#include "rtl/arbiter.hpp"
#include "rtl/bitlevel.hpp"
#include "rtl/ddrc.hpp"
#include "rtl/detail.hpp"
#include "rtl/master.hpp"
#include "rtl/signals.hpp"
#include "rtl/write_buffer.hpp"
#include "sim/event_kernel.hpp"
#include "sim/vcd.hpp"
#include "stats/profiles.hpp"
#include "traffic/generator.hpp"

/// \file fabric.hpp
/// Top-level wiring of the pin-accurate AHB+ platform: clock, cycle
/// counter, per-master wire columns, address/control/write-data muxes,
/// masters, arbiter, write buffer, DDRC, protocol observer.
///
/// Process execution order within a clock edge is the subscription order
/// (a documented EventKernel guarantee): cycle counter, masters, arbiter,
/// write buffer, DDRC, observer.  All cross-component communication is
/// through two-phase signals except the arbiter->write-buffer reservation
/// call, whose ordering the subscription order pins down — mirroring the
/// TLM's arbitration-then-absorption sequence.

namespace ahbp::obs {
class SelfProfiler;
class Timeline;
}

namespace ahbp::rtl {

class RtlFabric : public state::Snapshottable {
 public:
  /// Assemble the platform `cfg` describes — bus, DDR part, interleave and
  /// per-channel overrides, DDR base, checkers and each master's QoS
  /// registers — driven by one script per master (`core::expand_stimulus`).
  /// Always instantiates the register-transfer detail and bit-level layers
  /// (detail.hpp, bitlevel.hpp): the reference model is meant to pay RTL
  /// cost.
  RtlFabric(const core::PlatformConfig& cfg,
            std::vector<traffic::Script> scripts);

  RtlFabric(const RtlFabric&) = delete;
  RtlFabric& operator=(const RtlFabric&) = delete;

  /// Run until every master finished and the fabric drained, or until
  /// `max_cycles`.  Returns the number of bus cycles executed.
  sim::Cycle run(sim::Cycle max_cycles);

  bool finished() const;

  /// Total bus cycles simulated so far (continues across restore).
  sim::Cycle cycle() const noexcept { return cycle_; }

  /// Bus cycle at which the last master transaction completed.
  sim::Cycle last_completion() const noexcept { return last_completion_; }

  std::uint64_t completed_txns() const noexcept { return completed_; }

  stats::RunProfile profile() const;

  const chk::ViolationLog& violations() const noexcept { return log_; }
  const sim::EventKernel& kernel() const noexcept { return kernel_; }
  const RtlDdrc& ddrc() const noexcept { return *ddrc_; }
  RtlDdrc& ddrc() noexcept { return *ddrc_; }
  const ahb::QosRegisterFile& qos() const noexcept { return qos_; }

  /// Per-transaction observer for every master (set before run()).
  void set_on_complete(core::CompletionHook fn);

  /// Attach a capture tap to master `m`'s port (set before run()).
  void set_trace_recorder(unsigned m, traffic::TraceRecorder* rec);

  /// Multi-line diagnostic snapshot (master states, buffer, arbiter, DDRC)
  /// for stall debugging.
  std::string dump_state() const;

  /// Dump the architectural bus signals to a VCD stream (viewable in
  /// GTKWave).  Call before run(); samples once per clock edge.
  void enable_vcd(std::ostream& os);

  /// Attach a timeline under process `pid`: per-master tracks, bus and
  /// write-buffer tracks, and the shared DDR channel/bank tracks.
  /// Observation only — never changes simulated behaviour.
  void enable_timeline(obs::Timeline& tl, unsigned pid);

  /// Attach a self-profiler: the event kernel times each process's run()
  /// (null detaches; the disabled path is one pointer test per activation).
  void set_profiler(obs::SelfProfiler* p);

  // ------------------------------------------------------------ snapshot
  // Whole-model checkpoint: counters, every component's FSM registers and
  // every wire's committed value.  Valid between run() calls (the kernel is
  // settled with hclk low, one tick before the next rising edge, which is
  // exactly the alignment a freshly constructed fabric starts from — so a
  // restored fabric resumes cycle-exactly).
  void save_state(state::StateWriter& w) const override;
  void restore_state(state::StateReader& r) override;

 private:
  void make_muxes();
  void observe_edge();

  /// Owned copy: the write buffer, arbiter and DDRC keep references.
  ahb::BusConfig bus_;
  unsigned masters_;
  sim::EventKernel kernel_;
  sim::Clock clock_;
  sim::Cycle cycle_ = 0;
  sim::Process tick_;

  ahb::QosRegisterFile qos_;
  /// Resolved per-channel DDR configs (one per interleaved channel);
  /// declared before sh_ so the BI bank wires can be sized from it.
  std::vector<ddr::ChannelConfig> ch_cfg_;
  std::vector<std::unique_ptr<MasterWires>> columns_;  ///< masters + wbuf
  SharedWires sh_;

  std::vector<stats::MasterProfile> master_profiles_;
  std::vector<std::unique_ptr<RtlMaster>> rtl_masters_;
  std::unique_ptr<RtlWriteBuffer> wbuf_;
  std::unique_ptr<RtlArbiter> arbiter_;
  std::unique_ptr<RtlDdrc> ddrc_;
  std::unique_ptr<DetailLayer> detail_;
  std::unique_ptr<BitLevelLayer> bitlevel_;

  std::unique_ptr<sim::Process> mux_proc_;
  std::unique_ptr<sim::Process> data_mux_proc_;
  sim::Process observer_;

  chk::ViolationLog log_;
  std::unique_ptr<chk::BusChecker> checker_;
  std::unique_ptr<sim::VcdWriter> vcd_;
  stats::BusProfile bus_profile_;

  // Observer's burst follower (for moved-bytes accounting).
  unsigned obs_pending_data_ = 0;
  unsigned obs_beat_bytes_ = 0;

  /// Timeline wiring (null when recording is off; never snapshotted).
  obs::Timeline* tl_ = nullptr;
  unsigned tl_bus_track_ = 0;
  unsigned tl_wbuf_track_ = 0;
  unsigned tl_last_occ_ = ~0U;     ///< last emitted wbuf occupancy sample
  std::uint8_t tl_last_owner_ = 0xFF;
  bool tl_busy_open_ = false;      ///< a bus-activity span is open

  sim::Cycle last_completion_ = 0;
  std::uint64_t completed_ = 0;
  core::CompletionHook on_complete_;
};

}  // namespace ahbp::rtl
