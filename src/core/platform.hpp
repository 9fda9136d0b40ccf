#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "ahb/transaction.hpp"
#include "ddr/channels.hpp"
#include "ddr/geometry.hpp"
#include "ddr/interleave.hpp"
#include "ddr/timing.hpp"
#include "sim/time.hpp"
#include "stats/profiles.hpp"
#include "traffic/stimulus.hpp"

/// \file platform.hpp
/// Whole-platform assembly and run control — the public entry point of the
/// library.  One PlatformConfig describes a system (bus parameters, DDR
/// part, masters with their QoS registers and traffic); `run_tlm` executes
/// it on the transaction-level model, `run_rtl` on the pin-accurate
/// reference.  Both consume identical traffic scripts, which is what makes
/// the Table-1 accuracy comparison meaningful.

namespace ahbp::core {

/// One master: its QoS registers (§2) and its stimulus — a synthetic
/// traffic pattern or a recorded trace (traffic::StimulusSpec carries
/// both forms; the pattern fields stay accessible as `traffic.<field>`).
struct MasterSpec {
  ahb::QosConfig qos;
  traffic::StimulusSpec traffic;
};

/// Declarative checkpoint request (the scenario `[checkpoint]` section):
/// `ahbp_sim run` — and any other Platform driver that honours it — stops
/// at `at_cycle`, serializes the platform to `path`, then continues.
struct CheckpointSpec {
  sim::Cycle at_cycle = 0;  ///< 0 = no checkpoint
  std::string path;

  bool enabled() const noexcept { return at_cycle > 0 && !path.empty(); }
  bool operator==(const CheckpointSpec&) const = default;
};

/// Simulator tuning (the scenario `[sim]` section).  These knobs change how
/// fast the simulator runs, never what it computes: every setting is
/// required to produce bit-identical results to the defaults.
struct SimTuning {
  /// Temporal-decoupling quantum for the TLM model.  1 (default) = classic
  /// cycle-by-cycle stepping, bit-exact to the pre-quantum code path by
  /// construction.  >1 lets the platform leap provably-idle stretches of up
  /// to `quantum` cycles at a time, bulk-replaying the per-cycle
  /// bookkeeping (stats, checker views, QoS epochs) for the gap.
  sim::Cycle quantum = 1;

  bool operator==(const SimTuning&) const = default;
};

struct PlatformConfig {
  ahb::BusConfig bus;
  /// Shared DDR part description; with `interleave.channels > 1` every
  /// channel starts from this and `ddr_channels[k]` layers its overrides.
  ddr::DdrTiming timing = ddr::ddr266();
  ddr::Geometry geom;
  /// Memory-side sharding: channel count + stripe granularity.  The
  /// default (1 channel) reproduces the single-controller platform
  /// bit-exactly in both models.
  ddr::Interleave interleave;
  /// Per-channel `channelK.*` overrides (may be shorter than the channel
  /// count; missing tails inherit timing/geom unchanged).
  std::vector<ddr::ChannelOverride> ddr_channels;
  ahb::Addr ddr_base = 0;
  std::vector<MasterSpec> masters;
  bool enable_checkers = true;
  sim::Cycle max_cycles = 4'000'000;
  /// Optional mid-run snapshot (scenario `[checkpoint]` section).
  CheckpointSpec checkpoint;
  /// Simulator speed knobs (scenario `[sim]` section); results are
  /// independent of these by contract.
  SimTuning sim;
};

/// Resolved per-channel DDR configuration (shared base + overrides).
std::vector<ddr::ChannelConfig> ddr_channel_configs(const PlatformConfig& cfg);

/// Byte size of the DDR aperture masters may address (from `ddr_base`):
/// channels x the smallest per-channel capacity — the interleave stripes
/// uniformly, so the smallest device bounds every channel-local address.
/// The one aperture formula shared by scenario validation (synthetic
/// windows) and stimulus expansion (trace addresses).
std::uint64_t ddr_aperture_bytes(const PlatformConfig& cfg);

/// Outcome of one simulation run.
struct SimResult {
  std::string model;           ///< "tlm" or "rtl"
  bool finished = false;       ///< workload drained before max_cycles
  sim::Cycle cycles = 0;       ///< cycle of the last master completion
  sim::Cycle ran_cycles = 0;   ///< total bus cycles simulated
  std::uint64_t completed = 0; ///< master transactions retired
  stats::RunProfile profile;
  std::size_t protocol_errors = 0;
  std::size_t qos_warnings = 0;
  std::string first_violations;  ///< rendered head of the violation log
  double wall_seconds = 0.0;     ///< host time spent simulating
  std::uint64_t kernel_activity = 0;  ///< evaluations (TLM) / deltas (RTL)
};

/// Per-transaction completion observer, one shape for both models
/// (`Platform::set_on_complete`, `rtl::RtlFabric::set_on_complete`): the
/// retiring master and its finished transaction, read data filled in.
/// Observation only — it must not change simulated state.
using CompletionHook =
    std::function<void(ahb::MasterId, const ahb::Transaction&)>;

/// Load every trace-backed master's trace file into its
/// `StimulusSpec::trace_text` so the configuration is self-describing
/// (idempotent; synthetic masters untouched).  Platform construction does
/// this to its own copy — call it yourself when a config must survive the
/// trace files disappearing (checkpoints, sweep bases).
/// Throws std::runtime_error on unreadable trace files.
void resolve_stimulus(PlatformConfig& cfg);

/// Expand every master's stimulus into its deterministic script: synthetic
/// patterns through the generator (beat width forced to the configured bus
/// width), trace-backed masters by parsing their trace (resolving from
/// disk if needed) and validating every transaction against the bus width
/// and the DDR aperture.  Throws std::runtime_error on trace problems.
std::vector<traffic::Script> expand_stimulus(const PlatformConfig& cfg);

/// Run the transaction-level model.
SimResult run_tlm(const PlatformConfig& cfg);

/// Run the pin-accurate signal-level model.  When `vcd_out` is non-null the
/// architectural bus signals are dumped to it (GTKWave-viewable).
SimResult run_rtl(const PlatformConfig& cfg, std::ostream* vcd_out = nullptr);

/// Simulated kilo-cycles per wall-clock second (the paper's §4 metric).
double kcycles_per_sec(const SimResult& r);

/// Machine-readable dump of one SimResult: counters, profiles, per-master
/// stall attribution and violations-by-rule as a single JSON object (no
/// trailing newline — callers embed it in `{"runs": [...]}` wrappers).
void write_stats_json(std::ostream& os, const SimResult& r);

}  // namespace ahbp::core
