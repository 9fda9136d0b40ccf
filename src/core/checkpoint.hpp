#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "state/snapshot.hpp"

namespace ahbp::obs {
class SelfProfiler;
class Timeline;
}
namespace ahbp::sim {
struct KernelStats;
}

/// \file checkpoint.hpp
/// Run control with checkpoint/restore: the steppable `Platform` and the
/// self-describing checkpoint file helpers.
///
/// `run_tlm` / `run_rtl` are one-shot conveniences built on `Platform`;
/// everything that needs to *stop in the middle* — `ahbp_sim checkpoint`,
/// `resume`, warm-up-forked sweeps, the cycle-exactness tests — drives a
/// `Platform` directly:
///
/// ```
/// core::Platform warm(cfg, core::ModelKind::kTlm);
/// warm.run(100'000);                       // simulate the warm-up prefix
/// state::StateWriter w;
/// warm.save_state(w);                      // freeze DDR banks, buffers, ...
/// auto bytes = w.finish();
///
/// core::Platform fork(point_cfg, core::ModelKind::kTlm);
/// state::StateReader r(bytes.data(), bytes.size());
/// fork.restore_state(r);                   // resume from the warmed state
/// fork.run_to_completion();
/// ```
///
/// The restore contract: the target platform must match the snapshot
/// *structurally* (model kind, master count, channel count, per-channel
/// bank geometry, checker enablement) — violations throw
/// `state::StateError`.  Tunable knobs (timings, QoS values, urgency slack,
/// filter masks) may differ; they take effect from the restored cycle on.
/// Restore-then-run is bit-exact with an uninterrupted run when the target
/// configuration equals the snapshot's — the property pinned per registry
/// preset, in both models, by tests/test_checkpoint.cpp.

namespace ahbp::core {

/// Which model a Platform instantiates.
enum class ModelKind : std::uint8_t {
  kTlm = 0,
  kRtl = 1,
};

std::string_view to_string(ModelKind m) noexcept;

/// Parse "tlm" / "rtl".  Returns false on an unknown name.
bool model_kind_from_string(std::string_view name, ModelKind& out);

/// One assembled platform instance that can run in increments, snapshot
/// itself between increments, and restore from a snapshot taken by another
/// instance of the same structural configuration.
class Platform : public state::Snapshottable {
 public:
  Platform(const PlatformConfig& cfg, ModelKind model);
  ~Platform() override;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  ModelKind model() const noexcept;
  const PlatformConfig& config() const noexcept;

  /// Bus cycles simulated so far (continues across restore).
  sim::Cycle now() const;

  /// Workload drained and nothing in flight.
  bool finished() const;

  /// Simulate at most `n` further cycles, never exceeding
  /// `config().max_cycles` in total; stops early when finished().
  /// Returns the cycles executed.
  sim::Cycle run(sim::Cycle n);

  /// Run until finished() or the max_cycles budget is exhausted.
  void run_to_completion();

  /// The run outcome so far, in exactly the shape `run_tlm`/`run_rtl`
  /// return it.  `wall_seconds` covers this instance's own simulation time
  /// (a resumed platform does not inherit the warm-up's wall clock — that
  /// saving is the whole point).
  SimResult result() const;

  /// RTL only: dump the architectural signals as VCD.  Call before run().
  void enable_vcd(std::ostream& os);

  /// RTL only: the event kernel's activity counters (deltas, process
  /// activations, signal commits, clock edges) so far.
  const sim::KernelStats& rtl_kernel_stats() const;

  /// Observe every retired master transaction, in both models: `fn` gets
  /// the master id and the finished transaction (read data filled in) at
  /// the cycle it completes, so now() inside it is that cycle.  Call before
  /// run(); one hook per platform (a later call replaces it, an empty
  /// function detaches).  Observation only — results are bit-identical
  /// with or without it.
  void set_on_complete(CompletionHook fn);

  /// Attach a structured event timeline (obs/timeline.hpp): registers one
  /// timeline process for this model and wires every emission point (master
  /// ports, bus, write buffer, DDR channels/banks).  Call before run();
  /// `tl` must outlive the platform.  Observation only — cycle counts and
  /// all simulated state are bit-identical with or without a timeline.
  void enable_timeline(obs::Timeline& tl);

  /// Attach a self-profiler: the model times its parts (TLM: each master
  /// and the bus; RTL: per process), and the stimulus-expansion
  /// time measured at construction is reported retroactively.  Call before
  /// run(); `sp` must outlive the platform.
  void enable_self_profile(obs::SelfProfiler& sp);

  /// Emit a progress heartbeat to `os` roughly every `interval_sec` of
  /// wall clock while run() executes (cycles, wall time, kcycles/s),
  /// sampled between run()'s execution chunks.  Observation only: results
  /// are bit-identical with progress on or off.  Null disables.
  void set_progress(std::ostream* os, double interval_sec = 1.0);

  /// Attach a traffic::TraceRecorder capture tap to every master port
  /// (both models; call before run(), idempotent).  The recorded streams
  /// replay bit-exactly through trace-backed stimulus.
  void enable_capture();

  /// Master `m`'s capture tap (enable_capture() must have been called).
  const traffic::TraceRecorder& capture(ahb::MasterId m) const;

  void save_state(state::StateWriter& w) const override;
  void restore_state(state::StateReader& r) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ------------------------------------------------------ checkpoint files --

/// What a checkpoint file knows about itself.  `scenario_text` is the
/// canonical serialized scenario (scenario::serialize) of the platform the
/// snapshot was taken from, so `ahbp_sim resume` needs no other input.
/// Trace-backed masters additionally embed their resolved trace content:
/// the scenario names only the trace *path*, and a self-describing
/// snapshot must resume bit-exactly even after that file is deleted.
struct CheckpointInfo {
  std::string model;          ///< "tlm" or "rtl"
  sim::Cycle taken_at = 0;    ///< bus cycle the snapshot was taken at
  std::string scenario_text;  ///< full scenario, parseable by scenario::parse
  /// (master index, trace text) for every trace-backed master.
  std::vector<std::pair<std::uint64_t, std::string>> traces;
};

/// Inject the embedded traces of `info` into a configuration parsed from
/// `info.scenario_text`, so Platform construction never consults the
/// original trace files.  Throws state::StateError when an embedded trace
/// names a master the scenario does not declare as trace-backed.
void apply_embedded_traces(PlatformConfig& cfg, const CheckpointInfo& info);

/// Append the checkpoint header + the platform section to `w`.
void write_checkpoint(state::StateWriter& w, const Platform& p,
                      std::string_view scenario_text);

/// write_checkpoint + finish to a file.
void write_checkpoint_file(const std::string& path, const Platform& p,
                           std::string_view scenario_text);

/// Read the header section, leaving `r` positioned at the platform section
/// (pass it to Platform::restore_state).  Throws state::StateError.
CheckpointInfo read_checkpoint_header(state::StateReader& r);

}  // namespace ahbp::core
