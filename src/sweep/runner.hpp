#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/platform.hpp"
#include "stats/report.hpp"
#include "sweep/spec.hpp"

/// \file runner.hpp
/// Parallel execution of expanded sweeps.
///
/// Simulation runs are fully self-contained (`run_tlm` / `run_rtl` share no
/// mutable state), so a sweep fans out across a `std::thread` pool and
/// scales with cores.  Results are collected *by expansion index*, never by
/// completion order, so the aggregate report is byte-identical no matter
/// how many workers raced to produce it — determinism the tests pin down.
///
/// ## Fork-from-warm-up
///
/// Every sweep point used to re-simulate the identical warm-up prefix —
/// cold DDR banks, empty write buffers, arbiter settling — before the
/// configurations even diverge.  With `warmup_cycles > 0` the runner
/// simulates the *base* scenario once per model, snapshots the whole
/// platform through the src/state layer, and forks every point from that
/// snapshot; workers share the read-only snapshot bytes.  The fork
/// reproduces the cold sweep exactly when the swept axes leave the first
/// `warmup_cycles` invariant (e.g. `items` axes, whose scripts extend the
/// base's by construction); axes that perturb the prefix — seeds, timings,
/// arbitration knobs — make the fork an approximation of the cold run, the
/// standard checkpoint-sweep trade-off.  Structural mismatches (master or
/// channel count, bank geometry, checker enablement) fail the point with a
/// clear error instead of diverging silently.
///
/// Axes that reshape the stimulus *prefix* itself (seeds, patterns,
/// address windows, traces) are caught by the script-hash check in the v4
/// snapshot format: the restore throws state::ForkDivergence, the runner
/// demotes the point to a cold run (exact numbers, no fork speedup), and
/// the per-point CSV flags it in the `demoted` column.

namespace ahbp::sweep {

/// Which model(s) each point runs on.
enum class Model : std::uint8_t {
  kTlm = 0,
  kRtl = 1,
  kBoth = 2,  ///< both, plus the TLM-vs-RTL accuracy column
};

/// Parse "tlm" / "rtl" / "both".  Returns false on an unknown name.
bool model_from_string(std::string_view name, Model& out);

/// Outcome of one sweep point.
struct PointOutcome {
  std::size_t index = 0;
  std::string label;
  bool has_tlm = false;
  bool has_rtl = false;
  core::SimResult tlm;
  core::SimResult rtl;
  std::string error;  ///< non-empty when the run threw instead of finishing

  /// A warm-up-forked point whose stimulus diverged from the warm base
  /// (state::ForkDivergence on restore) was re-run cold: its numbers are
  /// exact, but it paid the full warm-up it was supposed to skip.  Always
  /// false for cold sweeps.  Flagged in the per-point CSV.
  bool demoted = false;

  /// |tlm - rtl| / rtl cycle error (0 unless both models ran).
  double cycle_error() const noexcept;
};

/// Warm `base` up for `warmup_cycles` once per requested model — serial —
/// and seal the snapshot images into `warm_tlm` / `warm_rtl` (left empty
/// for models not requested, or when `warmup_cycles == 0`).  Public so a
/// caller can time the warm-up apart from the per-point work.
void warm_snapshots(const core::PlatformConfig& base, Model model,
                    sim::Cycle warmup_cycles,
                    std::vector<std::uint8_t>& warm_tlm,
                    std::vector<std::uint8_t>& warm_rtl);

/// Simulate one expanded point and return its outcome: fork each requested
/// model from the matching snapshot when non-empty (demoting to a cold run
/// on state::ForkDivergence), run cold otherwise.  Exceptions land in
/// `PointOutcome::error`, never escape.  This is the single simulation
/// path behind `SweepRunner::run` — the byte-identical-CSV guarantee
/// across `--jobs` rests on every point funnelling through here.
PointOutcome simulate_point(const SweepPoint& point, Model model,
                            const std::vector<std::uint8_t>& warm_tlm,
                            const std::vector<std::uint8_t>& warm_rtl);

class SweepRunner {
 public:
  /// `jobs` worker threads (clamped to [1, points]; 0 = hardware
  /// concurrency).
  explicit SweepRunner(unsigned jobs = 1) : jobs_(jobs) {}

  unsigned jobs() const noexcept { return jobs_; }

  /// Invoked after each point finishes with (points done so far, total).
  /// With multiple workers the callback runs concurrently from worker
  /// threads — it must synchronize its own output (the CLI wraps a mutex
  /// around its stderr line).  Null (the default) disables.
  void set_progress(std::function<void(std::size_t, std::size_t)> cb) {
    progress_ = std::move(cb);
  }

  /// Run every point cold, in parallel, deterministically ordered by index.
  std::vector<PointOutcome> run(const std::vector<SweepPoint>& points,
                                Model model) const;

  /// Warm `base` up for `warmup_cycles` once per requested model, then fork
  /// every point from the snapshot (see the file comment for the exactness
  /// contract).  `warmup_cycles == 0` degrades to the cold run.
  std::vector<PointOutcome> run(const std::vector<SweepPoint>& points,
                                Model model,
                                const core::PlatformConfig& base,
                                sim::Cycle warmup_cycles) const;

 private:
  unsigned jobs_;
  std::function<void(std::size_t, std::size_t)> progress_;
};

/// Aggregate comparison table: index, label, cycles, completed
/// transactions, QoS warnings, protocol errors; with `Model::kBoth` also
/// the TLM-vs-RTL error column.  `include_speed` adds kcycles/sec columns —
/// wall-clock dependent, so leave it off wherever byte-stable output
/// matters (the default everywhere except interactive reports).
stats::TextTable aggregate_table(const std::vector<PointOutcome>& outcomes,
                                 Model model, bool include_speed = false);

/// Per-point outcome dump, one CSV row per point: every counter external
/// tooling needs to diff a checkpointed sweep against a cold one (cycles,
/// ran cycles, retired transactions, violations, grants, bytes moved, and
/// the six stall-attribution classes summed across masters — per model).
/// Byte-stable: no wall-clock-derived columns.
void write_point_csv(std::ostream& os,
                     const std::vector<PointOutcome>& outcomes, Model model);

}  // namespace ahbp::sweep
