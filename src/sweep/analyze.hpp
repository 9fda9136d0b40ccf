#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/platform.hpp"
#include "stats/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

/// \file analyze.hpp
/// Static scenario/sweep analysis — `ahbp_sim lint`.
///
/// A sweep of a few thousand points that times out, oversubscribes the bus,
/// or silently clobbers its own warm-up fork wastes hours before the first
/// CSV row appears.  This module answers "will this run do what the file
/// says" *without simulating*: it expands the stimulus scripts (the same
/// deterministic expansion both models consume) and checks the arithmetic
/// the models would otherwise discover the slow way:
///
///  * **Feasibility** — a script's gaps plus its bus beats are a provable
///    lower bound on completion; beats summed across masters bound the
///    shared bus.  Exceeding `max_cycles` is an error (the run *cannot*
///    finish); approaching it is a warning (contention will push it over).
///  * **Bandwidth** — offered bytes against the bus's peak
///    `data_width_bytes`/cycle.
///  * **Channel balance** — masters whose address windows touch only a
///    subset of a multi-channel memory (aperture-vs-stripe conflicts are
///    hard errors via scenario::validate; *imbalance* is only visible from
///    the expanded addresses).
///  * **Trace pre-validation** — trace files are parsed and checked against
///    the bus width and DDR aperture up front, with per-master attribution.
///  * **Axis hygiene** — duplicate axis keys (later silently wins),
///    duplicate values (redundant points), constant axes.
///  * **Warm-up fork hazards** (`--warmup-cycles`) — axes that change the
///    stimulus demote their points to cold runs (sweep/runner.hpp), and
///    structural memory axes cannot fork at all; both are reported here
///    before any cycles are spent.
///
/// Every expanded point (capped, see LintOptions::max_points) additionally
/// runs the whole-config checks, because an axis combination can break what
/// the base satisfies (e.g. swept `ddr.rows` shrinking the aperture under a
/// master's window).

namespace ahbp::sweep {

enum class LintSeverity : std::uint8_t { kNote = 0, kWarning = 1, kError = 2 };

std::string_view to_string(LintSeverity s);

struct LintFinding {
  LintSeverity severity = LintSeverity::kNote;
  std::string check;    ///< e.g. "timeout/provable", "warmup/stimulus-axis"
  std::string where;    ///< "" | "master 2" | "point 5 (bus.x=4)" | "axis k"
  std::string message;
};

struct LintReport {
  bool is_sweep = false;
  std::size_t points = 1;          ///< expansion size (1 for a scenario)
  std::size_t points_checked = 1;  ///< deep-checked points (capped)
  std::vector<LintFinding> findings;

  std::size_t count(LintSeverity s) const noexcept;
  std::size_t errors() const noexcept {
    return count(LintSeverity::kError);
  }
  std::size_t warnings() const noexcept {
    return count(LintSeverity::kWarning);
  }
  /// No errors (warnings/notes do not fail a lint unless the caller opts
  /// into --strict).
  bool ok() const noexcept { return errors() == 0; }
};

struct LintOptions {
  /// Lint under warm-up-forked sweep assumptions (`sweep --warmup-cycles N`
  /// is the run this models): flags stimulus axes that will demote points
  /// to cold runs and structural axes that cannot fork at all.
  sim::Cycle warmup_cycles = 0;

  /// Cap on deep-checked expanded points; a truncation note is emitted
  /// when the sweep is larger.  0 disables per-point checks.
  std::size_t max_points = 64;
};

/// Whole-config checks on one configuration (feasibility, bandwidth,
/// channel balance, trace validity).
LintReport lint_config(const core::PlatformConfig& cfg,
                       const LintOptions& opts = {});

/// Sweep checks: axis hygiene, warm-up hazards, and the whole-config
/// checks per expanded point.
LintReport lint_spec(const SweepSpec& spec, const LintOptions& opts = {});

/// Lint scenario-or-sweep text (auto-detected: a `[sweep]` section or a
/// top-level `base =` makes it a sweep).  Parse errors become findings,
/// never exceptions.
LintReport lint_text(std::string_view text, const LintOptions& opts = {});

/// Lint a scenario reference the way `ahbp_sim run`/`sweep` resolve one: a
/// registry preset name first, a scenario/sweep file path second.
LintReport lint_ref(const std::string& ref, const LintOptions& opts = {});

/// Human-readable report: one `severity: [check] where: message` line per
/// finding plus a summary line.
void write_report(std::ostream& os, const LintReport& r);

// ------------------------------------------------------------ sensitivity --
// "Which knob moved the cycle count": post-sweep per-axis analysis over the
// outcomes the runner already produced.  For each swept axis,
// every combination of the *other* axes' values forms one group; within a
// group only that axis varies, so the spread of `cycles` inside the group
// is that knob's isolated effect.  `ahbp_sim sweep --sensitivity` surfaces
// the aggregation below next to the per-point table.

/// One axis's aggregated effect on the cycle count.
struct AxisSensitivity {
  std::string key;            ///< the dotted axis key
  std::size_t values = 0;     ///< candidate values on this axis
  std::size_t groups = 0;     ///< other-axis combinations with >= 2 usable points
  std::uint64_t min_cycles = 0;  ///< min cycles across all usable points
  std::uint64_t max_cycles = 0;  ///< max cycles across all usable points
  std::uint64_t max_spread = 0;  ///< largest within-group (max - min)
  double mean_spread = 0.0;      ///< mean within-group spread over groups

  /// max_spread relative to the smallest cycle count it was observed
  /// against — "varying this knob moved the run by up to X%".
  double relative_spread() const noexcept;
};

/// Compute per-axis sensitivity of one model's `cycles` over a sweep's
/// outcomes (`use_rtl` selects the RTL counts; the caller picks a model
/// that actually ran).  Points with a non-empty error or without the
/// requested model are skipped.  Sorted by descending max_spread, ties in
/// axis order.  Outcomes must be the expansion of `spec` (index-aligned),
/// as produced by SweepRunner::run.
std::vector<AxisSensitivity> sensitivity(
    const SweepSpec& spec, const std::vector<PointOutcome>& outcomes,
    bool use_rtl);

/// Render a sensitivity report as a table (axis, values, groups, cycle
/// range, spreads).  Byte-stable: derived from cycle counts only.
stats::TextTable sensitivity_table(const std::vector<AxisSensitivity>& axes);

}  // namespace ahbp::sweep
