#pragma once

#include <cstdint>
#include <string>

#include "traffic/generator.hpp"

/// \file stimulus.hpp
/// Pluggable per-master stimulus: synthetic pattern or recorded trace.
///
/// The paper's Table 1 is produced "by changing the traffic patterns of the
/// masters"; real workload rows need the fourth traffic class the synthetic
/// archetypes cannot provide — a *recorded* transaction stream.  A
/// `StimulusSpec` names one master's stimulus either way:
///
///  - synthetic: the inherited `PatternConfig` fields (kind/seed/items/...)
///    expand through `make_script` exactly as before;
///  - trace: `trace_path` names a trace file (traffic/trace.hpp format),
///    optionally pre-resolved into `trace_text` so the platform stays
///    self-describing after the file disappears (checkpoints embed it).
///
/// `expand_stimulus` is the one choke point both models' scripts come
/// through, and `TraceRecorder` is its inverse: a tap on the master port
/// (`ScriptSource::pop` / `on_complete`) that captures the replayable
/// stream — gaps are measured from the previous completion at the *same*
/// port, so they are genuine think-time and the capture→replay loop is
/// closed bit-exactly in both models.

namespace ahbp::traffic {

/// Where a master's transactions come from.
enum class StimulusSource : std::uint8_t {
  kSynthetic = 0,  ///< expand the PatternConfig archetype
  kTrace = 1,      ///< replay a recorded trace
};

std::string to_string(StimulusSource s);

/// One master's stimulus: the synthetic pattern parameters plus the
/// alternative trace reference.  When `source == kTrace` the inherited
/// pattern fields are inert (kept only so overrides stay harmless).
struct StimulusSpec : PatternConfig {
  StimulusSource source = StimulusSource::kSynthetic;

  /// kTrace: path of the trace file (scenario `masterK.trace`).
  std::string trace_path;

  /// kTrace: the trace file's content once resolved.  A resolved spec
  /// never touches the filesystem again — this is what checkpoints embed
  /// so a trace-driven snapshot survives the file being deleted.
  std::string trace_text;

  /// `trace_text` is authoritative — set by resolve() and by checkpoint
  /// restore, so even a legitimately empty trace (zero transactions)
  /// counts as resolved.  Setting `trace_text` by hand also resolves.
  bool trace_loaded = false;

  bool is_trace() const noexcept { return source == StimulusSource::kTrace; }

  /// Expansion can proceed without filesystem access.
  bool resolved() const noexcept {
    return !is_trace() || trace_loaded || !trace_text.empty();
  }
};

/// Load `trace_path` into `trace_text` (no-op for synthetic or already
/// resolved specs).  Throws std::runtime_error when the path is missing or
/// unreadable.  Content errors surface later, at expansion, with line
/// numbers.
void resolve(StimulusSpec& spec);

/// Expand one master's stimulus into its deterministic script.
///
/// Synthetic specs expand through `make_script` with the beat width forced
/// to `bus_beat_bytes` (the §3.7 bus-width knob).  Trace specs parse
/// `trace_text` (resolving from `trace_path` first if needed) and verify
/// every beat fits the bus width.  Throws std::runtime_error with the
/// master id and trace origin on any trace problem.
Script expand_stimulus(const StimulusSpec& spec, ahb::MasterId master,
                       unsigned bus_beat_bytes);

/// Capture tap on a master port.
///
/// `ScriptSource` calls `record_issue` at the exact cycle a transaction is
/// popped and `record_complete` when the master reports completion; the
/// recorded gap of item N is `issue(N) - complete(N-1)` — observed think
/// time relative to the port's own completions, which is precisely the gap
/// semantics `ScriptSource` replays.  Replaying a capture therefore
/// reproduces the original issue cycles bit-exactly, and capturing a replay
/// reproduces the trace (the tap is a fixed point).
///
/// The first item's recorded gap is the absolute issue cycle; `ScriptSource`
/// never consults the first gap (its timer arms at 0), so this is
/// informational only.
class TraceRecorder {
 public:
  explicit TraceRecorder(ahb::MasterId master = ahb::kNoMaster)
      : master_(master) {}

  void record_issue(sim::Cycle now, const ahb::Transaction& txn);
  void record_complete(sim::Cycle now);

  ahb::MasterId master() const noexcept { return master_; }
  const Script& captured() const noexcept { return items_; }

 private:
  ahb::MasterId master_;
  Script items_;
  sim::Cycle last_complete_ = 0;
};

}  // namespace ahbp::traffic
