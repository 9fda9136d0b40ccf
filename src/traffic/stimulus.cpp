#include "traffic/stimulus.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "assertions/assert.hpp"
#include "traffic/trace.hpp"

namespace ahbp::traffic {

std::string to_string(StimulusSource s) {
  return s == StimulusSource::kTrace ? "trace" : "synthetic";
}

void resolve(StimulusSpec& spec) {
  if (spec.resolved()) {
    return;
  }
  if (spec.trace_path.empty()) {
    throw std::runtime_error(
        "trace-backed stimulus needs a trace path (or pre-resolved text)");
  }
  // On Linux ifstream happily *opens* a directory; the reads then fail in
  // a way rdbuf() extraction reports identically to an empty file, so
  // without this check a directory path silently became an empty workload
  // with trace_loaded = true.
  std::error_code ec;
  if (std::filesystem::is_directory(spec.trace_path, ec)) {
    throw std::runtime_error("'" + spec.trace_path +
                             "' is a directory, not a trace file");
  }
  std::ifstream in(spec.trace_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open trace file '" + spec.trace_path +
                             "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  // failbit alone only says "zero characters extracted" (legal: an empty
  // trace); badbit on either stream is a genuine I/O failure and must not
  // resolve into an empty workload.
  if (in.bad() || ss.bad()) {
    throw std::runtime_error("error reading trace file '" + spec.trace_path +
                             "'");
  }
  spec.trace_text = ss.str();
  spec.trace_loaded = true;  // authoritative even when the file was empty
}

Script expand_stimulus(const StimulusSpec& spec, ahb::MasterId master,
                       unsigned bus_beat_bytes) {
  if (!spec.is_trace()) {
    // The §3.7 bus-width knob reaches the stimulus here: patterns keep the
    // bytes per transfer invariant and emit beats of the configured width.
    PatternConfig pat = spec;  // slice off the trace fields
    pat.beat_bytes = bus_beat_bytes;
    return make_script(pat, master);
  }

  const std::string origin = "master " + std::to_string(master) + " trace" +
                             (spec.trace_path.empty()
                                  ? std::string()
                                  : " '" + spec.trace_path + "'");
  // Only the unresolved branch pays for a spec copy; an already-resolved
  // spec (the common case — Platform resolves its config at construction)
  // parses straight from its own text.
  StimulusSpec loaded;
  const std::string* text = &spec.trace_text;
  if (!spec.resolved()) {
    loaded = spec;
    try {
      resolve(loaded);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(origin + ": " + e.what());
    }
    text = &loaded.trace_text;
  }

  Script script;
  try {
    script = load_trace(*text, master);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(origin + ": " + e.what());
  }
  // A trace recorded on a wide bus cannot replay on a narrower one: HSIZE
  // may never exceed the data bus width (the ahb.hsize-width checker rule
  // would flag every beat — fail early with a workload error instead).
  for (const TrafficItem& item : script) {
    if (ahb::size_bytes(item.txn.size) > bus_beat_bytes) {
      throw std::runtime_error(
          origin + ": transaction " + std::to_string(item.txn.id) + " has " +
          std::to_string(ahb::size_bytes(item.txn.size)) +
          "-byte beats but bus.data_width_bytes is " +
          std::to_string(bus_beat_bytes));
    }
  }
  return script;
}

void TraceRecorder::record_issue(sim::Cycle now, const ahb::Transaction& txn) {
  // An issue can never precede the port's previous completion — a model
  // reporting one is contradicting itself, and the unsigned subtraction
  // below would wrap it into a near-2^64 gap that poisons the capture.
  AHBP_ASSERT_MSG(now >= last_complete_,
                  "trace capture observed an issue at cycle " +
                      std::to_string(now) +
                      " before the port's previous completion at cycle " +
                      std::to_string(last_complete_));
  TrafficItem item;
  // Observed think time: issue relative to this port's previous
  // completion, saturated at zero so the recorded gap can never wrap even
  // if a driver swallows the assertion and keeps capturing.  For the first
  // item this is the absolute issue cycle, which replay ignores (the
  // source's gap timer starts armed at 0).
  item.gap = now >= last_complete_ ? now - last_complete_ : 0;
  item.txn = txn;
  items_.push_back(std::move(item));
}

void TraceRecorder::record_complete(sim::Cycle now) { last_complete_ = now; }

}  // namespace ahbp::traffic
