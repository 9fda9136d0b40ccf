#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "traffic/generator.hpp"

/// \file trace.hpp
/// Script (trace) serialization.
///
/// A Script is the unit of reproducibility in this library: both models
/// replay it bit-identically.  Persisting scripts lets users capture a
/// workload once (from the synthetic generators or converted from a real
/// bus trace) and replay it across model versions, which is how the
/// paper-style accuracy comparisons stay stable over time.
///
/// Format: one line per transaction —
///
///   <gap> <R|W> <addr-hex> <size-bytes> <burst> <beats> [data-hex...]
///
/// '#' starts a comment; blank lines are ignored.  Hex fields (address,
/// write data) accept bare hex or a 0x/0X prefix; writes carry exactly
/// `beats` data words.  Any extra token on a line is an error (with its
/// line number), never silently dropped.

namespace ahbp::traffic {

/// Write a script as a trace.  Returns the number of transactions written.
std::size_t save_trace(std::ostream& os, const Script& script);

/// Parse a trace in one pass over `text`.  Throws std::runtime_error
/// ("trace line N: ...") on any malformed or structurally invalid entry.
/// `master` stamps ownership; ids are 1-based positions.
Script load_trace(std::string_view text, ahb::MasterId master);

/// load_trace over the rest of `is`.
Script load_trace(std::istream& is, ahb::MasterId master);

/// Burst kind <-> trace token ("SINGLE", "INCR4", ...).
std::string burst_token(ahb::Burst b);
ahb::Burst parse_burst(std::string_view token);

}  // namespace ahbp::traffic
