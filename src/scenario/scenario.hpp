#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/platform.hpp"

/// \file scenario.hpp
/// Declarative scenario descriptions.
///
/// The paper's value proposition is early design-space exploration:
/// "changing the traffic patterns of the masters" (Table 1) and sweeping
/// the §3.7 structural knobs (bus width, write-buffer depth, arbitration
/// filters, QoS values).  This module makes a whole `PlatformConfig`
/// writable as a small sectioned `key = value` text file, so experiments
/// can be described, versioned, and swept without writing C++:
///
/// ```
/// # four-master mix on a DDR-266 part
/// [platform]
/// max_cycles = 4000000
///
/// [bus]
/// write_buffer_depth = 4
/// filter_mask = 0x7f
///
/// [ddr]
/// preset = ddr266          # tRCD/tRP/... may be overridden below
/// banks = 4
///
/// [master 0]
/// class = rt
/// objective = 40
/// pattern = rt-stream
/// period = 48
///
/// [master *]           # applies to every master defined above
/// items = 200
/// ```
///
/// `serialize()` is the exact inverse: it emits a canonical file that
/// `parse()` maps back to the same configuration (round-trippable, which
/// the tests pin down byte-for-byte).

namespace ahbp::scenario {

/// Parse/apply failure: carries the 1-based line number when the error
/// came from file text (0 when applying a programmatic override).
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& msg, std::size_t line = 0)
      : std::runtime_error(line ? "line " + std::to_string(line) + ": " + msg
                                : msg),
        line_(line) {}

  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_ = 0;
};

/// Parse scenario text into a platform configuration.
/// Throws ScenarioError on unknown sections/keys, malformed values, or
/// non-contiguous master indices.
core::PlatformConfig parse(std::string_view text);

/// Parse a scenario file from disk (throws ScenarioError, including when
/// the file cannot be read).
core::PlatformConfig parse_file(const std::string& path);

/// Emit the canonical scenario text for a configuration.
/// Invariant: serialize(parse(serialize(cfg))) == serialize(cfg).
std::string serialize(const core::PlatformConfig& cfg);

/// Apply one dotted-key override, e.g. ("bus.write_buffer_depth", "8"),
/// ("ddr.preset", "ddr400"), ("channel1.tCL", "6"), ("master1.items",
/// "200"), or ("master*.seed", "7") to touch every master.  This is the
/// same setter machinery the parser uses, shared with sweep axis expansion
/// so a sweepable knob and a scenario key can never drift apart.  Single
/// keys are checked individually; call validate() after a batch of
/// overrides to re-establish the whole-config invariants.
void apply_key(core::PlatformConfig& cfg, std::string_view dotted_key,
               std::string_view value);

/// Whole-config consistency checks a single setter cannot make: the
/// interleave parameters, that channel overrides name existing channels,
/// that every resolved channel's DDR timing is self-consistent
/// (DdrTiming::validate), that the stripe divides every channel's
/// capacity, and that each master's address window fits the DDR aperture
/// (capacity x channels from ddr_base) — `ddr_base` used to be parsed
/// independently of the geometry, so a scenario could target an aperture
/// the device silently wrapped.  parse() and sweep expansion both end
/// with this.  Throws ScenarioError.
void validate(const core::PlatformConfig& cfg);

}  // namespace ahbp::scenario
