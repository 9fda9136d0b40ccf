#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ahb/types.hpp"
#include "state/snapshot.hpp"

/// \file address.hpp
/// Burst address sequencing and the system address map.
///
/// Burst address math is protocol *semantics*, shared verbatim by the
/// signal-level model and the TLM so that any cycle-count difference between
/// them comes from timing abstraction, never from divergent address streams.

namespace ahbp::ahb {

/// Compute the address of beat `beat` (0-based) of a burst starting at
/// `start`.  INCR* bursts increment by the beat size; WRAP* bursts wrap at
/// the boundary of (beats * beat size) bytes, as per AMBA 2.0 §3.5.
///
/// `start` must be aligned to the transfer size (checked by callers /
/// protocol assertions, not here).
Addr burst_beat_addr(Addr start, Size size, Burst burst, unsigned beat) noexcept;

/// True if every beat of the burst stays within the same 1KB boundary
/// region, which AMBA 2.0 requires for INCR* bursts (wrapping bursts satisfy
/// it by construction).  Traffic generators use this to emit legal bursts.
bool burst_within_1kb(Addr start, Size size, Burst burst,
                      unsigned beats) noexcept;

/// Sequential address iterator used by master drivers: yields the expected
/// HADDR for each beat so protocol checkers can verify SEQ addresses.
class BurstSequencer {
 public:
  BurstSequencer() = default;
  BurstSequencer(Addr start, Size size, Burst burst, unsigned beats) noexcept;

  /// Address of the current beat.
  Addr current() const noexcept { return cur_; }

  /// Beat index (0-based).
  unsigned beat() const noexcept { return beat_; }

  unsigned beats() const noexcept { return beats_; }

  /// True when all beats have been consumed.
  bool done() const noexcept { return beat_ >= beats_; }

  /// True if the *next* advance() would finish the burst.
  bool last_beat() const noexcept { return beat_ + 1 == beats_; }

  /// Move to the next beat.
  void advance() noexcept;

  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  Addr start_ = 0;
  Addr cur_ = 0;
  Size size_ = Size::kWord;
  Burst burst_ = Burst::kSingle;
  unsigned beats_ = 1;
  unsigned beat_ = 0;
};

/// One region of the system memory map.
struct Region {
  Addr base = 0;
  Addr size = 0;      ///< bytes; region covers [base, base+size)
  int slave = -1;     ///< slave port index
  std::string name;

  bool contains(Addr a) const noexcept { return a >= base && a - base < size; }
};

/// The address decoder (the AHB "decoder" component).  Maps HADDR to a
/// slave select.  Regions must not overlap (validated on add).
class AddressMap {
 public:
  /// Add a region; throws std::invalid_argument on overlap or zero size.
  void add(Region region);

  /// Slave index for an address, or std::nullopt if unmapped (an AHB system
  /// typically routes unmapped addresses to a default slave that ERRORs).
  std::optional<int> decode(Addr a) const noexcept;

 private:
  std::vector<Region> regions_;
};

}  // namespace ahbp::ahb
