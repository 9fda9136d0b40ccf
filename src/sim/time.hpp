#pragma once

#include <cstdint>

/// \file time.hpp
/// Common time types shared by both models.
///
/// The event-driven kernel (used by the signal-level reference model) counts
/// `Tick`s — an abstract unit fine enough to place clock edges.  The
/// transaction-level model, stepped one bus cycle at a time, counts whole
/// bus `Cycle`s.  Keeping the two types distinct makes it impossible to mix
/// the two time bases by accident.

namespace ahbp::sim {

/// Event-kernel timestamp.  One tick is an abstract time unit; a clock with
/// period P produces a rising edge every P ticks.
using Tick = std::uint64_t;

/// Bus-cycle timestamp: number of elapsed bus clock cycles.
using Cycle = std::uint64_t;

/// Sentinel meaning "no deadline / never".
inline constexpr Cycle kNeverCycle = ~Cycle{0};

/// Sentinel meaning "no scheduled tick".
inline constexpr Tick kNeverTick = ~Tick{0};

}  // namespace ahbp::sim
