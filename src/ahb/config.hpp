#pragma once

#include <cstdint>

#include "ahb/qos.hpp"
#include "ahb/types.hpp"

/// \file config.hpp
/// Structural parameters of the AHB+ bus (§3.7 "Flexibility and
/// Reusability": bus width, write buffer depth & on/off, arbitration
/// algorithm on/off, RT/NRT type, QoS value).  Every field means the same
/// thing in the TLM and the signal-level model; request pipelining (§2) is
/// always on in both.

namespace ahbp::ahb {

/// Bitmask enabling individual arbitration filters (see tlm/arbiter.hpp for
/// the seven filters).  The paper states all seven are "always activated" in
/// the real design but exposes per-filter on/off as a model parameter — so
/// do we.
enum class FilterBit : std::uint8_t {
  kRequest = 0,
  kLock = 1,
  kUrgency = 2,
  kBank = 3,
  kQosBudget = 4,
  kRoundRobin = 5,
  kPriority = 6,
};

inline constexpr std::uint8_t kAllFilters = 0x7F;

constexpr bool filter_enabled(std::uint8_t mask, FilterBit f) noexcept {
  return ((static_cast<unsigned>(mask) >> static_cast<unsigned>(f)) & 1U) != 0;
}

constexpr std::uint8_t with_filter(std::uint8_t mask, FilterBit f,
                                   bool on) noexcept {
  const std::uint8_t bit = static_cast<std::uint8_t>(1U << static_cast<unsigned>(f));
  return on ? (mask | bit) : (mask & static_cast<std::uint8_t>(~bit));
}

/// Static configuration of the AHB+ bus fabric, shared by the TLM and the
/// signal-level model so both build identical topologies.
struct BusConfig {
  unsigned data_width_bytes = 4;   ///< HWDATA/HRDATA width (4 = AHB 32-bit)
  std::uint8_t filter_mask = kAllFilters;

  /// Write buffer depth in entries (whole transactions); 0 = no buffer.
  /// While occupied the buffer requests the bus as a pseudo-master; its
  /// urgency escalates when full.
  unsigned write_buffer_depth = 4;

  /// Bank interleaving via the BI next-transaction hint (§2, §3.4).
  bool bi_hints_enabled = true;

  /// Urgency threshold: an RT master becomes "urgent" when its slack drops
  /// below this many cycles (filter 3).
  std::uint32_t urgency_slack_threshold = 8;
};

}  // namespace ahbp::ahb
