#pragma once

#include <cstdint>
#include <string_view>

#include "sim/time.hpp"

/// \file commands.hpp
/// DRAM command vocabulary used by the controller, the timing checker and
/// the profiling layer.

namespace ahbp::ddr {

enum class CmdKind : std::uint8_t {
  kNop = 0,
  kActivate,   ///< open a row in a bank (RAS)
  kRead,       ///< column read burst (CAS)
  kWrite,      ///< column write burst (CAS)
  kPrecharge,  ///< close the open row of a bank
  kRefresh,    ///< auto-refresh (all banks must be idle)
};

/// One command on the DRAM command bus.
struct Command {
  CmdKind kind = CmdKind::kNop;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;   ///< kActivate only
  std::uint32_t col = 0;   ///< kRead/kWrite only
  unsigned beats = 0;      ///< kRead/kWrite: data beats this CAS moves
};

std::string_view to_string(CmdKind k) noexcept;

}  // namespace ahbp::ddr
