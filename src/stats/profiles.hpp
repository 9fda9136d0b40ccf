#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ahb/transaction.hpp"
#include "ahb/types.hpp"
#include "ddr/bank.hpp"
#include "ddr/scheduler.hpp"
#include "obs/stall.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ahbp::obs {
class Timeline;
}

/// \file profiles.hpp
/// The profiling features of the paper's §3.6: "bus and master port
/// profiling features in transaction-level ports and some internal
/// functions such as arbiter, write buffer and so on".  Both models produce
/// the same profile structures, so accuracy comparisons can look beyond the
/// total cycle count.

namespace ahbp::stats {

/// Per-master port profile, fed by the transaction ports.
struct MasterProfile {
  std::string name;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t buffered_writes = 0;  ///< writes absorbed by the write buffer
  Log2Histogram grant_wait;   ///< request -> grant cycles
  Log2Histogram latency;      ///< request -> completion cycles
  std::uint64_t qos_misses = 0;  ///< RT transfers that blew the objective
  obs::StallCounters stalls;  ///< per-cycle stall attribution (obs/stall.hpp)

  /// Timeline hook (observation wiring, not state): when set, record()
  /// emits the grant-wait and transfer spans on this master's track.  Both
  /// models call record() at completion, so the emission is shared.
  obs::Timeline* timeline = nullptr;
  unsigned timeline_track = 0;

  void record(const ahb::Transaction& t, bool buffered);

  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);
};

/// Bus-level profile, fed by the arbiter each cycle.
struct BusProfile {
  sim::Cycle cycles = 0;            ///< total observed cycles
  sim::Cycle busy_cycles = 0;       ///< address or data phase active
  sim::Cycle contention_cycles = 0; ///< >1 request pending in one cycle
  sim::Cycle wait_cycles = 0;       ///< >=1 request pending but bus stalled
  std::uint64_t grants = 0;
  /// Grants whose master (write buffer included) differs from the
  /// previous grant's; the first grant of a run is not a handover.
  std::uint64_t handovers = 0;
  std::uint64_t bytes = 0;

  /// Fraction of cycles the bus moved or addressed data.
  double utilization() const noexcept {
    return cycles ? static_cast<double>(busy_cycles) / static_cast<double>(cycles)
                  : 0.0;
  }
  /// Fraction of cycles with more than one pending requester.
  double contention() const noexcept {
    return cycles ? static_cast<double>(contention_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Bytes per cycle.
  double throughput() const noexcept {
    return cycles ? static_cast<double>(bytes) / static_cast<double>(cycles)
                  : 0.0;
  }

  /// Per-cycle sample: `requesters` = number of masters requesting this
  /// cycle, `busy` = bus occupied, `moved_bytes` = data moved this cycle.
  void sample(unsigned requesters, bool busy, unsigned moved_bytes);

  /// Bulk-record `n` provably idle cycles (no requesters, not busy, no
  /// data) — equivalent to calling sample(0, false, 0) `n` times.  Used
  /// when the TLM platform leaps a provably idle stretch.
  void sample_idle_n(sim::Cycle n) noexcept { cycles += n; }

  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);
};

/// Write-buffer profile (§3.3 / §3.6).
struct WriteBufferProfile {
  std::uint64_t absorbed = 0;       ///< writes accepted into the buffer
  std::uint64_t drained = 0;        ///< writes drained to the DDRC
  std::uint64_t bypassed = 0;       ///< writes that went straight through
  std::uint64_t full_stalls = 0;    ///< cycles a write stalled on full buffer
  std::uint64_t forwards = 0;       ///< reads served/ordered against buffer hits
  Summary occupancy;                ///< sampled per cycle

  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);
};

/// DDR-side profile assembled from the engine counters.
struct DdrProfile {
  ddr::BankEngine::Counters commands;
  ddr::DdrcEngine::HitStats hits;

  double row_hit_rate() const noexcept {
    const auto total = hits.row_hits + hits.row_misses + hits.row_conflicts;
    return total ? static_cast<double>(hits.row_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Everything one simulation run produces.
struct RunProfile {
  std::vector<MasterProfile> masters;
  BusProfile bus;
  WriteBufferProfile write_buffer;
  DdrProfile ddr;
  sim::Cycle total_cycles = 0;
  std::uint64_t completed_txns = 0;
  /// Checker findings aggregated by rule id (sorted by rule), so reports
  /// surface them without grepping the violation log text.
  std::vector<std::pair<std::string, std::uint64_t>> violation_rules;
};

}  // namespace ahbp::stats
