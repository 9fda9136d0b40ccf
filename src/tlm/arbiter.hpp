#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "ahb/transaction.hpp"
#include "ddr/scheduler.hpp"
#include "sim/time.hpp"

/// \file arbiter.hpp
/// The AHB+ arbitration filter pipeline.
///
/// §3.3: "seven arbitration filters are implemented and they are always
/// activated without the consideration of master / slave combinations."
/// The Samsung-internal filter definitions are not public; DESIGN.md §5.3
/// documents our reconstruction.  Each filter narrows the candidate set; a
/// filter that would empty a non-empty set passes it through unchanged
/// (except the request filter, which defines the base set).  The final
/// priority filter always leaves exactly one candidate, so arbitration is
/// total and deterministic.
///
/// The pipeline is *decision logic only* — no bus state — so the TLM
/// arbiter and the signal-level arbiter execute the very same code, the TLM
/// feeding it from method calls and the RTL model from sampled signals.

namespace ahbp::tlm {

/// Candidate bitmask; bit i = master i, bit `masters` = write buffer.
using CandidateMask = std::uint32_t;

/// Everything a filter may consult about one candidate.
struct ArbCandidate {
  bool requesting = false;
  bool is_write = false;
  bool locked = false;
  unsigned beats = 0;  ///< burst length of the pending transaction
  sim::Cycle requested_at = 0;
  /// Bank affinity of the candidate's next transaction (BI information);
  /// kIdle when unknown (e.g. BI disabled).
  ddr::BankAffinity affinity = ddr::BankAffinity::kIdle;
  /// Read hazard: candidate's read overlaps a buffered write and must wait.
  bool blocked_by_hazard = false;
};

/// Snapshot consumed by the pipeline each arbitration round.
struct ArbContext {
  sim::Cycle now = 0;
  const ahb::BusConfig* cfg = nullptr;
  const ahb::QosRegisterFile* qos = nullptr;  ///< real masters only
  std::vector<ArbCandidate> candidates;       ///< size = masters + 1 (wbuf last)
  unsigned masters = 0;                       ///< real master count
  /// Owner of an in-flight locked transaction (kNoMaster when none).
  ahb::MasterId lock_owner = ahb::kNoMaster;
  /// Write buffer urgency (full or read hazard) — see WriteBuffer::urgent().
  bool wbuf_urgent = false;
  /// Most recent grant, for round-robin rotation.
  ahb::MasterId last_grant = ahb::kNoMaster;

  CandidateMask wbuf_bit() const noexcept { return 1U << masters; }
};

/// The fixed seven-stage pipeline: request, lock, urgency, qos-budget,
/// bank, round-robin, priority.  Stages honour the config's filter mask
/// (§3.7 "arbitration algorithm on/off"): a disabled stage is an identity.
class FilterPipeline {
 public:
  /// Run the pipeline.  Returns the winner, or nullopt when nobody is
  /// requesting.
  std::optional<ahb::MasterId> arbitrate(const ArbContext& ctx) const;
};

/// Bookkeeping arbiter shared by both models: wraps the pipeline with QoS
/// state updates (request tracking, budget accounting, epoch refill) and
/// grant statistics.
class Arbiter {
 public:
  Arbiter(const ahb::BusConfig& cfg, ahb::QosRegisterFile& qos);

  /// Advance the budget-epoch clock.  Call once per bus cycle (both models
  /// do) so budget refills are periodic even when arbitration is idle.
  void tick(sim::Cycle now);

  /// Bulk-replay the epoch clock over skipped idle cycles: exactly the
  /// state tick() would have produced if called for every now in
  /// [from, to).  Only legal over a stretch with no requests and no grants
  /// (refill_budgets() is idempotent across consecutive epochs then).
  void skip_idle(sim::Cycle from, sim::Cycle to);

  /// Note that master `m` raised a request at `now` (updates QoS state).
  void on_request(ahb::MasterId m, sim::Cycle now);

  /// Run one arbitration round.  On a grant, updates budgets, round-robin
  /// state and QoS bookkeeping, and returns the winner with their wait.
  struct Grant {
    ahb::MasterId master = ahb::kNoMaster;
    sim::Cycle waited = 0;
    bool is_wbuf = false;
    /// The winner differs from the previous grant's master (write buffer
    /// included); the first grant of a run is not a handover.
    bool handover = false;
  };
  std::optional<Grant> arbitrate(ArbContext& ctx);

  ahb::MasterId last_grant() const noexcept { return last_grant_; }
  std::uint64_t grants() const noexcept { return grants_; }
  const FilterPipeline& pipeline() const noexcept { return pipeline_; }

  /// Round-robin cursor, grant counter and budget-epoch clock (the filter
  /// pipeline itself is stateless decision logic).
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  const ahb::BusConfig& cfg_;
  ahb::QosRegisterFile& qos_;
  FilterPipeline pipeline_;
  ahb::MasterId last_grant_ = ahb::kNoMaster;
  std::uint64_t grants_ = 0;
  sim::Cycle last_epoch_ = 0;
};

}  // namespace ahbp::tlm
