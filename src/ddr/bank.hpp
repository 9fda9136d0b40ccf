#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "ddr/commands.hpp"
#include "ddr/geometry.hpp"
#include "ddr/timing.hpp"
#include "sim/time.hpp"
#include "state/snapshot.hpp"

/// \file bank.hpp
/// Per-bank DDR state machine and the rank-level BankEngine.
///
/// This is the paper's §3.3: "each bank has a state machine separately" and
/// the FSM is modeled "as accurate as register transfer level".  The engine
/// is *shared semantics*: the transaction-level DDRC and the signal-level
/// DDRC both drive this exact engine, so any cycle difference between the
/// two models is caused by bus-side abstraction, never by divergent DRAM
/// rules.
///
/// All checks use absolute cycle arithmetic ("command legal at cycle t?")
/// rather than counters, which makes the rules directly testable.

namespace ahbp::ddr {

/// Externally visible bank state.
enum class BankState : std::uint8_t {
  kIdle = 0,        ///< no row open
  kActivating = 1,  ///< row opening, tRCD not yet elapsed
  kActive = 2,      ///< row open, column accesses legal
  kPrecharging = 3, ///< closing, tRP not yet elapsed
};

/// One bank's FSM with its timing guards.
class Bank {
 public:
  explicit Bank(const DdrTiming& t) : t_(&t) {}

  BankState state(sim::Cycle now) const noexcept {
    if (row_open_) {
      return now < column_ready_ ? BankState::kActivating : BankState::kActive;
    }
    return now < idle_at_ ? BankState::kPrecharging : BankState::kIdle;
  }
  /// Row currently open (valid when state is kActivating/kActive).
  std::uint32_t open_row() const noexcept { return open_row_; }

  bool can_activate(sim::Cycle now) const noexcept;
  bool can_column(sim::Cycle now, std::uint32_t row) const noexcept;
  bool can_precharge(sim::Cycle now) const noexcept;

  /// Earliest cycle a column access to `row` could issue, assuming the
  /// needed precharge/activate commands issue as early as possible and
  /// ignoring rank-level constraints.  Used by the BI bank-readiness logic.
  sim::Cycle earliest_column(sim::Cycle now, std::uint32_t row) const noexcept;

  void activate(sim::Cycle now, std::uint32_t row) noexcept;
  /// Record a column access; `last_beat_at` is the cycle of the final data
  /// beat (the engine computes it from tCL/tWL and the beat count).
  void column(sim::Cycle now, bool is_write, sim::Cycle last_beat_at) noexcept;
  void precharge(sim::Cycle now) noexcept;

  /// Rank-level refresh forces all banks idle; the engine calls this after
  /// verifying every bank is idle.
  void refresh(sim::Cycle now, sim::Cycle trfc) noexcept;

  /// FSM registers only — the timing table is configuration.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  const DdrTiming* t_;
  bool row_open_ = false;       ///< activate issued, not yet precharged
  std::uint32_t open_row_ = 0;
  sim::Cycle activated_at_ = 0;     ///< cycle of last ACTIVATE
  sim::Cycle activate_ready_ = 0;   ///< earliest next ACTIVATE (tRC/tRP/tRFC)
  sim::Cycle column_ready_ = 0;     ///< earliest next column cmd (tRCD)
  sim::Cycle precharge_ready_ = 0;  ///< earliest next PRECHARGE (tRAS/tWR/burst)
  sim::Cycle idle_at_ = 0;          ///< when a pending precharge completes
  bool ever_activated_ = false;
};

/// Rank-level engine: the banks plus the shared command/data bus rules
/// (tRRD, tCCD, single command per cycle, non-overlapping data bursts) and
/// refresh bookkeeping.
class BankEngine {
 public:
  BankEngine(const DdrTiming& timing, const Geometry& geom);

  const DdrTiming& timing() const noexcept { return timing_; }
  const Geometry& geometry() const noexcept { return geom_; }
  std::uint32_t banks() const noexcept { return geom_.banks; }

  /// True if `cmd` may issue at cycle `now` under every bank and rank rule.
  bool can_issue(const Command& cmd, sim::Cycle now) const noexcept;

  /// Issue the command (caller must have checked can_issue).  For column
  /// commands returns the cycle of the *first* data beat; otherwise 0.
  sim::Cycle issue(const Command& cmd, sim::Cycle now);

  /// At most one command per cycle: true if the command bus is free at now.
  bool command_slot_free(sim::Cycle now) const noexcept {
    return last_cmd_at_ != now || !any_cmd_issued_;
  }

  // --- queries used by the controller and the BI ---

  /// Bank `b`'s FSM (throws std::out_of_range past banks()): one lookup
  /// for a caller that queries several of its registers.
  const Bank& bank(std::uint32_t b) const {
    if (b >= banks_.size()) {
      throw std::out_of_range("BankEngine: bank index");
    }
    return banks_[b];
  }

  BankState bank_state(std::uint32_t b, sim::Cycle now) const {
    return bank(b).state(now);
  }
  std::uint32_t open_row(std::uint32_t b) const { return bank(b).open_row(); }

  /// Bitmap of banks whose state is kIdle (used for the BI "idle bank"
  /// information the paper describes).
  std::uint32_t idle_bank_mask(sim::Cycle now) const;

  /// Earliest cycle the engine estimates a column access to `c` could
  /// issue (bank-local estimate; rank contention not included).
  sim::Cycle earliest_column(const Coord& c, sim::Cycle now) const;

  /// Refresh is due when tREFI has elapsed since the last refresh.
  bool refresh_due(sim::Cycle now) const noexcept;
  /// The cycle at which refresh_due() first becomes true (kNeverCycle when
  /// refresh is disabled).  Lower bound for idle-skip planning: an idle
  /// engine stays inert strictly before this cycle.
  sim::Cycle next_refresh_due() const noexcept {
    return timing_.tREFI == 0 ? sim::kNeverCycle
                              : last_refresh_ + timing_.tREFI;
  }
  /// True when a refresh could issue at `now` (all banks idle, bus free).
  bool can_refresh(sim::Cycle now) const noexcept;
  /// True while a refresh's tRFC window is in progress.
  bool in_refresh(sim::Cycle now) const noexcept {
    return now < refresh_busy_until_;
  }

  /// Data-bus occupancy: cycle after which the shared data bus is free.
  sim::Cycle data_bus_free_at() const noexcept { return data_free_at_; }

  // --- statistics (consumed by stats::DdrProfile) ---
  struct Counters {
    std::uint64_t activates = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t read_beats = 0;
    std::uint64_t write_beats = 0;
  };
  const Counters& counters() const noexcept { return counters_; }

  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  Bank& bank(std::uint32_t b);

  DdrTiming timing_;
  Geometry geom_;
  std::vector<Bank> banks_;
  sim::Cycle last_activate_any_ = 0;  ///< tRRD guard
  bool any_activate_ = false;
  sim::Cycle last_column_any_ = 0;    ///< tCCD guard
  bool any_column_ = false;
  sim::Cycle data_free_at_ = 0;       ///< shared data bus busy-until (exclusive)
  sim::Cycle last_cmd_at_ = 0;        ///< single command bus guard
  bool any_cmd_issued_ = false;
  sim::Cycle last_refresh_ = 0;
  sim::Cycle refresh_busy_until_ = 0;
  Counters counters_;
};

}  // namespace ahbp::ddr
