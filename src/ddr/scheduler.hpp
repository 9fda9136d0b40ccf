#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ahb/types.hpp"
#include "ddr/bank.hpp"
#include "ddr/commands.hpp"
#include "ddr/geometry.hpp"
#include "ddr/storage.hpp"
#include "ddr/timing.hpp"
#include "sim/time.hpp"

/// \file scheduler.hpp
/// DdrcEngine — the complete behavioural model of the AHB+ DDR controller.
///
/// The engine is instantiated by *both* the transaction-level DDRC and the
/// signal-level DDRC: the paper models the controller FSM "as accurate as
/// register transfer level" in the TLM (§3.3), which we realize by sharing
/// one cycle-stepped engine.  What differs between the two models is only
/// how the AHB side talks to it (method calls vs. pin wiggling).
///
/// ## Cycle protocol (both wrappers follow it exactly)
///
///  * once per cycle call `step(now)` — the engine issues at most one DRAM
///    command, chosen by the priority scheme of §3.3 (column > row >
///    precharge, current transaction before speculative hint work).
///  * reads: poll `read_beat_available(now)`, then `take_read_beat(now)`.
///    One beat per cycle; availability honours tCL and the data bus.
///  * writes: poll `write_beat_ready(now)`, then `put_write_beat(now, w)`.
///    Writes are *posted*: the bus side completes when all beats are
///    accepted; DRAM write commands drain in the background and keep the
///    banks busy (subsequent transactions feel the contention — this is
///    where the write-related traffic patterns of Table 1 get their shape).
///  * the BI hint: `set_hint()` passes the arbiter's next-transaction
///    information so the engine can pre-charge / pre-activate the hinted
///    bank while the current transaction streams (§2 "bank interleaving").

namespace ahbp::ddr {

/// Bus-side request handed to the engine (a flattened ahb::Transaction —
/// the engine does not depend on the bus layer).
struct MemRequest {
  bool is_write = false;
  ahb::Addr addr = 0;       ///< byte offset inside the DDR region
  unsigned beat_bytes = 4;  ///< bytes per beat (1..8)
  unsigned beats = 1;
  ahb::Burst burst = ahb::Burst::kSingle;
};

/// How friendly a bank currently is to a coordinate (used by the BI /
/// arbiter bank filter).  Higher is better.
enum class BankAffinity : std::uint8_t {
  kConflict = 0,  ///< different row open, or bank mid-transition
  kIdle = 1,      ///< bank closed: one activate away
  kOpenRow = 2,   ///< matching row already open: column-ready
};

/// Shared affinity rule (also evaluated from BI signals in the RTL model).
BankAffinity bank_affinity(BankState state, std::uint32_t open_row,
                           const Coord& want) noexcept;

/// Snapshot helpers for the flattened request (used by the engine's own
/// state and by ChannelSet's segment decomposition).
void save_state(state::StateWriter& w, const MemRequest& m);
void restore_state(state::StateReader& r, MemRequest& m);

class DdrcEngine {
 public:
  DdrcEngine(const DdrTiming& timing, const Geometry& geom);

  // Not copyable: identity object with internal queues.
  DdrcEngine(const DdrcEngine&) = delete;
  DdrcEngine& operator=(const DdrcEngine&) = delete;

  // ------------------------------------------------- transaction control

  /// True if a bus transaction is currently being serviced.
  bool busy() const noexcept { return cur_active_; }

  /// Begin servicing a request.  Pre: !busy().  `now` is the cycle the
  /// transaction's first address phase is presented to the controller.
  void begin(const MemRequest& req, sim::Cycle now);

  /// True when the current transaction has transferred every beat on the
  /// bus side (for writes the background drain may still be running).
  bool done() const noexcept;

  /// Bus-side beats still to transfer for the current transaction
  /// (0 when idle).  Exposed over the BI so the arbiter can pipeline the
  /// next request into the tail of the current transfer.
  unsigned remaining_beats() const noexcept {
    if (!cur_active_) {
      return 0;
    }
    const CurrentTxn& t = cur_;
    return t.req.beats - (t.req.is_write ? t.beats_accepted : t.beats_consumed);
  }

  /// Drop the completed transaction (pre: done()).
  void finish();

  // ------------------------------------------------------ per-cycle step

  /// Issue at most one DRAM command for this cycle.  Must be called once
  /// per cycle, before the data-beat polls for the same cycle.  Returns the
  /// issued command (kNop if none) so wrappers/tracers can observe it.
  Command step(sim::Cycle now);

  /// Lower bound on the engine's next "interesting" cycle: step(t) is
  /// guaranteed to be a state-preserving no-op for every t in
  /// [now, idle_until(now)).  Returns `now` when anything is in flight
  /// (no skip), kNeverCycle when the engine is idle and refresh disabled.
  sim::Cycle idle_until(sim::Cycle now) const noexcept {
    if (cur_active_ || !write_queue_.empty() || hint_.has_value()) {
      return now;
    }
    const sim::Cycle due = engine_.next_refresh_due();
    return due < now ? now : due;
  }

  // -------------------------------------------------------- read stream

  bool read_beat_available(sim::Cycle now) const noexcept;
  /// Consume the current read beat (pre: read_beat_available(now)).
  ahb::Word take_read_beat(sim::Cycle now);

  // -------------------------------------------------------- write stream

  bool write_beat_ready(sim::Cycle now) const noexcept;
  /// Accept one write beat (pre: write_beat_ready(now)).
  void put_write_beat(sim::Cycle now, ahb::Word w);

  // --------------------------------------------------------------- hints

  /// BI next-transaction information (arbiter -> DDRC).  Pass std::nullopt
  /// to clear.  The engine only acts on hints for banks the current
  /// transaction (and pending write drain) does not need.
  void set_hint(std::optional<Coord> hint) { hint_ = hint; }

  /// BI information DDRC -> arbiter: per-bank idle bitmap.
  std::uint32_t idle_bank_mask(sim::Cycle now) const {
    return engine_.idle_bank_mask(now);
  }

  /// BI access permission: false while a refresh is pending/active, during
  /// which the arbiter should hold off granting new DDR transactions.
  bool access_permitted(sim::Cycle now) const noexcept;

  /// Affinity of the bank at decoded coordinates `c` (BI -> arbiter,
  /// evaluated on behalf of a requesting master).
  BankAffinity affinity_for(const Coord& c, sim::Cycle now) const {
    const Bank& bank = engine_.bank(c.bank);
    return bank_affinity(bank.state(now), bank.open_row(), c);
  }

  // ---------------------------------------------------------- inspection

  const BankEngine& banks() const noexcept { return engine_; }
  const Geometry& geometry() const noexcept { return geom_; }
  SparseMemory& memory() noexcept { return mem_; }
  const SparseMemory& memory() const noexcept { return mem_; }

  /// Outstanding background write chunks (for tests and the drain logic).
  std::size_t pending_write_chunks() const noexcept { return write_queue_.size(); }

  /// Row-buffer locality counters for profiling.
  struct HitStats {
    std::uint64_t row_hits = 0;      ///< column issued to an already-open row
    std::uint64_t row_misses = 0;    ///< activate needed on an idle bank
    std::uint64_t row_conflicts = 0; ///< precharge of a different row needed
    std::uint64_t hint_activates = 0;///< speculative activates from BI hints
    std::uint64_t hint_precharges = 0;
  };
  const HitStats& hit_stats() const noexcept { return hits_; }

  /// Snapshot the full controller FSM: current transaction (decomposed
  /// chunks, beat readiness), posted-write queue, BI hint, locality
  /// counters, the bank engine and the storage deltas.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  /// A run of consecutive-column beats within one (bank, row).
  struct Chunk {
    Coord start;           ///< coordinates of the first beat
    unsigned beats = 0;
    unsigned issued = 0;   ///< beats covered by issued column commands
    bool classified = false;  ///< row hit/miss/conflict counted yet
  };

  struct CurrentTxn {
    MemRequest req;
    std::vector<ahb::Addr> beat_addr;   ///< byte address of every beat
    std::vector<Chunk> chunks;          ///< read: in order; write: staging
    std::size_t active_chunk = 0;
    // read-side
    std::vector<sim::Cycle> beat_ready; ///< cycle each beat's data is on the bus
    unsigned beats_issued = 0;          ///< beats covered by column cmds
    unsigned beats_consumed = 0;
    sim::Cycle last_consume = 0;
    // write-side
    unsigned beats_accepted = 0;
  };

  /// Background (posted) write work: one column command's worth.
  struct WriteChunk {
    Coord start;
    unsigned beats = 0;
  };

  void decompose(CurrentTxn& txn) const;
  Command pick_command(sim::Cycle now);
  std::optional<Command> column_for_read(sim::Cycle now);
  std::optional<Command> column_for_write_drain(sim::Cycle now) const;
  std::optional<Command> row_or_pre_for(const Coord& c, sim::Cycle now);
  std::optional<Command> hint_work(sim::Cycle now);
  bool bank_needed_soon(std::uint32_t bank) const;

  DdrTiming timing_;
  Geometry geom_;
  BankEngine engine_;
  SparseMemory mem_;

  /// The in-flight transaction lives in a persistent member (flag, not
  /// optional) so its beat/chunk vectors keep their capacity across
  /// transactions — the steady-state begin/finish cycle never allocates.
  CurrentTxn cur_;
  bool cur_active_ = false;
  std::deque<WriteChunk> write_queue_;
  std::optional<Coord> hint_;
  HitStats hits_;
};

}  // namespace ahbp::ddr
