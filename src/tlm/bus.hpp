#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "ahb/address.hpp"
#include "ahb/config.hpp"
#include "ahb/qos.hpp"
#include "ahb/transaction.hpp"
#include "assertions/bus_checker.hpp"
#include "ddr/channels.hpp"
#include "state/snapshot.hpp"
#include "stats/profiles.hpp"
#include "tlm/arbiter.hpp"
#include "tlm/write_buffer.hpp"

/// \file bus.hpp
/// The AHB+ main bus at transaction level — the paper's primary artifact.
///
/// Method-based modeling (§4): masters interact exclusively through the
/// transaction-level port calls below (`request`, `poll_grant`,
/// `poll_done`), which correspond to the paper's §3.2 mapping
/// (HBUSREQ -> request(), HGRANT -> CheckGrant(), the transfer itself ->
/// Read()/Write() returning OK).  The bus calls the DDR controller
/// (ddr::ChannelSet) directly, the same way.  The platform steps each cycle
/// by hand: every master's evaluate() first, then the bus's, so a cycle
/// sees masters act on last cycle's bus state, then the bus advances one
/// cycle.
///
/// ## Cycle pipeline inside evaluate(now)
///
///  1. begin: a granted transaction starts its address phase kGrantToStart
///     cycles after its grant (the RTL design's registered HGRANT);
///  2. BI hint: the pending grant's target goes down to the DDRC (§3.4);
///  3. DDRC step (one DRAM command per channel);
///  4. one data beat moves (read or write) when the DDRC allows;
///  5. completion and master notification;
///  6. arbitration, unless the DDRC withholds access permission (request
///     pipelining: the next grant is computed while the tail of the current
///     transfer still streams, §2);
///  7. write-buffer absorption of writes that lost arbitration (§3.3);
///  8. profiling sample + protocol-checker view (§3.5, §3.6).

namespace ahbp::tlm {

/// TLM timing calibration (§3.4 "we defined the timings of each transaction
/// function"): cycles between the grant decision and the first address
/// phase, modeling the registered HGRANT + HMASTER mux handover + NONSEQ
/// launch of the pin-level fabric.
inline constexpr sim::Cycle kGrantToStart = 3;

/// Result of a master's grant poll.
enum class GrantPoll : std::uint8_t {
  kWait,     ///< keep requesting
  kGranted,  ///< bus owned; transfer in progress
  kBuffered, ///< write absorbed by the write buffer; transaction complete
};

class AhbPlusBus final : public state::Snapshottable {
 public:
  /// `dram` serves the aperture starting at bus address `ddr_base`.
  /// `checker_log` may be null (checkers off, e.g. inside speed benches).
  AhbPlusBus(const ahb::BusConfig& cfg, ahb::QosRegisterFile& qos,
             ddr::ChannelSet& dram, ahb::Addr ddr_base, unsigned masters,
             chk::ViolationLog* checker_log);

  // ------------------------------------------------ master port (§3.2)

  /// Raise HBUSREQ with the AHB+ request sideband (the full descriptor —
  /// this is what enables request pipelining and the BI hint).
  void request(ahb::MasterId m, const ahb::Transaction& txn, sim::Cycle now);

  /// CheckGrant()/write-buffer status poll.
  GrantPoll poll_grant(ahb::MasterId m) const;

  /// Completion poll; fills `out` (with read data and timestamps) once.
  bool poll_done(ahb::MasterId m, ahb::Transaction& out);

  /// Advance the bus one cycle (the pipeline above).
  void evaluate(sim::Cycle now);

  // ------------------------------------------------------------- stats

  const stats::BusProfile& bus_profile() const noexcept { return bus_profile_; }
  const WriteBuffer& write_buffer() const noexcept { return wbuf_; }
  const std::vector<stats::MasterProfile>& master_profiles() const noexcept {
    return master_profiles_;
  }
  const Arbiter& arbiter() const noexcept { return arbiter_; }

  /// Attach a timeline under process `pid`: creates one track per master
  /// plus bus-owner and write-buffer tracks.  Observation only — attaching
  /// never changes simulated behaviour.
  void set_timeline(obs::Timeline& tl, unsigned pid);

  /// All scripted work retired and nothing in flight anywhere.
  bool quiescent() const noexcept;

  // --------------------------------------------------------- idle leap

  /// Lower bound on the bus's next "interesting" cycle: evaluate(t) is
  /// state-equivalent to the bulk replay skip_idle() performs for every t
  /// in [now, idle_until(now)).  Returns `now` (no skip) unless every
  /// master slot is idle, nothing is in flight or granted, the write
  /// buffer is empty and the DDRC is provably idle; otherwise the DDRC's
  /// own bound (its next refresh deadline, or kNeverCycle).
  sim::Cycle idle_until(sim::Cycle now) const noexcept;

  /// Bulk-replay evaluate() over the provably idle cycles [from, to):
  /// epoch-clock catch-up, per-master think-stall attribution, profile and
  /// write-buffer occupancy samples, checker views.  Pre:
  /// idle_until(from) >= to.
  void skip_idle(sim::Cycle from, sim::Cycle to);

  // ---------------------------------------------------------- snapshot
  // Covers slots, the in-flight transfer, the latched grant, lock owner,
  // arbiter/write-buffer/checker state and every profile counter.  The DDRC
  // and QoS register file snapshot with their own owners.
  void save_state(state::StateWriter& w) const override;
  void restore_state(state::StateReader& r) override;

 private:
  struct Slot {
    enum class St : std::uint8_t { kIdle, kRequested, kBuffered, kOwner, kDone };
    St st = St::kIdle;
    ahb::Transaction txn;
    /// kBuffered: cycle the buffer finishes streaming the write data in
    /// (one beat per cycle, off the bus); the master completes then.
    sim::Cycle buffered_done_at = 0;
  };

  struct Inflight {
    ahb::MasterId owner = ahb::kNoMaster;  ///< == masters_ for wbuf drain
    ahb::Transaction txn;
    unsigned beat = 0;           ///< beats completed on the bus
    sim::Cycle addr_cycle = 0;   ///< cycle of the NONSEQ address phase
    bool from_wbuf = false;
  };

  void do_begin(sim::Cycle now);
  bool move_data_beat(sim::Cycle now);
  void do_completion(sim::Cycle now);
  void do_arbitration(sim::Cycle now);
  /// BI coordinates of bus address `addr`, decoded once per address
  /// through `memo`.
  const ddr::ChannelCoord& decode(ddr::CoordMemo& memo, ahb::Addr addr);
  void do_absorption(sim::Cycle now);
  void emit_view(sim::Cycle now, chk::BusCycleView view);
  /// Charge this cycle to one stall class per master (always on — reads
  /// component state only, so it cannot perturb the simulation).
  void account_stalls(sim::Cycle now);

  ahb::BusConfig cfg_;
  ahb::QosRegisterFile& qos_;
  ddr::ChannelSet& dram_;
  ahb::Addr ddr_base_;
  unsigned masters_;
  Arbiter arbiter_;
  WriteBuffer wbuf_;

  std::vector<Slot> slots_;
  /// In-flight transfer; valid only while inflight_active_.  A plain
  /// member (not optional) so the transaction's beat buffer keeps its
  /// capacity across transfers — the steady-state hot path re-begins
  /// without touching the heap.
  Inflight inflight_;
  bool inflight_active_ = false;
  /// Grant latched for begin in a later cycle (registered-HGRANT model).
  std::optional<ahb::MasterId> granted_;
  sim::Cycle granted_cycle_ = 0;
  ahb::MasterId lock_owner_ = ahb::kNoMaster;

  stats::BusProfile bus_profile_;
  std::vector<stats::MasterProfile> master_profiles_;
  std::optional<chk::BusChecker> checker_;
  std::optional<chk::QosChecker> qos_checker_;

  /// Timeline wiring (null when recording is off; never snapshotted).
  obs::Timeline* tl_ = nullptr;
  unsigned tl_bus_track_ = 0;
  unsigned tl_wbuf_track_ = 0;
  unsigned tl_last_occ_ = ~0U;  ///< last emitted wbuf occupancy sample
  /// Scratch arbitration context reused every round, so arbitration never
  /// touches the heap.  The TLM is not allocation-free: per-transaction
  /// copies (script pops, write-buffer entries) allocate, so allocations
  /// scale with transactions, never with cycles (test_alloc pins this).
  ArbContext ctx_;
  ddr::CoordMemo hint_;  ///< the granted transaction's BI hint
  /// Per candidate (masters, then the write buffer): its target address.
  std::vector<ddr::CoordMemo> target_;
};

}  // namespace ahbp::tlm
