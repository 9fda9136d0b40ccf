#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ahb/address.hpp"
#include "ahb/qos.hpp"
#include "ahb/types.hpp"
#include "assertions/violation.hpp"
#include "sim/time.hpp"

/// \file bus_checker.hpp
/// AHB+ protocol property checkers.
///
/// Both models publish one `BusCycleView` per bus cycle; the checker suite
/// consumes the stream and records violations.  Because the view format is
/// model-independent, the *same* checkers validate the TLM and the
/// signal-level model — which is precisely how the paper uses assertions
/// when "the bus model is integrated with master models and simulated for
/// performance analysis" (§3.5).

namespace ahbp::chk {

/// Snapshot of the architecturally visible bus state in one cycle.
struct BusCycleView {
  sim::Cycle cycle = 0;

  std::uint32_t request_mask = 0;  ///< HBUSREQx per master (bit per master)
  ahb::MasterId hmaster = ahb::kNoMaster;  ///< address-phase owner

  ahb::Trans htrans = ahb::Trans::kIdle;
  ahb::Addr haddr = 0;
  ahb::Burst hburst = ahb::Burst::kSingle;
  ahb::Size hsize = ahb::Size::kWord;
  ahb::Dir hwrite = ahb::Dir::kRead;

  bool hready = true;
  ahb::Resp hresp = ahb::Resp::kOkay;

  /// Write-buffer occupancy this cycle (AHB+ extension visibility).
  unsigned wbuf_occupancy = 0;
};

/// Configuration the checkers need about the platform.
struct CheckerConfig {
  unsigned masters = 0;            ///< real masters (pseudo-master excluded)
  unsigned write_buffer_depth = 0;  ///< 0 = no write buffer
  /// HWDATA/HRDATA width in bytes; 0 disables the width rule (legacy
  /// checker instantiations that predate the configurable datapath).
  unsigned bus_width_bytes = 0;
};

/// The protocol rule suite.  Rules implemented:
///
///  * `ahb.grant-implies-request` — the address-phase owner must have been
///    requesting when granted (write-buffer pseudo-master exempt).
///  * `ahb.stable-when-stalled` — address/control must hold while HREADY=0.
///  * `ahb.first-is-nonseq` — a burst starts with NONSEQ.
///  * `ahb.seq-addr` — SEQ beats present the successor address of the burst.
///  * `ahb.seq-ctrl` — SEQ beats keep burst/size/dir unchanged.
///  * `ahb.burst-len` — fixed-length bursts transfer exactly their count.
///  * `ahb.align` — HADDR aligned to HSIZE.
///  * `ahb.1kb` — INCR bursts never cross a 1KB boundary.
///  * `ahb.hsize-width` — HSIZE never exceeds the configured bus width.
///  * `ahbp.wbuf-depth` — write-buffer occupancy within its configured depth.
class BusChecker {
 public:
  BusChecker(CheckerConfig cfg, ViolationLog& log);

  /// Feed the view of one completed cycle.  Views must arrive in cycle
  /// order (but gaps are allowed if a model skips idle cycles).
  void on_cycle(const BusCycleView& v);

  /// Bulk-feed the idle cycles [from, to): exactly the state on_cycle()
  /// would produce given a default (idle) view per cycle.  Only legal when
  /// the model proved the bus inert over the stretch (no requests, no
  /// address phase, empty write buffer).
  void skip_idle(sim::Cycle from, sim::Cycle to);

  std::uint64_t cycles_checked() const noexcept { return cycles_; }

  /// The checker carries cross-cycle protocol state (previous view, burst
  /// follower, pending-request set) — it must snapshot with the platform or
  /// a resumed run would re-flag / miss rules at the boundary.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  void check_grant(const BusCycleView& v);
  void check_stability(const BusCycleView& v);
  void check_burst(const BusCycleView& v);
  void check_alignment(const BusCycleView& v);
  void check_width(const BusCycleView& v);
  void check_wbuf(const BusCycleView& v);

  CheckerConfig cfg_;
  ViolationLog& log_;
  std::uint64_t cycles_ = 0;

  std::optional<BusCycleView> prev_;
  /// Requests observed in the previous cycle (grants derive from these).
  std::uint32_t prev_requests_ = 0;
  /// Set of masters that requested at any point since their last grant —
  /// grant may lag request by many cycles.
  std::uint32_t pending_requests_ = 0;

  // Burst tracking state.
  bool in_burst_ = false;
  ahb::BurstSequencer seq_;
  ahb::Burst burst_kind_ = ahb::Burst::kSingle;
  ahb::Size burst_size_ = ahb::Size::kWord;
  ahb::Dir burst_dir_ = ahb::Dir::kRead;
  unsigned beats_seen_ = 0;
};

/// QoS property checker (the "performance analysis" assertions): records a
/// warning whenever a real-time master's request-to-grant wait exceeds its
/// programmed objective.  Fed by the arbiter of either model.
class QosChecker {
 public:
  QosChecker(const ahb::QosRegisterFile& regs, ViolationLog& log)
      : regs_(regs), log_(log) {}

  /// Report a completed grant: master `m` waited `waited` cycles.
  void on_grant(ahb::MasterId m, sim::Cycle waited, sim::Cycle now);

  std::uint64_t misses() const noexcept { return misses_; }

  void save_state(state::StateWriter& w) const { w.put_u64(misses_); }
  void restore_state(state::StateReader& r) { misses_ = r.get_u64(); }

 private:
  const ahb::QosRegisterFile& regs_;
  ViolationLog& log_;
  std::uint64_t misses_ = 0;
};

}  // namespace ahbp::chk
