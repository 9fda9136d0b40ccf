#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ddr/interleave.hpp"
#include "ddr/scheduler.hpp"

namespace ahbp::obs {
class Timeline;
}

/// \file channels.hpp
/// The sharded DDR subsystem: N independent DDRC channels behind the
/// address-interleave decoder.
///
/// The paper's accuracy claim rests on both models sharing the controller
/// FSM (ddr::DdrcEngine).  Scaling the memory side to N channels keeps the
/// same discipline one level up: the channel composition below — how a bus
/// transaction is split into channel-local segments, how segments hand
/// over, how per-channel bank state aggregates onto the BI — lives here
/// and is consumed by *both* the transaction-level and the signal-level
/// DDRC wrappers.  What differs between the models remains only the AHB
/// side (method calls vs. pin wiggling), so TLM-vs-RTL equivalence holds
/// at every channel count by construction.
///
/// With `channels == 1` every call is a verbatim pass-through to the single
/// engine: the pre-sharding platform is reproduced bit-exactly.

namespace ahbp::ddr {

/// Resolved configuration of one channel.
struct ChannelConfig {
  DdrTiming timing;
  Geometry geom;
};

/// Per-channel scenario overrides (`[channel K]` / `channelK.*` keys).
/// Every field is optional; unset fields fall back to the shared `[ddr]`
/// timing/geometry.
struct ChannelOverride {
  std::optional<sim::Cycle> tRCD, tRP, tRAS, tRC, tRRD, tCL, tWL, tWR, tCCD,
      tRFC, tREFI;
  std::optional<std::uint32_t> banks, rows, cols, col_bytes;
  std::optional<Mapping> mapping;

  bool operator==(const ChannelOverride&) const = default;

  /// True when at least one field is set (serialization emits the section).
  bool any() const noexcept;

  /// Layer the set fields over a shared base.
  void apply(DdrTiming& t, Geometry& g) const;
};

/// One row per DDR timing knob: the scenario key name and the matching
/// members of the shared DdrTiming and the per-channel ChannelOverride.
/// `[ddr]` parsing, `[channel K]` parsing, serialization and override
/// resolution all iterate this table, so the key sets cannot drift apart
/// (geometry keys carry heterogeneous types/bounds and stay explicit).
struct TimingField {
  const char* key;
  sim::Cycle DdrTiming::*shared;
  std::optional<sim::Cycle> ChannelOverride::*opt;
};

inline constexpr TimingField kTimingFields[] = {
    {"tRCD", &DdrTiming::tRCD, &ChannelOverride::tRCD},
    {"tRP", &DdrTiming::tRP, &ChannelOverride::tRP},
    {"tRAS", &DdrTiming::tRAS, &ChannelOverride::tRAS},
    {"tRC", &DdrTiming::tRC, &ChannelOverride::tRC},
    {"tRRD", &DdrTiming::tRRD, &ChannelOverride::tRRD},
    {"tCL", &DdrTiming::tCL, &ChannelOverride::tCL},
    {"tWL", &DdrTiming::tWL, &ChannelOverride::tWL},
    {"tWR", &DdrTiming::tWR, &ChannelOverride::tWR},
    {"tCCD", &DdrTiming::tCCD, &ChannelOverride::tCCD},
    {"tRFC", &DdrTiming::tRFC, &ChannelOverride::tRFC},
    {"tREFI", &DdrTiming::tREFI, &ChannelOverride::tREFI},
};

/// Expand shared timing/geometry + per-channel overrides into one resolved
/// configuration per channel.  `overrides` may be shorter than the channel
/// count (missing tails inherit the shared base untouched).
std::vector<ChannelConfig> resolve_channels(
    const DdrTiming& shared_timing, const Geometry& shared_geom,
    const Interleave& ilv, const std::vector<ChannelOverride>& overrides);

/// Bank-wire packing of a channel list: element k is the first BI bank
/// index of channel k, the extra last element the total bank count.  The
/// one definition of the layout shared by the channel set, the RTL BI
/// slices and the arbiter's wire lookups.
std::vector<std::uint32_t> bank_bases(const std::vector<ChannelConfig>& cfgs);

/// Decode-once memo for a BI coordinate.  An announced or requested
/// address stays put for many cycles, so it is decoded when it changes,
/// not on every cycle or arbitration round that reads it.  A cache, not
/// model state: a restored platform starts with an empty memo.
class CoordMemo {
 public:
  /// Coordinates of aperture offset `offset`; `decode(offset)` runs only
  /// when `offset` differs from the previous call's.
  template <typename Decode>
  const ChannelCoord& of(ahb::Addr offset, Decode&& decode) {
    if (!valid_ || offset != offset_) {
      coord_ = decode(offset);
      offset_ = offset;
      valid_ = true;
    }
    return coord_;
  }

 private:
  bool valid_ = false;
  ahb::Addr offset_ = 0;
  ChannelCoord coord_;
};

/// N independent DdrcEngine channels behind an Interleave, presenting the
/// single-engine cycle protocol to the AHB-side wrappers: one bus
/// transaction at a time, `step()` once per cycle, beat polls in between.
///
/// A transaction whose beats stripe across channels is decomposed into
/// channel-local *segments* (maximal runs of consecutive local addresses
/// on one channel).  Segments begin on their channels as soon as the
/// owning engine is free — channels genuinely overlap: a later segment's
/// activate/CAS work proceeds while the bus still streams an earlier
/// segment's beats — but the bus-facing beat stream consumes segments
/// strictly in order, preserving AHB beat ordering.
class ChannelSet {
 public:
  /// One resolved configuration per channel; `cfgs.size()` must equal
  /// `ilv.channels` and `ilv.valid()` must hold.
  ChannelSet(const std::vector<ChannelConfig>& cfgs, const Interleave& ilv);

  ChannelSet(const ChannelSet&) = delete;
  ChannelSet& operator=(const ChannelSet&) = delete;

  // ------------------------------------------------- transaction control

  bool busy() const noexcept;

  /// Begin servicing a request (addresses are aperture offsets).
  /// Pre: !busy().
  void begin(const MemRequest& req, sim::Cycle now);

  /// True when every beat has transferred on the bus side (background
  /// write drains may still run per channel).
  bool done() const noexcept;

  /// Drop the completed transaction (pre: done()).
  void finish();

  /// Bus-side beats still to transfer (0 when idle).
  unsigned remaining_beats() const noexcept;

  // ------------------------------------------------------ per-cycle step

  /// Step every channel once (each has its own command bus, so up to one
  /// DRAM command per channel per cycle).  Returns the command issued by
  /// the channel serving the bus-facing segment (kNop when none) so
  /// wrappers/tracers keep a single-command view of the live transfer.
  Command step(sim::Cycle now);

  /// Lower bound on the set's next "interesting" cycle: step(t) is
  /// guaranteed state-preserving for every t in [now, idle_until(now)).
  /// Returns `now` when any transaction/drain/hint is live; otherwise the
  /// earliest per-engine refresh deadline (kNeverCycle if refresh is off).
  sim::Cycle idle_until(sim::Cycle now) const noexcept;

  // ------------------------------------------------------- beat streams

  bool read_beat_available(sim::Cycle now) const noexcept;
  ahb::Word take_read_beat(sim::Cycle now);
  bool write_beat_ready(sim::Cycle now) const noexcept;
  void put_write_beat(sim::Cycle now, ahb::Word w);

  // --------------------------------------------------------------- hints

  /// BI next-transaction hint, routed to the owning channel (the others
  /// have their hints cleared).  std::nullopt clears every channel.
  void set_hint(std::optional<ChannelCoord> hint) {
    for (std::uint32_t ch = 0; ch < channels(); ++ch) {
      engines_[ch]->set_hint(hint && hint->channel == ch
                                 ? std::optional<Coord>(hint->coord)
                                 : std::nullopt);
    }
  }

  /// Decode an aperture offset for BI hint plumbing.
  ChannelCoord coord_of(ahb::Addr offset) const {
    const std::uint32_t ch = ilv_.channel_of(offset);
    return ChannelCoord{ch,
                        engines_[ch]->geometry().decode(ilv_.local_of(offset))};
  }

  // ----------------------------------------------------------- BI upstream

  /// Aggregate idle-bank bitmap: channel k's banks occupy bits
  /// [bank_base(k), bank_base(k) + banks_k).  Banks beyond bit 31 are
  /// dropped (the field is informational — admission decisions use
  /// affinity_for / access_permitted).
  std::uint32_t idle_bank_mask(sim::Cycle now) const;

  /// Access permission: false while *any* channel must win a refresh.
  bool access_permitted(sim::Cycle now) const noexcept;

  /// Affinity of the bank at decoded coordinates `c` (see coord_of).
  BankAffinity affinity_for(const ChannelCoord& c, sim::Cycle now) const {
    return engines_[c.channel]->affinity_for(c.coord, now);
  }

  // ---------------------------------------------------------- inspection

  std::uint32_t channels() const noexcept {
    return static_cast<std::uint32_t>(engines_.size());
  }
  const Interleave& interleave() const noexcept { return ilv_; }
  DdrcEngine& engine(std::uint32_t ch) { return *engines_[ch]; }
  const DdrcEngine& engine(std::uint32_t ch) const { return *engines_[ch]; }

  /// First BI bank-wire index of channel `ch` (channels with differing
  /// bank counts pack densely).
  std::uint32_t bank_base(std::uint32_t ch) const noexcept {
    return bank_base_[ch];
  }

  /// Outstanding background write chunks across every channel.
  std::size_t pending_write_chunks() const noexcept;

  /// Aggregate DRAM command counters across channels (profiling).
  BankEngine::Counters command_counters() const noexcept;

  /// Aggregate row-buffer locality counters across channels (profiling).
  DdrcEngine::HitStats hit_stats() const noexcept;

  /// Attach a timeline under process `pid`: one command track per channel
  /// plus one row-open-span track per bank.  Pass nullptr to detach.
  /// Observation only; shared by both models' DDRC wrappers.
  void set_timeline(obs::Timeline* tl, unsigned pid);

  /// Snapshot every channel engine plus the segment decomposition of the
  /// transaction currently striping across channels.
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  /// One channel-local slice of the current transaction.
  struct Segment {
    std::uint32_t channel = 0;
    MemRequest req;  ///< channel-local sub-request
    bool begun = false;
  };

  void split(const MemRequest& req);
  /// Finish drained segments, begin every segment whose channel is free.
  void advance(sim::Cycle now);
  /// Timeline emission for one channel's command this cycle.
  void emit_command(std::uint32_t ch, const Command& c, sim::Cycle now);

  std::vector<std::unique_ptr<DdrcEngine>> engines_;
  Interleave ilv_;
  std::vector<std::uint32_t> bank_base_;  ///< size channels + 1

  bool txn_active_ = false;
  std::vector<Segment> segments_;
  std::size_t active_ = 0;  ///< bus-facing segment index
  std::vector<ahb::Addr> split_scratch_;  ///< per-beat addresses (reused)

  /// Timeline wiring (null when recording is off; never snapshotted).
  obs::Timeline* tl_ = nullptr;
  std::vector<unsigned> tl_ch_track_;    ///< per channel
  std::vector<unsigned> tl_bank_track_;  ///< per flattened bank index
};

}  // namespace ahbp::ddr
