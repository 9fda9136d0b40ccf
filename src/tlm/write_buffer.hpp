#pragma once

#include <deque>
#include <optional>

#include "ahb/config.hpp"
#include "ahb/transaction.hpp"
#include "sim/time.hpp"
#include "stats/profiles.hpp"

/// \file write_buffer.hpp
/// The AHB+ write buffer (§3.3): "stores the information of write
/// transactions when a master cannot get a bus grant at the right time.
/// The write buffer behaves as another master when it is occupied by
/// waiting transactions."
///
/// Semantics implemented identically in both models:
///  * a write that loses arbitration is absorbed if space remains; the
///    issuing master observes completion immediately (posted write);
///  * while occupied the buffer raises its own bus request (pseudo-master);
///  * a read overlapping any buffered write's address range flags the
///    buffer urgent, and the arbiter holds that read back until the
///    overlapping writes drain (strict read-after-write ordering).

namespace ahbp::tlm {

class WriteBuffer {
 public:
  /// Depth 0 is no buffer: it absorbs nothing and never requests.
  explicit WriteBuffer(unsigned depth) : depth_(depth) {}

  bool enabled() const noexcept { return depth_ > 0; }
  unsigned depth() const noexcept { return depth_; }
  unsigned occupancy() const noexcept {
    return static_cast<unsigned>(fifo_.size());
  }
  bool empty() const noexcept { return fifo_.empty(); }
  bool full() const noexcept { return fifo_.size() >= depth_; }

  /// Absorb a write transaction.  Returns false when full (depth 0 is
  /// always full).
  bool absorb(const ahb::Transaction& t, sim::Cycle now);

  /// Pseudo-master request line: raised whenever the buffer is occupied.
  bool requesting() const noexcept { return !empty(); }

  /// Urgency: full, or a read hazard is pending (escalates arbitration).
  bool urgent() const noexcept { return (full() || urgent_) && !empty(); }

  /// Next transaction to drain (FIFO order).  Pre: !empty().
  const ahb::Transaction& front() const;

  /// FIFO entry `i` from the front (pre: i < occupancy()).  Used when the
  /// front is already draining and the next grant concerns entry 1.
  const ahb::Transaction& peek(unsigned i) const;

  /// Remove the front after its drain transfer completes.
  ahb::Transaction pop_front(sim::Cycle now);

  /// Does any buffered write overlap [lo, hi)?
  bool overlaps(ahb::Addr lo, ahb::Addr hi) const noexcept;

  /// Flag a read-after-write hazard: buffer drains with urgency until the
  /// overlap clears (checked by the arbiter each cycle).
  void flag_hazard() noexcept { urgent_ = true; }

  /// Called each cycle after arbitration so a cleared hazard de-escalates.
  void clear_hazard_if_unneeded(bool still_hazard) noexcept {
    if (!still_hazard && !full()) {
      urgent_ = false;
    }
  }

  /// Per-cycle occupancy sampling for the profile.
  void sample() { profile_.occupancy.add(occupancy()); }

  /// Bulk occupancy sampling: equivalent to n calls to sample() over a
  /// stretch where the occupancy cannot change (skipped idle cycles).
  void sample_n(std::uint64_t n) { profile_.occupancy.add_n(occupancy(), n); }

  void count_bypass() noexcept { ++profile_.bypassed; }
  void count_full_stall() noexcept { ++profile_.full_stalls; }
  void count_forward() noexcept { ++profile_.forwards; }

  const stats::WriteBufferProfile& profile() const noexcept { return profile_; }

  /// Snapshot FIFO contents, urgency flag and profile.  Capacity is
  /// configuration: a snapshot restores into whatever depth the target
  /// platform was built with (occupancy above the new depth simply drains).
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  unsigned depth_;
  bool urgent_ = false;
  std::deque<ahb::Transaction> fifo_;
  stats::WriteBufferProfile profile_;
};

}  // namespace ahbp::tlm
