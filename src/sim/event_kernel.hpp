#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "state/snapshot.hpp"

namespace ahbp::obs {
class SelfProfiler;
}

/// \file event_kernel.hpp
/// Event-driven simulation kernel with delta cycles and one clock.
///
/// This kernel hosts the *signal-level* (pin-accurate) reference model.  Its
/// semantics mirror a classic HDL simulator:
///
///  1. **Evaluate** — every runnable process executes.  Processes read
///     signals' current values and `write()` their next values.
///  2. **Update** — every signal written with a new value commits.  Each
///     signal whose value actually changed notifies its subscribed
///     processes, making them runnable in the *next delta* of the same
///     timestep.  A packed `BitVector` commits as one entry but counts
///     and wakes per changed bit, exactly like that many one-bit wires
///     committed back to back.  A write of the value a signal already
///     holds (with no other write pending) queues no commit at all: as in
///     an HDL simulator, it is not an event.
///  3. Deltas repeat until no process is runnable, then time advances one
///     tick and the kernel toggles its `Clock`.  That edge is the only
///     timed event there is: the model keeps one clock edge per tick and
///     nothing finer.
///
/// The kernel keeps activity counters (deltas, process activations, signal
/// updates, clock edges) so the speed benchmarks can report *why*
/// signal-level simulation is slow, not just that it is.
///
/// Hot-path engineering: process bodies are move-only `InlineFunction`s
/// (no heap, no copy per activation), the per-write path inlines, and the
/// delta loop recycles its scratch vectors, so the steady-state loop
/// performs zero allocations.

namespace ahbp::sim {

class Clock;
class EventKernel;
class SignalBase;

/// A simulation process: a callable that re-runs whenever one of the signals
/// it subscribes to changes value (or when explicitly triggered).
///
/// Processes are non-copyable identity objects; components own them and the
/// kernel references them.
class Process {
 public:
  using Body = InlineFunction<void()>;

  Process(EventKernel& kernel, std::string name, Body body);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Make the process runnable in the current evaluation phase (deduped).
  inline void trigger();

  std::string_view name() const noexcept { return name_; }

  /// Invoked by the kernel during the evaluate phase.
  void run() {
    scheduled_ = false;
    body_();
  }

 private:
  friend class EventKernel;
  EventKernel& kernel_;
  std::string name_;
  Body body_;
  bool scheduled_ = false;
  unsigned prof_id_ = ~0U;  ///< cached self-profiler phase id
};

/// Type-erased base for signals: handles subscriber bookkeeping and the
/// commit protocol with the kernel.
class SignalBase {
 public:
  explicit SignalBase(EventKernel& kernel, std::string name);
  virtual ~SignalBase();

  SignalBase(const SignalBase&) = delete;
  SignalBase& operator=(const SignalBase&) = delete;

  /// Subscribe a process to value changes (a `Clock` wakes it on rising
  /// edges only).  Subscribers wake in subscription order.
  void subscribe(Process& proc);

  std::string_view name() const noexcept { return name_; }

  /// Render the current value for tracing (VCD / logs).
  virtual std::string value_string() const = 0;

  /// Committed value as raw bits, for checkpointing.  Only defined for
  /// signals carrying bool/integral/enum payloads (every fabric wire).
  virtual std::uint64_t snapshot_value() const = 0;

  /// Overwrite the committed value from a checkpoint.  No subscribers are
  /// notified and no update is scheduled: restore reproduces a *settled*
  /// state, exactly as the original kernel left it between timesteps.
  virtual void restore_value(std::uint64_t bits) = 0;

 protected:
  /// Ask the kernel to call commit() in the next update phase (deduped).
  inline void request_update();

  EventKernel& kernel() const noexcept { return kernel_; }

  /// True between request_update() and the commit that services it.
  bool update_pending() const noexcept { return update_pending_; }

  /// Wake every subscriber, in subscription order, after a committed change.
  void notify() {
    for (Process* p : subs_) {
      p->trigger();
    }
  }

 private:
  friend class EventKernel;
  /// Commit the pending write.  Returns the number of wires whose value
  /// changed: 0 or 1 for a Signal<T>, the changed-bit count for a
  /// BitVector.
  virtual unsigned commit() = 0;

  EventKernel& kernel_;
  std::string name_;
  std::vector<Process*> subs_;
  bool update_pending_ = false;
};

/// A two-phase signal: `write()` stores a next value that becomes visible to
/// `read()` only after the update phase, exactly like an HDL signal.
template <typename T>
class Signal final : public SignalBase {
 public:
  Signal(EventKernel& kernel, std::string name, T initial = T{})
      : SignalBase(kernel, std::move(name)), cur_(initial), next_(initial) {}

  /// Current (committed) value.
  const T& read() const noexcept { return cur_; }

  /// Schedule `v` to become the value in the next update phase.  Writing
  /// the committed value with no update pending is not an event (as in
  /// SystemC's sc_signal::write): next_ == cur_ already holds, and the
  /// commit would change nothing, so no update is queued at all.
  void write(const T& v) {
    if (v == cur_ && !update_pending()) {
      return;
    }
    next_ = v;
    request_update();
  }

  std::string value_string() const override {
    if constexpr (std::is_same_v<T, bool>) {
      return cur_ ? "1" : "0";
    } else if constexpr (std::is_enum_v<T>) {
      return std::to_string(
          static_cast<std::underlying_type_t<T>>(cur_) + 0);
    } else if constexpr (std::is_integral_v<T>) {
      return std::to_string(cur_ + 0);  // + 0: print char types as numbers
    } else {
      return "?";
    }
  }

  std::uint64_t snapshot_value() const override {
    if constexpr (std::is_same_v<T, bool>) {
      return cur_ ? 1 : 0;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      return static_cast<std::uint64_t>(cur_);
    } else {
      throw state::StateError("Signal<" + name_string() +
                              ">: payload type is not checkpointable");
    }
  }

  void restore_value(std::uint64_t bits) override {
    if constexpr (std::is_same_v<T, bool>) {
      cur_ = bits != 0;
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      cur_ = static_cast<T>(bits);
    } else {
      throw state::StateError("Signal<" + name_string() +
                              ">: payload type is not checkpointable");
    }
    next_ = cur_;  // no pending update survives a restore
  }

 private:
  std::string name_string() const { return std::string(name()); }
  unsigned commit() override {
    if (cur_ == next_) {
      return 0;
    }
    cur_ = next_;
    notify();
    return 1;
  }

  T cur_;
  T next_;
};

/// A packed bundle of 1..64 one-bit wires (bit i is wire i) held as one
/// registry entry.  Each bit keeps the event semantics of its own
/// Signal<bool>: a commit counts one change per flipped bit and wakes the
/// subscribers of each flipped bit, in ascending bit order — exactly what
/// `width` one-bit signals written in bit order in one delta would do —
/// while the kernel pays for one update entry and one virtual commit.
class BitVector final : public SignalBase {
 public:
  /// `width` must be 1..64 (AHBP_ASSERT).
  BitVector(EventKernel& kernel, std::string name, unsigned width,
            std::uint64_t initial = 0);

  unsigned width() const noexcept {
    return static_cast<unsigned>(bit_subs_.size());
  }

  /// Current (committed) word; bits above width() are always 0.
  std::uint64_t read() const noexcept { return cur_; }

  /// Current (committed) value of wire `i` (i < width()).
  bool bit(unsigned i) const noexcept { return ((cur_ >> i) & 1U) != 0; }

  /// Schedule every wire from `word` (bits above width() are dropped).
  /// Same no-op rule as Signal<T>::write.
  void write(std::uint64_t word) { write_masked(mask_, word); }

  /// Schedule only the wires selected by `mask` from `bits`; the pending
  /// values of the other wires are kept.
  void write_masked(std::uint64_t mask, std::uint64_t bits) {
    const std::uint64_t next = (next_ & ~mask) | (bits & mask & mask_);
    if (next == cur_ && !update_pending()) {
      return;
    }
    next_ = next;
    request_update();
  }

  /// Wake `proc` whenever wire `i` changes.  (SignalBase::subscribe still
  /// subscribes to the whole word: any flipped bit wakes it.)
  void subscribe_bit(unsigned i, Process& proc);

  std::string value_string() const override { return std::to_string(cur_); }

  std::uint64_t snapshot_value() const override { return cur_; }

  void restore_value(std::uint64_t bits) override {
    cur_ = bits & mask_;
    next_ = cur_;  // no pending update survives a restore
  }

 private:
  unsigned commit() override;

  std::uint64_t mask_;
  std::uint64_t cur_;
  std::uint64_t next_;
  std::uint64_t subscribed_ = 0;  ///< bits with at least one subscriber
  std::vector<std::vector<Process*>> bit_subs_;  ///< per wire, in order
};

/// The clock (`hclk` in the RTL fabric): a one-bit wire that only the
/// kernel drives.  It starts low and toggles once per tick, so one bus
/// cycle is two ticks and the rising edges fall on odd ticks.  A toggle is
/// an ordinary commit (one delta, one signal commit), but subscribers wake
/// on the rising edge only: the falling edge wakes nobody.  At most one
/// clock per kernel (AHBP_ASSERT); its component owns it, and it registers
/// as a signal like any other wire, so VCDs and checkpoints list it where
/// it was constructed.
class Clock final : public SignalBase {
 public:
  Clock(EventKernel& kernel, std::string name);
  ~Clock() override;

  /// Current (committed) level.
  bool read() const noexcept { return cur_; }

  std::string value_string() const override { return cur_ ? "1" : "0"; }

  std::uint64_t snapshot_value() const override { return cur_ ? 1 : 0; }

  void restore_value(std::uint64_t bits) override { cur_ = bits != 0; }

 private:
  friend class EventKernel;
  void toggle() { request_update(); }
  unsigned commit() override {
    cur_ = !cur_;
    if (cur_) {
      notify();
    }
    return 1;
  }

  bool cur_ = false;
};

/// Activity counters exposed for the speed benchmarks and tests.
struct KernelStats {
  std::uint64_t deltas = 0;               ///< evaluate/update rounds executed
  std::uint64_t process_activations = 0;  ///< process bodies run
  /// Committed changes, counted per wire: a Signal<T> that changed counts
  /// one, a BitVector counts each bit that flipped.
  std::uint64_t signal_commits = 0;
  std::uint64_t timed_events = 0;  ///< clock edges: one per tick
};

/// The event-driven kernel itself.
///
/// Components allocate Signals, Processes and the Clock against the kernel,
/// subscribe sensitivities, then the testbench calls run_until().
class EventKernel {
 public:
  EventKernel() = default;

  EventKernel(const EventKernel&) = delete;
  EventKernel& operator=(const EventKernel&) = delete;

  /// Current simulated time.
  Tick now() const noexcept { return now_; }

  /// Settle, then for each tick up to `until`: advance time, toggle the
  /// clock and settle.  Needs a clock (AHBP_ASSERT).
  void run_until(Tick until);

  /// Settle all deltas at the current time without advancing time.
  void settle();

  const KernelStats& stats() const noexcept { return stats_; }

  /// Attach a self-profiler: every process activation is timed under a
  /// phase named "rtl.<process name>".  Null detaches; when detached (the
  /// default) the dispatch loop pays one pointer test per activation.
  /// Attach at most one distinct profiler per kernel lifetime (phase ids
  /// are cached in the processes).
  void set_profiler(obs::SelfProfiler* p) noexcept { profiler_ = p; }

  /// Registry of all signals (for tracing).  Non-owning.
  const std::vector<SignalBase*>& signals() const noexcept { return signals_; }

  /// Snapshot every registered signal's committed value (name-tagged, in
  /// registration order) plus the activity counters.  Valid only at a
  /// settled point: no runnable process, no pending commit.
  ///
  /// Time is deliberately *not* saved: a restored kernel restarts at tick 0
  /// with the same edge alignment a fresh platform has (the clock low, one
  /// tick before the next rising edge), so components — which count bus
  /// cycles, not ticks — resume cycle-exactly.
  void save_signals(state::StateWriter& w) const;

  /// Restore into a freshly constructed platform of the same topology.
  /// Signal count and names must match registration order exactly; any
  /// drift throws StateError naming the offending wire.
  void restore_signals(state::StateReader& r);

 private:
  friend class Clock;
  friend class Process;
  friend class SignalBase;

  void make_runnable(Process& p) {
    if (!p.scheduled_) {
      p.scheduled_ = true;
      runnable_.push_back(&p);
    }
  }
  void request_update(SignalBase& s) { updates_.push_back(&s); }
  void register_signal(SignalBase& s);
  void unregister_signal(SignalBase& s);

  /// Run evaluate/update delta rounds until quiescent.
  void run_delta_rounds();

  Tick now_ = 0;
  Clock* clock_ = nullptr;
  std::vector<Process*> runnable_;
  std::vector<SignalBase*> updates_;
  std::vector<Process*> run_scratch_;       ///< recycled delta-round buffer
  std::vector<SignalBase*> commit_scratch_; ///< recycled delta-round buffer
  std::vector<SignalBase*> signals_;

  KernelStats stats_;
  obs::SelfProfiler* profiler_ = nullptr;
};

// The per-write path, defined here so every signal write inlines it.

inline void Process::trigger() { kernel_.make_runnable(*this); }

inline void SignalBase::request_update() {
  if (!update_pending_) {
    update_pending_ = true;
    kernel_.request_update(*this);
  }
}

}  // namespace ahbp::sim
