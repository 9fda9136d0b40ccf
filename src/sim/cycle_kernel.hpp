#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"
#include "state/snapshot.hpp"

namespace ahbp::obs {
class SelfProfiler;
}

/// \file cycle_kernel.hpp
/// 2-step cycle-based simulation kernel.
///
/// This is the kernel the paper's §4 describes: to maximize speed the TLM is
/// *method-based* (components exchange transactions through direct function
/// calls, not signal toggling) and scheduled by a *2-step cycle-based*
/// engine.  Each simulated bus cycle consists of exactly two sweeps over the
/// registered components:
///
///   1. `evaluate(now)` — components read committed state from the previous
///      cycle and compute/communicate (masters issue transaction calls, the
///      arbiter filters requests, the DDR controller picks commands).
///   2. `update(now)`   — components commit their next state.
///
/// There is no event queue, no sensitivity bookkeeping and no delta
/// iteration.  Registration is a template (`add<T>`) that freezes each
/// component's `evaluate`/`update` into plain function-pointer thunks: for
/// `final` component types the calls are fully devirtualized at compile time
/// and a component that inherits the no-op `update` default pays nothing in
/// the update sweep.  Cost per cycle is two indirect (not virtual) calls per
/// component that needs them.  Ordering within a phase is controlled by a
/// small integer `phase()` so a platform can guarantee e.g. masters evaluate
/// before the arbiter, independent of registration order.

namespace ahbp::sim {

/// Interface for components clocked by the CycleKernel.
class Clocked {
 public:
  virtual ~Clocked() = default;

  /// Phase 1: read committed state, compute, call methods on peers.
  virtual void evaluate(Cycle now) = 0;

  /// Phase 2: commit next state.  Default: nothing to commit.
  virtual void update(Cycle now) { (void)now; }

  /// Evaluation order within a cycle (lower runs earlier in both phases).
  virtual int phase() const { return 0; }

  /// Component name for diagnostics.
  virtual std::string_view name() const { return "clocked"; }
};

/// Convenience adapter turning two lambdas into a Clocked component.
/// Move-only: the callables live in fixed inline storage (no heap).
class CallbackClocked final : public Clocked {
 public:
  using Fn = InlineFunction<void(Cycle)>;

  CallbackClocked(std::string name, int phase, Fn evaluate, Fn update = {})
      : name_(std::move(name)),
        phase_(phase),
        evaluate_(std::move(evaluate)),
        update_(std::move(update)) {}

  void evaluate(Cycle now) override {
    if (evaluate_) {
      evaluate_(now);
    }
  }
  void update(Cycle now) override {
    if (update_) {
      update_(now);
    }
  }
  int phase() const override { return phase_; }
  std::string_view name() const override { return name_; }

 private:
  std::string name_;
  int phase_;
  Fn evaluate_;
  Fn update_;
};

/// The 2-step cycle-based scheduler.
class CycleKernel {
 public:
  CycleKernel() = default;

  CycleKernel(const CycleKernel&) = delete;
  CycleKernel& operator=(const CycleKernel&) = delete;

  /// Register a component (non-owning).  Components are sorted by phase();
  /// ties keep registration order (stable).
  ///
  /// The component's static type is captured here: `final` types get direct
  /// (devirtualized) thunks, and a type that inherits the default no-op
  /// `update` is skipped entirely in the update sweep.
  template <typename T>
  void add(T& component) {
    static_assert(std::is_base_of_v<Clocked, T>,
                  "CycleKernel components must derive from Clocked");
    Entry e;
    e.obj = &component;
    e.base = &component;
    if constexpr (std::is_final_v<T>) {
      e.eval = [](void* o, Cycle now) { static_cast<T*>(o)->T::evaluate(now); };
    } else {
      // Non-final static type: the dynamic type may override further, so the
      // thunk keeps virtual dispatch (still hoisted out of std::function).
      e.eval = [](void* o, Cycle now) { static_cast<T*>(o)->evaluate(now); };
    }
    if constexpr (std::is_same_v<decltype(&T::update),
                                 void (Clocked::*)(Cycle)>) {
      e.upd = nullptr;  // inherited no-op default — nothing to commit
    } else if constexpr (std::is_final_v<T>) {
      e.upd = [](void* o, Cycle now) { static_cast<T*>(o)->T::update(now); };
    } else {
      e.upd = [](void* o, Cycle now) { static_cast<T*>(o)->update(now); };
    }
    components_.push_back(e);
    sorted_ = false;
    prof_dirty_ = true;
  }

  /// Execute one cycle: evaluate sweep then update sweep.
  void step();

  /// Run until `predicate` returns true (checked after each cycle) or
  /// `max_cycles` elapse.  Returns the number of cycles executed.
  /// Templated so the per-cycle predicate check is a direct call.
  template <typename Pred>
  Cycle run_until(Pred&& predicate, Cycle max_cycles) {
    Cycle executed = 0;
    while (executed < max_cycles && !predicate()) {
      step();
      ++executed;
    }
    return executed;
  }

  /// Current cycle number (cycles completed so far).
  Cycle now() const noexcept { return now_; }

  /// Fast-forward the clock to `target` without evaluating any component.
  /// This is the idle-leap primitive: the platform may only call
  /// it after proving (via the components' idle bounds) that every skipped
  /// cycle would have been a no-op, and after bulk-replaying any per-cycle
  /// bookkeeping the components owe for the gap.  No-op if `target <= now`.
  void skip_to(Cycle target) noexcept {
    if (target > now_) {
      now_ = target;
    }
  }

  /// Total component evaluations performed (for the speed benchmarks).
  std::uint64_t evaluations() const noexcept { return evaluations_; }

  /// Attach a self-profiler: each component's evaluate+update time is
  /// accumulated under a phase named after the component.  Null detaches.
  /// When detached (the default), step() takes the untimed fast path.
  void set_profiler(obs::SelfProfiler* p) {
    profiler_ = p;
    prof_dirty_ = true;
  }

  /// Snapshot the clock: the cycle counter and the evaluation counter
  /// (components snapshot themselves; registration is configuration).
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  /// Frozen dispatch record: direct function-pointer thunks, no virtual
  /// call and no std::function on the per-cycle path.
  struct Entry {
    void* obj = nullptr;
    Clocked* base = nullptr;  ///< for phase()/name() (setup/diagnostics only)
    void (*eval)(void*, Cycle) = nullptr;
    void (*upd)(void*, Cycle) = nullptr;  ///< null: inherited no-op update
  };

  void sort_if_needed();
  void step_profiled();

  std::vector<Entry> components_;
  bool sorted_ = true;
  Cycle now_ = 0;
  std::uint64_t evaluations_ = 0;

  obs::SelfProfiler* profiler_ = nullptr;
  bool prof_dirty_ = false;  ///< phase ids need (re)resolving
  std::vector<unsigned> prof_ids_;  ///< parallel to components_ once sorted
};

}  // namespace ahbp::sim
