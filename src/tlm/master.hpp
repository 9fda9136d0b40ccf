#pragma once

#include <functional>

#include "ahb/transaction.hpp"
#include "tlm/bus.hpp"
#include "traffic/generator.hpp"

/// \file master.hpp
/// Transaction-level master port driver.
///
/// Implements the master side of the paper's §3.2 behaviour: raise the
/// request, poll CheckGrant() (our poll_grant), then treat the whole
/// Read()/Write() as one port call that completes when the bus reports OK.
/// Transactions come from a deterministic traffic::ScriptSource, so the
/// same master behaviour can be replayed against the signal-level model.

namespace ahbp::tlm {

class TlmMaster final : public state::Snapshottable {
 public:
  TlmMaster(ahb::MasterId id, AhbPlusBus& bus, traffic::Script script)
      : id_(id), bus_(bus), source_(std::move(script)) {}

  /// Act on last cycle's bus state; the platform calls every master before
  /// the bus each cycle.
  void evaluate(sim::Cycle now);

  /// All scripted transactions issued and completed.
  bool finished() const noexcept {
    return source_.done() && state_ == State::kIdle;
  }

  std::uint64_t completed() const noexcept { return completed_; }

  /// Idle-skip bound: evaluate(t) is a guaranteed no-op for every t in
  /// [now, next_issue_at()) when the returned cycle is in the future.
  /// A waiting master returns 0 (it polls the bus every cycle); an idle
  /// one returns its source's next-ready cycle (kNeverCycle when done).
  sim::Cycle next_issue_at() const noexcept {
    return state_ == State::kWaiting ? 0 : source_.next_ready_at();
  }

  /// Completion callback hook for tests (observes each retired txn).
  std::function<void(const ahb::Transaction&)> on_complete;

  /// Attach a capture tap to this port's script source (symmetric with
  /// the signal-level master: both route through ScriptSource, so the
  /// captured gaps are genuine think-time in either model).
  void set_trace_recorder(traffic::TraceRecorder* rec) noexcept {
    source_.set_recorder(rec);
  }

  void save_state(state::StateWriter& w) const override;
  void restore_state(state::StateReader& r) override;

 private:
  enum class State { kIdle, kWaiting };

  ahb::MasterId id_;
  AhbPlusBus& bus_;
  traffic::ScriptSource source_;
  State state_ = State::kIdle;
  std::uint64_t completed_ = 0;
  /// Completion scratch (persistent so poll_done's copy reuses capacity).
  ahb::Transaction done_;
};

}  // namespace ahbp::tlm
