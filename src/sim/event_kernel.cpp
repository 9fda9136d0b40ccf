#include "sim/event_kernel.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "assertions/assert.hpp"
#include "obs/selfprof.hpp"

namespace ahbp::sim {

// ---------------------------------------------------------------- Process

Process::Process(EventKernel& kernel, std::string name, Body body)
    : kernel_(kernel), name_(std::move(name)), body_(std::move(body)) {}

// -------------------------------------------------------------- SignalBase

SignalBase::SignalBase(EventKernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
  kernel_.register_signal(*this);
}

SignalBase::~SignalBase() { kernel_.unregister_signal(*this); }

void SignalBase::subscribe(Process& proc) { subs_.push_back(&proc); }

// ------------------------------------------------------------------- Clock

Clock::Clock(EventKernel& kernel, std::string name)
    : SignalBase(kernel, std::move(name)) {
  AHBP_ASSERT_MSG(kernel.clock_ == nullptr, "one clock per kernel");
  kernel.clock_ = this;
}

Clock::~Clock() { kernel().clock_ = nullptr; }

// --------------------------------------------------------------- BitVector

BitVector::BitVector(EventKernel& kernel, std::string name, unsigned width,
                     std::uint64_t initial)
    : SignalBase(kernel, std::move(name)),
      mask_(width >= 64 ? ~0ULL : (1ULL << width) - 1),
      cur_(initial & mask_),
      next_(cur_) {
  AHBP_ASSERT(width >= 1 && width <= 64);
  bit_subs_.resize(width);
}

void BitVector::subscribe_bit(unsigned i, Process& proc) {
  AHBP_ASSERT(i < width());
  bit_subs_[i].push_back(&proc);
  subscribed_ |= 1ULL << i;
}

unsigned BitVector::commit() {
  const std::uint64_t changed = cur_ ^ next_;
  if (changed == 0) {
    return 0;
  }
  cur_ = next_;
  notify();
  // Ascending bit order: the wake order of one-bit signals committed in
  // bit order.
  for (std::uint64_t m = changed & subscribed_; m != 0; m &= m - 1) {
    for (Process* p : bit_subs_[static_cast<unsigned>(std::countr_zero(m))]) {
      p->trigger();
    }
  }
  return static_cast<unsigned>(std::popcount(changed));
}

// ------------------------------------------------------------- EventKernel

void EventKernel::register_signal(SignalBase& s) { signals_.push_back(&s); }

void EventKernel::unregister_signal(SignalBase& s) {
  signals_.erase(std::remove(signals_.begin(), signals_.end(), &s),
                 signals_.end());
}

void EventKernel::run_delta_rounds() {
  // Each round: evaluate all runnable processes, then commit all signal
  // writes.  Commits that change values re-arm subscribed processes for the
  // next round.  Loop until quiescent.  The scratch vectors are members so
  // their capacity survives across rounds and steps — the steady-state loop
  // never allocates.
  while (!runnable_.empty() || !updates_.empty()) {
    ++stats_.deltas;

    run_scratch_.clear();
    run_scratch_.swap(runnable_);
    stats_.process_activations += run_scratch_.size();
    if (profiler_ == nullptr) {
      for (Process* p : run_scratch_) {
        p->run();
      }
    } else {
      for (Process* p : run_scratch_) {
        if (p->prof_id_ == ~0U) {
          p->prof_id_ = profiler_->phase("rtl." + p->name_);
        }
        obs::ScopedTimer t(profiler_, p->prof_id_);
        p->run();
      }
    }

    commit_scratch_.clear();
    commit_scratch_.swap(updates_);
    for (SignalBase* s : commit_scratch_) {
      s->update_pending_ = false;
      stats_.signal_commits += s->commit();
    }
  }
}

void EventKernel::settle() { run_delta_rounds(); }

void EventKernel::save_signals(state::StateWriter& w) const {
  if (!runnable_.empty() || !updates_.empty()) {
    throw state::StateError(
        "EventKernel: cannot snapshot mid-delta (processes runnable or"
        " commits pending)");
  }
  w.begin("signals");
  w.put_u64(signals_.size());
  for (const SignalBase* s : signals_) {
    w.put_str(s->name());
    w.put_u64(s->snapshot_value());
  }
  w.put_u64(stats_.deltas);
  w.put_u64(stats_.process_activations);
  w.put_u64(stats_.signal_commits);
  w.put_u64(stats_.timed_events);
  w.end();
}

void EventKernel::restore_signals(state::StateReader& r) {
  r.enter("signals");
  const std::uint64_t n = r.get_u64();
  if (n != signals_.size()) {
    throw state::StateError(
        "EventKernel: snapshot has " + std::to_string(n) +
        " signals, this platform has " + std::to_string(signals_.size()) +
        " (topology mismatch)");
  }
  for (SignalBase* s : signals_) {
    const std::string name = r.get_str();
    if (name != s->name()) {
      throw state::StateError("EventKernel: signal order mismatch: snapshot"
                              " has '" + name + "', platform has '" +
                              std::string(s->name()) + "'");
    }
    s->restore_value(r.get_u64());
  }
  stats_.deltas = r.get_u64();
  stats_.process_activations = r.get_u64();
  stats_.signal_commits = r.get_u64();
  stats_.timed_events = r.get_u64();
  r.leave();
}

void EventKernel::run_until(Tick until) {
  AHBP_ASSERT_MSG(clock_ != nullptr, "time advances by the clock");
  run_delta_rounds();
  while (now_ < until) {
    ++now_;
    clock_->toggle();
    ++stats_.timed_events;
    run_delta_rounds();
  }
}

}  // namespace ahbp::sim
