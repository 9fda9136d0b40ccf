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

void SignalBase::subscribe(Process& proc, Edge edge) {
  subs_.push_back(Subscription{&proc, edge});
  sub_edges_ = static_cast<std::uint8_t>(sub_edges_ | edge_bit(edge));
}

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
  const bool was_zero = cur_ == 0;
  cur_ = next_;
  notify(/*rose=*/was_zero, /*fell=*/!was_zero && cur_ == 0);
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

void EventKernel::schedule_far(Tick at, EventFn fn) {
  timed_heap_.emplace_back(at, seq_++, std::move(fn));
  std::push_heap(timed_heap_.begin(), timed_heap_.end(), TimedEventLater{});
}

Tick EventKernel::next_event_time() const noexcept {
  const Tick heap_at =
      timed_heap_.empty() ? kNeverTick : timed_heap_.front().at;
  // Every ring entry lies in [now_, now_ + kTimedWheel) and each bucket
  // holds one timestamp, so the first non-empty bucket from now_ holds the
  // ring's earliest event.
  for (Tick d = 0; d < kTimedWheel; ++d) {
    const auto& bucket = timed_ring_[(now_ + d) % kTimedWheel];
    if (!bucket.empty()) {
      return std::min(bucket.front().at, heap_at);
    }
  }
  return heap_at;
}

void EventKernel::dispatch_at(Tick at) {
  // Handlers may schedule new events for this same timestamp (delay 0);
  // keep collecting until the timestep is exhausted, exactly like the old
  // top()/pop() loop did.
  for (;;) {
    std::vector<TimedEvent>& bucket = timed_ring_[at % kTimedWheel];
    const bool heap_due = !timed_heap_.empty() && timed_heap_.front().at == at;
    if (bucket.empty() && !heap_due) {
      return;
    }
    // Take the bucket whole: a swap, not a move per event.  Handlers then
    // append delay-0 events to the emptied bucket, not to the batch being
    // dispatched.
    dispatch_scratch_.clear();
    dispatch_scratch_.swap(bucket);
    if (heap_due) {
      const bool from_ring = !dispatch_scratch_.empty();
      while (!timed_heap_.empty() && timed_heap_.front().at == at) {
        std::pop_heap(timed_heap_.begin(), timed_heap_.end(),
                      TimedEventLater{});
        dispatch_scratch_.push_back(std::move(timed_heap_.back()));
        timed_heap_.pop_back();
      }
      // Bucket entries and heap pops are each seq-sorted, but interleave
      // arbitrarily; restore global FIFO order among same-time events.
      if (from_ring) {
        std::sort(dispatch_scratch_.begin(), dispatch_scratch_.end(),
                  [](const TimedEvent& a, const TimedEvent& b) {
                    return a.seq < b.seq;
                  });
      }
    }
    timed_count_ -= dispatch_scratch_.size();
    for (TimedEvent& e : dispatch_scratch_) {
      ++stats_.timed_events;
      e.fn();
    }
  }
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
  run_delta_rounds();
  for (;;) {
    const Tick at = next_event_time();
    if (at == kNeverTick || at > until) {
      break;
    }
    now_ = at;
    dispatch_at(at);
    run_delta_rounds();
  }
  if (now_ < until) {
    now_ = until;
  }
}

}  // namespace ahbp::sim
