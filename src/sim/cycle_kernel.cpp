#include "sim/cycle_kernel.hpp"

#include <algorithm>
#include <string>

#include "obs/selfprof.hpp"

namespace ahbp::sim {

void CycleKernel::sort_if_needed() {
  if (!sorted_) {
    std::stable_sort(components_.begin(), components_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.base->phase() < b.base->phase();
                     });
    sorted_ = true;
  }
}

void CycleKernel::step() {
  sort_if_needed();
  if (profiler_ != nullptr) {
    step_profiled();
    return;
  }
  for (const Entry& e : components_) {
    e.eval(e.obj, now_);
    ++evaluations_;
  }
  for (const Entry& e : components_) {
    if (e.upd != nullptr) {
      e.upd(e.obj, now_);
    }
  }
  ++now_;
}

void CycleKernel::step_profiled() {
  // Resolve per-component phase ids lazily (sorting or registration
  // invalidates the parallel-array correspondence).
  if (prof_dirty_) {
    prof_ids_.clear();
    for (const Entry& e : components_) {
      prof_ids_.push_back(profiler_->phase("tlm." + std::string(e.base->name())));
    }
    prof_dirty_ = false;
  }
  for (std::size_t i = 0; i < components_.size(); ++i) {
    obs::ScopedTimer t(profiler_, prof_ids_[i]);
    const Entry& e = components_[i];
    e.eval(e.obj, now_);
    ++evaluations_;
  }
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const Entry& e = components_[i];
    if (e.upd == nullptr) {
      continue;
    }
    obs::ScopedTimer t(profiler_, prof_ids_[i]);
    e.upd(e.obj, now_);
  }
  ++now_;
}

void CycleKernel::save_state(state::StateWriter& w) const {
  w.begin("cycle-kernel");
  w.put_u64(now_);
  w.put_u64(evaluations_);
  w.end();
}

void CycleKernel::restore_state(state::StateReader& r) {
  r.enter("cycle-kernel");
  now_ = r.get_u64();
  evaluations_ = r.get_u64();
  r.leave();
}

}  // namespace ahbp::sim
