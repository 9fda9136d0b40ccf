#include "ddr/bank.hpp"

#include <algorithm>
#include <stdexcept>

namespace ahbp::ddr {

// ----------------------------------------------------------------- Bank

bool Bank::can_activate(sim::Cycle now) const noexcept {
  if (row_open_) {
    return false;  // must precharge first
  }
  if (now < idle_at_) {
    return false;  // precharge still completing (tRP)
  }
  if (ever_activated_ && now < activate_ready_) {
    return false;  // tRC since previous activate
  }
  return true;
}

bool Bank::can_column(sim::Cycle now, std::uint32_t row) const noexcept {
  return row_open_ && open_row_ == row && now >= column_ready_;
}

bool Bank::can_precharge(sim::Cycle now) const noexcept {
  // Precharging an already-idle bank is legal DDR behaviour but our
  // controller never benefits, so the model forbids it to catch scheduler
  // bugs early.
  return row_open_ && now >= precharge_ready_;
}

sim::Cycle Bank::earliest_column(sim::Cycle now,
                                 std::uint32_t row) const noexcept {
  if (row_open_ && open_row_ == row) {
    return std::max(now, column_ready_);
  }
  sim::Cycle t = now;
  if (row_open_) {
    // precharge (wait until legal) then tRP then activate then tRCD
    t = std::max(t, precharge_ready_);
    t += t_->tRP;
    t = std::max(t, activate_ready_);
    return t + t_->tRCD;
  }
  // closed: wait for idle, then activate + tRCD
  t = std::max(t, idle_at_);
  if (ever_activated_) {
    t = std::max(t, activate_ready_);
  }
  return t + t_->tRCD;
}

void Bank::activate(sim::Cycle now, std::uint32_t row) noexcept {
  row_open_ = true;
  ever_activated_ = true;
  open_row_ = row;
  activated_at_ = now;
  activate_ready_ = now + t_->tRC;
  column_ready_ = now + t_->tRCD;
  precharge_ready_ = now + t_->tRAS;
}

void Bank::column(sim::Cycle now, bool is_write,
                  sim::Cycle last_beat_at) noexcept {
  (void)now;
  // The row must stay open until the burst completes; writes additionally
  // need tWR after the final data beat before precharge.
  const sim::Cycle guard =
      is_write ? last_beat_at + 1 + t_->tWR : last_beat_at + 1;
  precharge_ready_ = std::max(precharge_ready_, guard);
}

void Bank::precharge(sim::Cycle now) noexcept {
  row_open_ = false;
  idle_at_ = now + t_->tRP;
}

void Bank::refresh(sim::Cycle now, sim::Cycle trfc) noexcept {
  // All-bank refresh: banks must already be idle; they become available
  // again after tRFC.
  idle_at_ = std::max(idle_at_, now + trfc);
  activate_ready_ = std::max(activate_ready_, now + trfc);
}

// ------------------------------------------------------------- BankEngine

BankEngine::BankEngine(const DdrTiming& timing, const Geometry& geom)
    : timing_(timing), geom_(geom) {
  const std::string err = timing_.validate();
  if (!err.empty()) {
    throw std::invalid_argument("BankEngine: bad timing: " + err);
  }
  banks_.reserve(geom_.banks);
  for (std::uint32_t b = 0; b < geom_.banks; ++b) {
    banks_.emplace_back(timing_);
  }
}

Bank& BankEngine::bank(std::uint32_t b) {
  if (b >= banks_.size()) {
    throw std::out_of_range("BankEngine: bank index");
  }
  return banks_[b];
}

bool BankEngine::can_issue(const Command& cmd, sim::Cycle now) const noexcept {
  if (cmd.kind == CmdKind::kNop) {
    return true;
  }
  if (!command_slot_free(now)) {
    return false;
  }
  if (now < refresh_busy_until_) {
    return false;  // tRFC window blocks every command
  }
  switch (cmd.kind) {
    case CmdKind::kActivate: {
      if (cmd.bank >= banks_.size()) {
        return false;
      }
      if (any_activate_ && now < last_activate_any_ + timing_.tRRD) {
        return false;  // activate-to-activate across banks
      }
      return banks_[cmd.bank].can_activate(now);
    }
    case CmdKind::kRead:
    case CmdKind::kWrite: {
      if (cmd.bank >= banks_.size() || cmd.beats == 0) {
        return false;
      }
      if (any_column_ && now < last_column_any_ + timing_.tCCD) {
        return false;
      }
      if (!banks_[cmd.bank].can_column(now, cmd.row)) {
        return false;
      }
      // The shared data bus must be free when this burst's data starts.
      const sim::Cycle lat =
          cmd.kind == CmdKind::kRead ? timing_.tCL : timing_.tWL;
      return now + lat >= data_free_at_;
    }
    case CmdKind::kPrecharge: {
      if (cmd.bank >= banks_.size()) {
        return false;
      }
      return banks_[cmd.bank].can_precharge(now);
    }
    case CmdKind::kRefresh:
      return can_refresh(now);
    case CmdKind::kNop:
      return true;
  }
  return false;
}

sim::Cycle BankEngine::issue(const Command& cmd, sim::Cycle now) {
  if (!can_issue(cmd, now)) {
    throw std::logic_error("BankEngine: issue() of illegal command");
  }
  if (cmd.kind == CmdKind::kNop) {
    return 0;  // NOPs do not consume the command slot
  }
  last_cmd_at_ = now;
  any_cmd_issued_ = true;
  switch (cmd.kind) {
    case CmdKind::kActivate:
      banks_[cmd.bank].activate(now, cmd.row);
      last_activate_any_ = now;
      any_activate_ = true;
      ++counters_.activates;
      return 0;
    case CmdKind::kRead:
    case CmdKind::kWrite: {
      const bool is_write = cmd.kind == CmdKind::kWrite;
      const sim::Cycle lat = is_write ? timing_.tWL : timing_.tCL;
      const sim::Cycle first_beat = now + lat;
      const sim::Cycle last_beat = first_beat + cmd.beats - 1;
      banks_[cmd.bank].column(now, is_write, last_beat);
      last_column_any_ = now;
      any_column_ = true;
      data_free_at_ = last_beat + 1;
      if (is_write) {
        ++counters_.writes;
        counters_.write_beats += cmd.beats;
      } else {
        ++counters_.reads;
        counters_.read_beats += cmd.beats;
      }
      return first_beat;
    }
    case CmdKind::kPrecharge:
      banks_[cmd.bank].precharge(now);
      ++counters_.precharges;
      return 0;
    case CmdKind::kRefresh:
      for (Bank& b : banks_) {
        b.refresh(now, timing_.tRFC);
      }
      refresh_busy_until_ = now + timing_.tRFC;
      last_refresh_ = now;
      ++counters_.refreshes;
      return 0;
    case CmdKind::kNop:
      return 0;
  }
  return 0;
}

std::uint32_t BankEngine::idle_bank_mask(sim::Cycle now) const {
  std::uint32_t mask = 0;
  for (std::uint32_t b = 0; b < banks_.size(); ++b) {
    if (banks_[b].state(now) == BankState::kIdle) {
      mask |= 1U << b;
    }
  }
  return mask;
}

sim::Cycle BankEngine::earliest_column(const Coord& c, sim::Cycle now) const {
  return bank(c.bank).earliest_column(now, c.row);
}

bool BankEngine::refresh_due(sim::Cycle now) const noexcept {
  if (timing_.tREFI == 0) {
    return false;
  }
  return now >= last_refresh_ + timing_.tREFI;
}

bool BankEngine::can_refresh(sim::Cycle now) const noexcept {
  if (!command_slot_free(now) || now < refresh_busy_until_) {
    return false;
  }
  for (const Bank& b : banks_) {
    if (b.state(now) != BankState::kIdle) {
      return false;
    }
  }
  return true;
}

void Bank::save_state(state::StateWriter& w) const {
  w.put_bool(row_open_);
  w.put_u32(open_row_);
  w.put_u64(activated_at_);
  w.put_u64(activate_ready_);
  w.put_u64(column_ready_);
  w.put_u64(precharge_ready_);
  w.put_u64(idle_at_);
  w.put_bool(ever_activated_);
}

void Bank::restore_state(state::StateReader& r) {
  row_open_ = r.get_bool();
  open_row_ = r.get_u32();
  activated_at_ = r.get_u64();
  activate_ready_ = r.get_u64();
  column_ready_ = r.get_u64();
  precharge_ready_ = r.get_u64();
  idle_at_ = r.get_u64();
  ever_activated_ = r.get_bool();
}

void BankEngine::save_state(state::StateWriter& w) const {
  w.begin("bank-engine");
  w.put_u64(banks_.size());
  for (const Bank& b : banks_) {
    b.save_state(w);
  }
  w.put_u64(last_activate_any_);
  w.put_bool(any_activate_);
  w.put_u64(last_column_any_);
  w.put_bool(any_column_);
  w.put_u64(data_free_at_);
  w.put_u64(last_cmd_at_);
  w.put_bool(any_cmd_issued_);
  w.put_u64(last_refresh_);
  w.put_u64(refresh_busy_until_);
  w.put_u64(counters_.activates);
  w.put_u64(counters_.reads);
  w.put_u64(counters_.writes);
  w.put_u64(counters_.precharges);
  w.put_u64(counters_.refreshes);
  w.put_u64(counters_.read_beats);
  w.put_u64(counters_.write_beats);
  w.end();
}

void BankEngine::restore_state(state::StateReader& r) {
  r.enter("bank-engine");
  const std::uint64_t n = r.get_u64();
  if (n != banks_.size()) {
    throw state::StateError(
        "BankEngine: snapshot has " + std::to_string(n) +
        " banks, configuration has " + std::to_string(banks_.size()));
  }
  for (Bank& b : banks_) {
    b.restore_state(r);
  }
  last_activate_any_ = r.get_u64();
  any_activate_ = r.get_bool();
  last_column_any_ = r.get_u64();
  any_column_ = r.get_bool();
  data_free_at_ = r.get_u64();
  last_cmd_at_ = r.get_u64();
  any_cmd_issued_ = r.get_bool();
  last_refresh_ = r.get_u64();
  refresh_busy_until_ = r.get_u64();
  counters_.activates = r.get_u64();
  counters_.reads = r.get_u64();
  counters_.writes = r.get_u64();
  counters_.precharges = r.get_u64();
  counters_.refreshes = r.get_u64();
  counters_.read_beats = r.get_u64();
  counters_.write_beats = r.get_u64();
  r.leave();
}

}  // namespace ahbp::ddr
