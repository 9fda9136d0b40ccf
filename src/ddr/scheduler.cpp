#include "ddr/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "ahb/address.hpp"

namespace ahbp::ddr {

namespace {

/// Beats one CAS command may cover (DDR burst-length 8 equivalent).
constexpr unsigned kMaxCasBeats = 8;

/// Posted-write queue capacity (column-command chunks).
constexpr std::size_t kMaxWriteQueue = 8;

}  // namespace

BankAffinity bank_affinity(BankState state, std::uint32_t open_row,
                           const Coord& want) noexcept {
  switch (state) {
    case BankState::kActive:
    case BankState::kActivating:
      return open_row == want.row ? BankAffinity::kOpenRow
                                  : BankAffinity::kConflict;
    case BankState::kIdle:
      return BankAffinity::kIdle;
    case BankState::kPrecharging:
      return BankAffinity::kConflict;
  }
  return BankAffinity::kConflict;
}

DdrcEngine::DdrcEngine(const DdrTiming& timing, const Geometry& geom)
    : timing_(timing), geom_(geom), engine_(timing, geom) {}

void DdrcEngine::decompose(CurrentTxn& txn) const {
  if (!ahb::valid_beat_bytes(txn.req.beat_bytes)) {
    throw std::invalid_argument("DdrcEngine: beat_bytes must be 1/2/4/8");
  }
  const auto size = ahb::size_for_bytes(txn.req.beat_bytes);
  // Columns one sequential beat may advance: 1 for column-sized or
  // narrower beats (several narrow beats share a column, then step by
  // one), >1 for beats wider than a column.
  const std::uint32_t col_step =
      std::max(1u, txn.req.beat_bytes / geom_.col_bytes);
  txn.beat_addr.resize(txn.req.beats);
  txn.chunks.clear();
  Coord prev{};
  for (unsigned i = 0; i < txn.req.beats; ++i) {
    txn.beat_addr[i] =
        ahb::burst_beat_addr(txn.req.addr, size, txn.req.burst, i);
    const Coord c = geom_.decode(txn.beat_addr[i]);
    // A chunk is a run of beats in one (bank,row) whose columns advance
    // sequentially (sub-column beats repeat the same column, wide beats
    // stride several).  Each chunk maps onto a single CAS command, capped
    // at kMaxCasBeats.
    const bool extend =
        i > 0 && !txn.chunks.empty() &&
        txn.chunks.back().beats < kMaxCasBeats && prev.bank == c.bank &&
        prev.row == c.row &&
        (c.col == prev.col ||
         (c.col > prev.col && c.col - prev.col <= col_step));
    if (extend) {
      ++txn.chunks.back().beats;
    } else {
      txn.chunks.push_back(Chunk{c, 1, 0, false});
    }
    prev = c;
  }
}

void DdrcEngine::begin(const MemRequest& req, sim::Cycle now) {
  if (busy()) {
    throw std::logic_error("DdrcEngine::begin while busy");
  }
  if (req.beats == 0) {
    throw std::invalid_argument("DdrcEngine::begin: zero beats");
  }
  // Rebuild the persistent CurrentTxn in place: decompose() resizes
  // beat_addr / refills chunks, and beat_ready is assign()ed — all three
  // reuse whatever capacity earlier transactions left behind.
  cur_.req = req;
  decompose(cur_);
  if (!req.is_write) {
    cur_.beat_ready.assign(req.beats, sim::kNeverCycle);
  } else {
    cur_.beat_ready.clear();
  }
  cur_.active_chunk = 0;
  cur_.beats_issued = 0;
  cur_.beats_consumed = 0;
  cur_.last_consume = now;  // consumption can start next cycle at earliest
  cur_.beats_accepted = 0;
  cur_active_ = true;
}

bool DdrcEngine::done() const noexcept {
  if (!cur_active_) {
    return false;
  }
  const CurrentTxn& t = cur_;
  return t.req.is_write ? t.beats_accepted >= t.req.beats
                        : t.beats_consumed >= t.req.beats;
}

void DdrcEngine::finish() {
  if (!done()) {
    throw std::logic_error("DdrcEngine::finish before done");
  }
  cur_active_ = false;  // vectors keep their capacity for the next begin()
}

// ----------------------------------------------------------- read stream

bool DdrcEngine::read_beat_available(sim::Cycle now) const noexcept {
  if (!cur_active_ || cur_.req.is_write) {
    return false;
  }
  const CurrentTxn& t = cur_;
  if (t.beats_consumed >= t.req.beats) {
    return false;
  }
  const sim::Cycle ready = t.beat_ready[t.beats_consumed];
  if (ready == sim::kNeverCycle || now < ready) {
    return false;
  }
  // One beat per bus cycle.
  return t.beats_consumed == 0 || now > t.last_consume;
}

ahb::Word DdrcEngine::take_read_beat(sim::Cycle now) {
  if (!read_beat_available(now)) {
    throw std::logic_error("DdrcEngine::take_read_beat: no beat available");
  }
  CurrentTxn& t = cur_;
  const ahb::Word w =
      mem_.read(t.beat_addr[t.beats_consumed], t.req.beat_bytes);
  ++t.beats_consumed;
  t.last_consume = now;
  return w;
}

// ---------------------------------------------------------- write stream

bool DdrcEngine::write_beat_ready(sim::Cycle now) const noexcept {
  (void)now;
  if (!cur_active_ || !cur_.req.is_write) {
    return false;
  }
  if (cur_.beats_accepted >= cur_.req.beats) {
    return false;
  }
  // Back-pressure: no room to queue another chunk means no acceptance.
  return write_queue_.size() < kMaxWriteQueue;
}

void DdrcEngine::put_write_beat(sim::Cycle now, ahb::Word w) {
  if (!write_beat_ready(now)) {
    throw std::logic_error("DdrcEngine::put_write_beat: not ready");
  }
  CurrentTxn& t = cur_;
  mem_.write(t.beat_addr[t.beats_accepted], w, t.req.beat_bytes);
  ++t.beats_accepted;
  // When acceptance crosses a chunk boundary, queue that chunk for the
  // background drain.
  unsigned boundary = 0;
  for (const Chunk& c : t.chunks) {
    boundary += c.beats;
    if (boundary == t.beats_accepted) {
      write_queue_.push_back(WriteChunk{c.start, c.beats});
      break;
    }
    if (boundary > t.beats_accepted) {
      break;
    }
  }
}

// ----------------------------------------------------------------- hints

bool DdrcEngine::access_permitted(sim::Cycle now) const noexcept {
  return !engine_.refresh_due(now) && !engine_.in_refresh(now);
}

// --------------------------------------------------------- command pick

bool DdrcEngine::bank_needed_soon(std::uint32_t bank) const {
  if (cur_active_) {
    const CurrentTxn& t = cur_;
    if (!t.req.is_write) {
      for (std::size_t i = t.active_chunk; i < t.chunks.size(); ++i) {
        if (t.chunks[i].start.bank == bank) {
          return true;
        }
      }
    } else {
      // Every chunk of an in-flight write will eventually drain.
      for (const Chunk& c : t.chunks) {
        if (c.start.bank == bank) {
          return true;
        }
      }
    }
  }
  for (const WriteChunk& w : write_queue_) {
    if (w.start.bank == bank) {
      return true;
    }
  }
  return false;
}

std::optional<Command> DdrcEngine::column_for_read(sim::Cycle now) {
  if (!cur_active_ || cur_.req.is_write) {
    return std::nullopt;
  }
  CurrentTxn& t = cur_;
  if (t.active_chunk >= t.chunks.size()) {
    return std::nullopt;
  }
  Chunk& c = t.chunks[t.active_chunk];
  Command cmd{CmdKind::kRead, c.start.bank, c.start.row, c.start.col, c.beats};
  if (!c.classified) {
    const BankAffinity a = bank_affinity(
        engine_.bank_state(c.start.bank, now), engine_.open_row(c.start.bank),
        c.start);
    c.classified = true;
    if (a == BankAffinity::kOpenRow) {
      ++hits_.row_hits;
    } else if (a == BankAffinity::kIdle) {
      ++hits_.row_misses;
    } else {
      ++hits_.row_conflicts;
    }
  }
  if (!engine_.can_issue(cmd, now)) {
    return std::nullopt;
  }
  return cmd;
}

std::optional<Command> DdrcEngine::column_for_write_drain(
    sim::Cycle now) const {
  if (write_queue_.empty()) {
    return std::nullopt;
  }
  const WriteChunk& w = write_queue_.front();
  Command cmd{CmdKind::kWrite, w.start.bank, w.start.row, w.start.col, w.beats};
  if (!engine_.can_issue(cmd, now)) {
    return std::nullopt;
  }
  return cmd;
}

std::optional<Command> DdrcEngine::row_or_pre_for(const Coord& c,
                                                  sim::Cycle now) {
  const BankState st = engine_.bank_state(c.bank, now);
  switch (bank_affinity(st, engine_.open_row(c.bank), c)) {
    case BankAffinity::kOpenRow:
      return std::nullopt;  // column path will serve it
    case BankAffinity::kIdle: {
      Command cmd{CmdKind::kActivate, c.bank, c.row, 0, 0};
      if (engine_.can_issue(cmd, now)) {
        return cmd;
      }
      return std::nullopt;
    }
    case BankAffinity::kConflict: {
      if (st != BankState::kActive && st != BankState::kActivating) {
        return std::nullopt;  // precharging already
      }
      Command cmd{CmdKind::kPrecharge, c.bank, 0, 0, 0};
      if (engine_.can_issue(cmd, now)) {
        return cmd;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

std::optional<Command> DdrcEngine::hint_work(sim::Cycle now) {
  if (!hint_) {
    return std::nullopt;
  }
  const Coord& h = *hint_;
  if (bank_needed_soon(h.bank)) {
    return std::nullopt;  // never disturb a bank live traffic needs
  }
  auto cmd = row_or_pre_for(h, now);
  if (cmd) {
    if (cmd->kind == CmdKind::kActivate) {
      ++hits_.hint_activates;
    } else if (cmd->kind == CmdKind::kPrecharge) {
      ++hits_.hint_precharges;
    }
  }
  return cmd;
}

Command DdrcEngine::pick_command(sim::Cycle now) {
  // Refresh handling: once due it outranks everything; open banks are
  // closed first, then the refresh issues.
  if (engine_.refresh_due(now)) {
    Command ref{CmdKind::kRefresh, 0, 0, 0, 0};
    if (engine_.can_issue(ref, now)) {
      return ref;
    }
    for (std::uint32_t b = 0; b < engine_.banks(); ++b) {
      Command pre{CmdKind::kPrecharge, b, 0, 0, 0};
      if (engine_.can_issue(pre, now)) {
        return pre;
      }
    }
    return Command{};  // waiting out tRAS/tWR before the precharges
  }

  // §3.3 priority scheme: column accesses first (they move data), then row
  // opens, then precharges; within a class the live transaction outranks
  // the posted-write drain, which outranks speculative hint work.
  if (auto cmd = column_for_read(now)) {
    return *cmd;
  }
  if (auto cmd = column_for_write_drain(now)) {
    return *cmd;
  }
  if (cur_active_ && !cur_.req.is_write &&
      cur_.active_chunk < cur_.chunks.size()) {
    if (auto cmd = row_or_pre_for(cur_.chunks[cur_.active_chunk].start, now)) {
      return *cmd;
    }
  }
  if (!write_queue_.empty()) {
    if (auto cmd = row_or_pre_for(write_queue_.front().start, now)) {
      return *cmd;
    }
  }
  if (auto cmd = hint_work(now)) {
    return *cmd;
  }
  return Command{};
}

Command DdrcEngine::step(sim::Cycle now) {
  // Idle fast path: nothing in flight, nothing queued, no hint, and
  // refresh not due — the common case on a lightly loaded bus.
  if (!cur_active_ && write_queue_.empty() && !hint_ &&
      !engine_.refresh_due(now)) {
    return Command{};
  }
  const Command cmd = pick_command(now);
  if (cmd.kind == CmdKind::kNop) {
    return cmd;
  }
  const sim::Cycle first_beat = engine_.issue(cmd, now);
  if (cmd.kind == CmdKind::kRead) {
    CurrentTxn& t = cur_;
    Chunk& c = t.chunks[t.active_chunk];
    c.issued = c.beats;
    unsigned base = 0;
    for (std::size_t i = 0; i < t.active_chunk; ++i) {
      base += t.chunks[i].beats;
    }
    for (unsigned k = 0; k < c.beats; ++k) {
      t.beat_ready[base + k] = first_beat + k;
    }
    t.beats_issued += c.beats;
    ++t.active_chunk;
  } else if (cmd.kind == CmdKind::kWrite) {
    write_queue_.pop_front();
  }
  return cmd;
}

namespace {

void save_coord(state::StateWriter& w, const Coord& c) {
  w.put_u32(c.bank);
  w.put_u32(c.row);
  w.put_u32(c.col);
}

Coord restore_coord(state::StateReader& r) {
  Coord c;
  c.bank = r.get_u32();
  c.row = r.get_u32();
  c.col = r.get_u32();
  return c;
}

}  // namespace

void save_state(state::StateWriter& w, const MemRequest& m) {
  w.put_bool(m.is_write);
  w.put_u64(m.addr);
  w.put_u32(m.beat_bytes);
  w.put_u32(m.beats);
  w.put_u8(static_cast<std::uint8_t>(m.burst));
}

void restore_state(state::StateReader& r, MemRequest& m) {
  m.is_write = r.get_bool();
  m.addr = r.get_u64();
  m.beat_bytes = r.get_u32();
  m.beats = r.get_u32();
  m.burst = static_cast<ahb::Burst>(r.get_u8());
}

void DdrcEngine::save_state(state::StateWriter& w) const {
  w.begin("ddrc-engine");
  engine_.save_state(w);
  mem_.save_state(w);
  w.put_bool(cur_active_);
  if (cur_active_) {
    const CurrentTxn& t = cur_;
    ddr::save_state(w, t.req);
    w.put_u64(t.beat_addr.size());
    for (const ahb::Addr a : t.beat_addr) {
      w.put_u64(a);
    }
    w.put_u64(t.chunks.size());
    for (const Chunk& c : t.chunks) {
      save_coord(w, c.start);
      w.put_u32(c.beats);
      w.put_u32(c.issued);
      w.put_bool(c.classified);
    }
    w.put_u64(t.active_chunk);
    w.put_u64(t.beat_ready.size());
    for (const sim::Cycle c : t.beat_ready) {
      w.put_u64(c);
    }
    w.put_u32(t.beats_issued);
    w.put_u32(t.beats_consumed);
    w.put_u64(t.last_consume);
    w.put_u32(t.beats_accepted);
  }
  w.put_u64(write_queue_.size());
  for (const WriteChunk& c : write_queue_) {
    save_coord(w, c.start);
    w.put_u32(c.beats);
  }
  w.put_bool(hint_.has_value());
  if (hint_) {
    save_coord(w, *hint_);
  }
  w.put_u64(hits_.row_hits);
  w.put_u64(hits_.row_misses);
  w.put_u64(hits_.row_conflicts);
  w.put_u64(hits_.hint_activates);
  w.put_u64(hits_.hint_precharges);
  w.end();
}

void DdrcEngine::restore_state(state::StateReader& r) {
  r.enter("ddrc-engine");
  engine_.restore_state(r);
  mem_.restore_state(r);
  if (r.get_bool()) {
    cur_active_ = true;
    CurrentTxn& t = cur_;
    ddr::restore_state(r, t.req);
    t.beat_addr.assign(r.get_count(), 0);
    for (ahb::Addr& a : t.beat_addr) {
      a = r.get_u64();
    }
    t.chunks.assign(r.get_count(), Chunk{});
    for (Chunk& c : t.chunks) {
      c.start = restore_coord(r);
      c.beats = r.get_u32();
      c.issued = r.get_u32();
      c.classified = r.get_bool();
    }
    t.active_chunk = r.get_u64();
    t.beat_ready.assign(r.get_count(), 0);
    for (sim::Cycle& c : t.beat_ready) {
      c = r.get_u64();
    }
    t.beats_issued = r.get_u32();
    t.beats_consumed = r.get_u32();
    t.last_consume = r.get_u64();
    t.beats_accepted = r.get_u32();
  } else {
    cur_active_ = false;
  }
  write_queue_.clear();
  const std::uint64_t wq = r.get_count();
  for (std::uint64_t i = 0; i < wq; ++i) {
    WriteChunk c;
    c.start = restore_coord(r);
    c.beats = r.get_u32();
    write_queue_.push_back(c);
  }
  if (r.get_bool()) {
    hint_ = restore_coord(r);
  } else {
    hint_.reset();
  }
  hits_.row_hits = r.get_u64();
  hits_.row_misses = r.get_u64();
  hits_.row_conflicts = r.get_u64();
  hits_.hint_activates = r.get_u64();
  hits_.hint_precharges = r.get_u64();
  r.leave();
}

}  // namespace ahbp::ddr
