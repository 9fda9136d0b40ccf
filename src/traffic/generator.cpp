#include "traffic/generator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ahb/address.hpp"
#include "assertions/assert.hpp"
#include "traffic/stimulus.hpp"

namespace ahbp::traffic {

namespace {

/// Every pattern draws from the explicitly owned per-master engine.
using Rng = TrafficRng;

std::uint64_t mix_seed(std::uint64_t seed, ahb::MasterId master) {
  // splitmix64 step over (seed, master) for decorrelated streams
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (1 + master);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Align an address down to `bytes` and clamp a burst of `beats` into the
/// window so it cannot cross the window end or a 1KB boundary.
ahb::Addr place_burst(Rng& rng, ahb::Addr base, ahb::Addr span, unsigned bytes,
                      unsigned beats) {
  const ahb::Addr burst_bytes = static_cast<ahb::Addr>(bytes) * beats;
  AHBP_ASSERT_MSG(span >= 1024, "traffic window must be at least 1KB");
  // Choose a 1KB block, then an offset inside it that fits the burst.
  const ahb::Addr blocks = span / 1024;
  const ahb::Addr block = std::uniform_int_distribution<ahb::Addr>(
      0, blocks - 1)(rng);
  const ahb::Addr slots = (1024 - burst_bytes) / bytes + 1;
  const ahb::Addr slot =
      std::uniform_int_distribution<ahb::Addr>(0, slots - 1)(rng);
  return base + block * 1024 + slot * bytes;
}

/// Shape a transfer of `total_bytes` (a power of two) for a `bus_bytes`
/// wide bus: the widest legal beat, the resulting beat count, and the
/// incrementing burst kind carrying that count.  This is where the §3.7
/// "bus width" knob becomes real work: the bytes moved stay fixed while
/// beats = total / width.
void shape_transfer(ahb::Transaction& t, unsigned total_bytes,
                    unsigned bus_bytes) {
  const unsigned beat = ahb::beat_bytes_for(total_bytes, bus_bytes);
  AHBP_ASSERT_MSG(ahb::valid_beat_bytes(beat),
                  "transfer quantum must be a power of two");
  t.size = ahb::size_for_bytes(beat);
  t.beats = total_bytes / beat;
  t.burst = ahb::incr_burst_for(t.beats);
}

/// Smallest multiple of `bytes` at or above `a` (start-address alignment
/// for beats wider than the legacy 32-bit word).
ahb::Addr align_up(ahb::Addr a, unsigned bytes) {
  return (a + bytes - 1) & ~static_cast<ahb::Addr>(bytes - 1);
}

void fill_write_data(Rng& rng, ahb::Transaction& t) {
  if (t.dir != ahb::Dir::kWrite) {
    return;
  }
  t.data.resize(t.beats);
  for (auto& w : t.data) {
    w = rng();
  }
}

sim::Cycle geometric_gap(Rng& rng, sim::Cycle mean) {
  if (mean == 0) {
    return 0;
  }
  std::geometric_distribution<sim::Cycle> d(1.0 / (1.0 + static_cast<double>(mean)));
  return d(rng);
}

Script make_cpu(const PatternConfig& cfg, Rng& rng) {
  Script s;
  s.reserve(cfg.items);
  const unsigned bus = cfg.beat_bytes;
  // CPU traffic: runs of cache-line activity inside a hot region that
  // periodically jumps (working-set change).  Line fill/eviction moves one
  // 16-byte cache line, occasional scalar accesses move one 32-bit datum;
  // both are expressed in however many bus-wide beats that takes.
  ahb::Addr hot = place_burst(rng, cfg.base, cfg.span, bus, 64 / bus);
  unsigned run_left = 0;
  for (unsigned i = 0; i < cfg.items; ++i) {
    if (run_left == 0) {
      hot = place_burst(rng, cfg.base, cfg.span, bus, 64 / bus);
      run_left = 4 + static_cast<unsigned>(rng() % 12);
    }
    --run_left;
    TrafficItem item;
    item.gap = geometric_gap(rng, cfg.mean_gap);
    ahb::Transaction& t = item.txn;
    const bool line = rng() % 100 < 70;
    const bool read =
        std::uniform_real_distribution<double>(0, 1)(rng) < cfg.read_ratio;
    t.dir = read ? ahb::Dir::kRead : ahb::Dir::kWrite;
    shape_transfer(t, line ? 16 : 4, bus);
    // Stay close to the hot line: wander within +-8 lines.
    const ahb::Addr line_bytes = 16;
    const std::int64_t wander =
        static_cast<std::int64_t>(rng() % 17) - 8;
    ahb::Addr a = hot + static_cast<ahb::Addr>(wander * static_cast<std::int64_t>(line_bytes));
    a = std::clamp<ahb::Addr>(a, cfg.base, cfg.base + cfg.span - 64);
    a &= ~static_cast<ahb::Addr>(ahb::size_bytes(t.size) - 1);  // beat align
    // Keep the burst inside its 1KB block.
    const ahb::Addr block_off = a % 1024;
    const ahb::Addr burst_bytes = static_cast<ahb::Addr>(t.beats) *
                                  ahb::size_bytes(t.size);
    if (block_off + burst_bytes > 1024) {
      a -= block_off + burst_bytes - 1024;
    }
    t.addr = a;
    fill_write_data(rng, t);
    s.push_back(std::move(item));
  }
  return s;
}

Script make_dma(const PatternConfig& cfg, Rng& rng) {
  Script s;
  s.reserve(cfg.items);
  // DMA: long bursts marching sequentially through the window; a read and
  // a write phase alternate (memory-to-memory copy shape).  The burst
  // quantum is `dma_burst_beats` 32-bit-reference words; a wider bus moves
  // the same bytes in proportionally fewer beats.
  unsigned ref_beats = cfg.dma_burst_beats;
  if (ref_beats != 4 && ref_beats != 8 && ref_beats != 16) {
    ref_beats = 16;
  }
  const unsigned total_bytes = ref_beats * 4;
  const ahb::Addr stride = total_bytes;
  // Cursors are aligned to the burst stride, not just the beat: a
  // stride-aligned burst of `stride` bytes (a power of two <= 64) can
  // never straddle the AHB 1KB boundary.
  ahb::Addr rd_cursor = align_up(cfg.base, total_bytes);
  ahb::Addr wr_cursor = align_up(cfg.base + cfg.span / 2, total_bytes);
  for (unsigned i = 0; i < cfg.items; ++i) {
    TrafficItem item;
    item.gap = i % 2 == 0 ? 1 : 0;  // copy loop: tight back-to-back
    ahb::Transaction& t = item.txn;
    const bool read = i % 2 == 0;
    t.dir = read ? ahb::Dir::kRead : ahb::Dir::kWrite;
    shape_transfer(t, total_bytes, cfg.beat_bytes);
    ahb::Addr& cursor = read ? rd_cursor : wr_cursor;
    const ahb::Addr half = cfg.span / 2;
    const ahb::Addr lo =
        align_up(read ? cfg.base : cfg.base + half, total_bytes);
    if (cursor + stride > cfg.base + (read ? half : cfg.span)) {
      cursor = lo;
    }
    t.addr = cursor;
    cursor += stride;
    fill_write_data(rng, t);
    s.push_back(std::move(item));
  }
  return s;
}

Script make_rt_stream(const PatternConfig& cfg, Rng& rng) {
  Script s;
  s.reserve(cfg.items);
  // Real-time stream: fixed 32-byte read bursts sweeping a frame buffer,
  // one per period (INCR8 of words on the reference 32-bit bus).  The gap
  // models the period minus the transfer itself; the source re-arms from
  // completion, so use period as think time directly — the shape
  // (periodic, deadline-sensitive) is what matters.
  const unsigned total_bytes = 32;
  const ahb::Addr stride = total_bytes;
  // Stride-aligned 32-byte bursts can never straddle the 1KB boundary.
  ahb::Addr cursor = align_up(cfg.base, total_bytes);
  for (unsigned i = 0; i < cfg.items; ++i) {
    TrafficItem item;
    item.gap = cfg.period;
    ahb::Transaction& t = item.txn;
    t.dir = ahb::Dir::kRead;
    shape_transfer(t, total_bytes, cfg.beat_bytes);
    if (cursor + stride > cfg.base + cfg.span) {
      cursor = align_up(cfg.base, total_bytes);
    }
    t.addr = cursor;
    cursor += stride;
    fill_write_data(rng, t);
    s.push_back(std::move(item));
  }
  return s;
}

Script make_random(const PatternConfig& cfg, Rng& rng) {
  Script s;
  s.reserve(cfg.items);
  static constexpr ahb::Burst kBursts[] = {
      ahb::Burst::kSingle, ahb::Burst::kIncr4, ahb::Burst::kWrap4,
      ahb::Burst::kIncr8,  ahb::Burst::kWrap8, ahb::Burst::kIncr16,
      ahb::Burst::kWrap16, ahb::Burst::kIncr,
  };
  for (unsigned i = 0; i < cfg.items; ++i) {
    TrafficItem item;
    item.gap = geometric_gap(rng, cfg.mean_gap);
    ahb::Transaction& t = item.txn;
    t.dir = std::uniform_real_distribution<double>(0, 1)(rng) < cfg.read_ratio
                ? ahb::Dir::kRead
                : ahb::Dir::kWrite;
    t.burst = kBursts[rng() % std::size(kBursts)];
    // Any HSIZE up to the bus width (byte/half/word on the 32-bit bus,
    // plus dword once the bus is 8 bytes wide).
    t.size = static_cast<ahb::Size>(rng() % std::bit_width(cfg.beat_bytes));
    unsigned beats = ahb::burst_fixed_beats(t.burst);
    if (beats == 0) {
      beats = 2 + static_cast<unsigned>(rng() % 15);  // INCR 2..16
    }
    t.beats = beats;
    const unsigned bytes = ahb::size_bytes(t.size);
    if (ahb::burst_wraps(t.burst)) {
      // Wrapping bursts need only size alignment; place anywhere.
      const ahb::Addr slots = cfg.span / bytes;
      t.addr = cfg.base +
               (std::uniform_int_distribution<ahb::Addr>(0, slots - 1)(rng)) *
                   bytes;
    } else {
      t.addr = place_burst(rng, cfg.base, cfg.span, bytes, beats);
    }
    fill_write_data(rng, t);
    s.push_back(std::move(item));
  }
  return s;
}

}  // namespace

std::string to_string(PatternKind k) {
  switch (k) {
    case PatternKind::kCpu: return "cpu";
    case PatternKind::kDma: return "dma";
    case PatternKind::kRtStream: return "rt-stream";
    case PatternKind::kRandom: return "random";
  }
  return "?";
}

bool pattern_from_string(std::string_view name, PatternKind& out) {
  if (name == "cpu") {
    out = PatternKind::kCpu;
  } else if (name == "dma") {
    out = PatternKind::kDma;
  } else if (name == "rt-stream") {
    out = PatternKind::kRtStream;
  } else if (name == "random") {
    out = PatternKind::kRandom;
  } else {
    return false;
  }
  return true;
}

TrafficRng::TrafficRng(std::uint64_t seed, ahb::MasterId master)
    : stream_seed_(mix_seed(seed, master)), engine_(stream_seed_) {}

Script make_script(const PatternConfig& cfg, ahb::MasterId master) {
  AHBP_ASSERT_MSG(ahb::valid_beat_bytes(cfg.beat_bytes),
                  "beat_bytes must be 1, 2, 4 or 8 (HSIZE-encodable)");
  AHBP_ASSERT_MSG(cfg.base % cfg.beat_bytes == 0,
                  "traffic window base must be aligned to the bus width");
  if (cfg.items == 0) {
    return {};
  }
  // The stream's engine lives exactly as long as this expansion: owned
  // here, seeded from (seed, master), shared with nothing.
  Rng rng(cfg.seed, master);
  Script s;
  switch (cfg.kind) {
    case PatternKind::kCpu: s = make_cpu(cfg, rng); break;
    case PatternKind::kDma: s = make_dma(cfg, rng); break;
    case PatternKind::kRtStream: s = make_rt_stream(cfg, rng); break;
    case PatternKind::kRandom: s = make_random(cfg, rng); break;
  }
  // Stamp ids/master and validate: scripts must be structurally legal, or
  // the protocol checkers would blame the models for workload bugs.
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i].txn.id = i + 1;
    s[i].txn.master = master;
    AHBP_ASSERT_MSG(ahb::structurally_valid(s[i].txn),
                    "generated transaction is not structurally valid");
  }
  return s;
}

std::uint64_t script_bytes(const Script& s) {
  std::uint64_t total = 0;
  for (const TrafficItem& i : s) {
    total += i.txn.bytes();
  }
  return total;
}

std::uint64_t script_prefix_hash(const Script& s, std::size_t items) {
  // FNV-1a 64.  Field order is part of the snapshot format (v4).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  };
  const std::size_t n = std::min(items, s.size());
  for (std::size_t i = 0; i < n; ++i) {
    const TrafficItem& it = s[i];
    mix(it.gap);
    mix(it.txn.master);
    mix(static_cast<std::uint64_t>(it.txn.dir));
    mix(it.txn.addr);
    mix(static_cast<std::uint64_t>(it.txn.size));
    mix(static_cast<std::uint64_t>(it.txn.burst));
    mix(it.txn.beats);
    mix(it.txn.locked ? 1 : 0);
    mix(it.txn.data.size());
    for (const ahb::Word w : it.txn.data) {
      mix(w);
    }
  }
  return h;
}

ahb::Transaction ScriptSource::pop(sim::Cycle now) {
  if (!ready(now)) {
    throw std::logic_error("ScriptSource::pop before ready");
  }
  AHBP_ASSERT_MSG(!in_flight_, "previous transaction not completed");
  in_flight_ = true;
  if (recorder_ != nullptr) {
    // The pristine script item (skeleton + write data, timestamps zero) at
    // the exact issue cycle — before the model stamps or fills anything.
    recorder_->record_issue(now, script_[index_].txn);
  }
  return script_[index_++].txn;
}

void ScriptSource::on_complete(sim::Cycle now) {
  AHBP_ASSERT_MSG(in_flight_, "on_complete without an in-flight transaction");
  in_flight_ = false;
  if (done()) {
    earliest_ = sim::kNeverCycle;
  } else {
    // Saturate one short of kNeverCycle, the "script exhausted" sentinel:
    // an unchecked sum would wrap and issue the next item in the past.
    const sim::Cycle gap = script_[index_].gap;
    earliest_ = gap < sim::kNeverCycle - 1 - now ? now + gap
                                                 : sim::kNeverCycle - 1;
  }
  if (recorder_ != nullptr) {
    recorder_->record_complete(now);
  }
}

void ScriptSource::save_state(state::StateWriter& w) const {
  w.begin("script-source");
  w.put_u64(script_.size());
  w.put_u64(index_);
  w.put_u64(earliest_);
  w.put_bool(in_flight_);
  // v4: content hash of everything already issued, so a restore can prove
  // the receiving script shares this run's history (not just its length).
  w.put_u64(script_prefix_hash(script_, index_));
  w.end();
}

void ScriptSource::restore_state(state::StateReader& r) {
  r.enter("script-source");
  const std::uint64_t items = r.get_u64();
  index_ = r.get_u64();
  earliest_ = r.get_u64();
  in_flight_ = r.get_bool();
  const std::uint64_t prefix_hash = r.get_u64();
  r.leave();
  // Restoring into a *longer* script is legal (a sweep point extending
  // `items` shares the generated prefix); a shorter one would replay
  // transactions that never existed in the snapshotted run.
  if (index_ > script_.size()) {
    throw state::StateError(
        "ScriptSource: snapshot had issued " + std::to_string(index_) +
        " of " + std::to_string(items) + " items, but this script has only " +
        std::to_string(script_.size()));
  }
  // A snapshot parked at end-of-script cannot restore into a longer
  // script: the gap to the next (previously nonexistent) item was never
  // armed in the snapshotted run, so the resumed source could not issue it
  // at the cycle an uninterrupted run would have.  Reject the fork — the
  // warm-up must end while the source is still draining.
  if (index_ < script_.size() && !in_flight_ && earliest_ == sim::kNeverCycle) {
    throw state::StateError(
        "ScriptSource: snapshot exhausted its script; restoring into a"
        " longer script is only sound before the source drains");
  }
  // Same length bookkeeping, different history: the snapshotted run issued
  // transactions this script would not have issued (a swept seed, pattern,
  // window or trace axis reshaped the prefix).  Recoverable by running the
  // configuration cold — hence the distinct exception type.
  if (script_prefix_hash(script_, index_) != prefix_hash) {
    throw state::ForkDivergence(
        "ScriptSource: the warm-up snapshot issued " + std::to_string(index_) +
        " transaction(s) that differ from this configuration's script — the"
        " stimulus diverged before the fork point, so the warm state does"
        " not belong to this configuration (run it cold)");
  }
}

}  // namespace ahbp::traffic
