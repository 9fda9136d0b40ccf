#include "tlm/write_buffer.hpp"

#include "assertions/assert.hpp"

namespace ahbp::tlm {

bool WriteBuffer::absorb(const ahb::Transaction& t, sim::Cycle now) {
  (void)now;
  AHBP_ASSERT_MSG(t.dir == ahb::Dir::kWrite,
                  "write buffer can only absorb writes");
  if (full()) {
    return false;
  }
  fifo_.push_back(t);
  ++profile_.absorbed;
  return true;
}

const ahb::Transaction& WriteBuffer::front() const {
  AHBP_ASSERT(!fifo_.empty());
  return fifo_.front();
}

const ahb::Transaction& WriteBuffer::peek(unsigned i) const {
  AHBP_ASSERT(i < fifo_.size());
  return fifo_[i];
}

ahb::Transaction WriteBuffer::pop_front(sim::Cycle now) {
  (void)now;
  AHBP_ASSERT(!fifo_.empty());
  ahb::Transaction t = std::move(fifo_.front());
  fifo_.pop_front();
  ++profile_.drained;
  return t;
}

bool WriteBuffer::overlaps(ahb::Addr lo, ahb::Addr hi) const noexcept {
  for (const ahb::Transaction& t : fifo_) {
    // Conservative span: [addr, addr + beats*size) covers INCR exactly and
    // over-approximates WRAP (whose wrap window is within the same span
    // rounded to its boundary — widen to the wrap boundary region).
    ahb::Addr t_lo = t.addr;
    ahb::Addr t_hi = t.addr + t.bytes();
    if (ahb::burst_wraps(t.burst)) {
      const ahb::Addr total = t.bytes();
      t_lo = t.addr & ~(total - 1);
      t_hi = t_lo + total;
    }
    if (t_lo < hi && lo < t_hi) {
      return true;
    }
  }
  return false;
}

void WriteBuffer::save_state(state::StateWriter& w) const {
  w.begin("write-buffer");
  w.put_bool(urgent_);
  w.put_u64(fifo_.size());
  for (const ahb::Transaction& t : fifo_) {
    ahb::save_state(w, t);
  }
  profile_.save_state(w);
  w.end();
}

void WriteBuffer::restore_state(state::StateReader& r) {
  r.enter("write-buffer");
  urgent_ = r.get_bool();
  fifo_.clear();
  const std::uint64_t n = r.get_count();
  if (n != 0 && !enabled()) {
    throw state::StateError(
        "WriteBuffer: snapshot holds " + std::to_string(n) +
        " buffered writes but the restore platform disables the buffer");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    ahb::Transaction t;
    ahb::restore_state(r, t);
    fifo_.push_back(std::move(t));
  }
  profile_.restore_state(r);
  r.leave();
}

}  // namespace ahbp::tlm
