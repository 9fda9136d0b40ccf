#include "rtl/bitlevel.hpp"

#include "ahb/types.hpp"

namespace ahbp::rtl {

RippleIncrementer::RippleIncrementer(sim::EventKernel& k,
                                     const std::string& base,
                                     sim::BitVector& input,
                                     sim::Signal<std::uint8_t>& step)
    : in_(input), step_(step) {
  const unsigned width = input.width();
  const unsigned nibbles = (width + 3) / 4;
  sum_ = std::make_unique<sim::BitVector>(k, base + ".sum", width);
  signal_count_ += width;
  carry_.reserve(nibbles);
  for (unsigned n = 0; n < nibbles; ++n) {
    carry_.push_back(std::make_unique<sim::Signal<bool>>(
        k, base + ".c" + std::to_string(n)));
    ++signal_count_;
  }
  // One combinational process per nibble: adds its 4 input bits, the
  // incoming carry, and (for nibble 0) the step value; drives 4 sum bits
  // and the outgoing carry.  Carries chain the processes so an increment
  // ripples across delta cycles like a real adder netlist.
  for (unsigned n = 0; n < nibbles; ++n) {
    auto body = [this, n] {
      const unsigned shift = n * 4;
      unsigned acc = static_cast<unsigned>((in_.read() >> shift) & 0xFU);
      if (n == 0) {
        acc += step_.read();
      } else if (carry_[n - 1]->read()) {
        acc += 1;
      }
      sum_->write_masked(0xFULL << shift,
                                 static_cast<std::uint64_t>(acc) << shift);
      carry_[n]->write(acc >= 16);
    };
    nibbles_.push_back(std::make_unique<sim::Process>(
        k, base + ".nib" + std::to_string(n), body));
    sim::Process& p = *nibbles_.back();
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned i = n * 4 + b;
      if (i < width) {
        in_.subscribe_bit(i, p);
      }
    }
    if (n == 0) {
      step_.subscribe(p);
    } else {
      carry_[n - 1]->subscribe(p);
    }
  }
}

BitLevelLayer::BitLevelLayer(sim::EventKernel& k, SharedWires& shared,
                             std::vector<MasterWires*> columns)
    : sh_(shared), cols_(std::move(columns)) {
  // Blasted shared buses: the pins of the fabric.
  haddr_bits_ = std::make_unique<sim::BitVector>(k, "pin.haddr", 32);
  hwdata_bits_ = std::make_unique<sim::BitVector>(k, "pin.hwdata", 32);
  hrdata_bits_ = std::make_unique<sim::BitVector>(k, "pin.hrdata", 32);
  signal_count_ += 96;
  haddr_blast_ = std::make_unique<sim::Process>(k, "pin.haddr.blast", [this] {
    haddr_bits_->write(sh_.haddr.read());
  });
  sh_.haddr.subscribe(*haddr_blast_);
  hwdata_blast_ = std::make_unique<sim::Process>(k, "pin.hwdata.blast", [this] {
    hwdata_bits_->write(sh_.hwdata.read());
  });
  sh_.hwdata.subscribe(*hwdata_blast_);
  hrdata_blast_ = std::make_unique<sim::Process>(k, "pin.hrdata.blast", [this] {
    hrdata_bits_->write(sh_.hrdata.read());
  });
  sh_.hrdata.subscribe(*hrdata_blast_);

  // Per-column: blasted address output + the ripple-carry incrementer that
  // computes the next sequential address.
  for (unsigned i = 0; i < cols_.size(); ++i) {
    ColumnBits cb;
    const std::string base = "pin.m" + std::to_string(i);
    cb.haddr_bits = std::make_unique<sim::BitVector>(k, base + ".haddr", 32);
    signal_count_ += 32;
    MasterWires* col = cols_[i];
    sim::BitVector* bb = cb.haddr_bits.get();
    cb.blast = std::make_unique<sim::Process>(
        k, base + ".blast", [col, bb] { bb->write(col->haddr.read()); });
    col->haddr.subscribe(*cb.blast);

    cb.step = std::make_unique<sim::Signal<std::uint8_t>>(k, base + ".step");
    ++signal_count_;
    sim::Signal<std::uint8_t>* step = cb.step.get();
    cb.step_proc = std::make_unique<sim::Process>(
        k, base + ".stepdec", [col, step] {
          step->write(static_cast<std::uint8_t>(
              ahb::size_bytes(unpack_size(col->hsize.read()))));
        });
    col->hsize.subscribe(*cb.step_proc);

    cb.incr = std::make_unique<RippleIncrementer>(k, base + ".incr",
                                                  *cb.haddr_bits, *cb.step);
    signal_count_ += cb.incr->signal_count();
    col_bits_.push_back(std::move(cb));
  }
}

}  // namespace ahbp::rtl
