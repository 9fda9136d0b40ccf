#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtl/signals.hpp"
#include "sim/event_kernel.hpp"

/// \file bitlevel.hpp
/// Bit-true datapath layer of the reference model.
///
/// "Pin-accurate RTL" in the paper's sense is bit-true: HADDR[31:0],
/// HWDATA[31:0] and HRDATA[31:0] are 32 individual pins, and the fabric's
/// adders/muxes are gate netlists whose internal nodes all schedule events.
/// This layer blasts the shared buses into per-bit wires and implements
/// each master's sequential-address incrementer as a ripple-carry chain of
/// nibble processes connected by carry wires — so one address change
/// settles through a cascade of delta cycles exactly as an event-driven
/// RTL simulator would evaluate it.
///
/// The pins of one bus are packed into a single `sim::BitVector` (one
/// registry entry, e.g. `pin.haddr`), but each bit is still its own
/// event: a changed bit counts one committed change and wakes only the
/// processes subscribed to that bit, so the kernel's deltas, activations
/// and commits are those of one `Signal<bool>` per pin.  Packing removes
/// per-pin bookkeeping, not events.
///
/// Every bit carries its true value and no architectural wire reads the
/// layer back.  RtlFabric always instantiates it; its cost is the
/// `rtl.pin.*` phases of the self-profile.

namespace ahbp::rtl {

/// Ripple-carry incrementer over a packed pin bus: one combinational
/// process per nibble, chained through carry wires.  Computing A+step
/// ripples the carries through up to width/4 delta rounds.
class RippleIncrementer {
 public:
  RippleIncrementer(sim::EventKernel& k, const std::string& base,
                    sim::BitVector& input, sim::Signal<std::uint8_t>& step);

  RippleIncrementer(const RippleIncrementer&) = delete;
  RippleIncrementer& operator=(const RippleIncrementer&) = delete;

  std::uint64_t sum() const { return sum_->read(); }
  /// Wires modelled (each pin counts one), not registry entries.
  std::size_t signal_count() const noexcept { return signal_count_; }

 private:
  sim::BitVector& in_;
  sim::Signal<std::uint8_t>& step_;
  std::unique_ptr<sim::BitVector> sum_;
  std::vector<std::unique_ptr<sim::Signal<bool>>> carry_;  ///< per nibble
  std::vector<std::unique_ptr<sim::Process>> nibbles_;
  std::size_t signal_count_ = 0;
};

/// The full bit-level layer: blasted shared buses + per-column address
/// incrementers + bit-blasted write-data mux.
class BitLevelLayer {
 public:
  BitLevelLayer(sim::EventKernel& k, SharedWires& shared,
                std::vector<MasterWires*> columns);

  BitLevelLayer(const BitLevelLayer&) = delete;
  BitLevelLayer& operator=(const BitLevelLayer&) = delete;

  /// Wires modelled (each pin counts one), not registry entries.
  std::size_t signal_count() const noexcept { return signal_count_; }

 private:
  SharedWires& sh_;
  std::vector<MasterWires*> cols_;

  std::unique_ptr<sim::BitVector> haddr_bits_;
  std::unique_ptr<sim::BitVector> hwdata_bits_;
  std::unique_ptr<sim::BitVector> hrdata_bits_;
  std::unique_ptr<sim::Process> haddr_blast_;
  std::unique_ptr<sim::Process> hwdata_blast_;
  std::unique_ptr<sim::Process> hrdata_blast_;

  struct ColumnBits {
    std::unique_ptr<sim::BitVector> haddr_bits;
    std::unique_ptr<sim::Process> blast;
    std::unique_ptr<sim::Signal<std::uint8_t>> step;
    std::unique_ptr<sim::Process> step_proc;
    std::unique_ptr<RippleIncrementer> incr;
  };
  std::vector<ColumnBits> col_bits_;

  std::size_t signal_count_ = 0;
};

}  // namespace ahbp::rtl
