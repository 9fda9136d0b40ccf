#pragma once

#include <memory>
#include <vector>

#include "ahb/types.hpp"
#include "sim/event_kernel.hpp"

/// \file signals.hpp
/// The pin-level AHB+ signal bundle.
///
/// Every wire of the bus fabric exists as a two-phase `Signal`, named after
/// its AMBA 2.0 counterpart, plus the AHB+ extensions: the request sideband
/// (each master advertises its next transaction with its HBUSREQ, enabling
/// request pipelining and the BI hint), the write-buffer handshake, and the
/// BI bundle between arbiter and DDRC.
///
/// This model pays the full pin-accurate cost on purpose: each clock edge
/// re-evaluates master/arbiter/write-buffer/DDRC processes, every signal
/// write that changes a value runs the two-phase commit with subscriber
/// wake-ups, and the address/data muxes settle combinationally through
/// delta cycles.  Rewriting a wire with the value it already holds is not
/// an event, exactly as in an HDL simulator, so it costs only the compare.
/// The speed gap against the method-based TLM (paper §4) is exactly this
/// machinery.

namespace ahbp::rtl {

using sim::Signal;

/// Signals driven by one master (its private column of the fabric).
struct MasterWires {
  MasterWires(sim::EventKernel& k, unsigned i);

  Signal<bool> hbusreq;
  Signal<bool> hlock;
  // Address-phase outputs (muxed onto the shared bus when granted).
  Signal<std::uint64_t> haddr;
  Signal<std::uint8_t> htrans;
  Signal<std::uint8_t> hburst;
  /// HSIZE encodes log2(bytes per beat), up to the configured
  /// `BusConfig::data_width_bytes` (1/2/4/8; the `ahb.hsize-width` checker
  /// rule enforces the ceiling).  A beat occupies the low size_bytes lanes
  /// of HWDATA/HRDATA — the uint64 signal payload carries any legal width.
  Signal<std::uint8_t> hsize;
  Signal<std::uint8_t> hwrite;
  Signal<std::uint64_t> hwdata;
  // AHB+ request sideband: the pending transaction's descriptor, valid
  // while hbusreq is high (powers request pipelining + BI hints).
  Signal<std::uint64_t> req_addr;
  Signal<std::uint8_t> req_dir;
  Signal<std::uint8_t> req_burst;
  Signal<std::uint8_t> req_size;
  Signal<std::uint32_t> req_beats;
  // Write-buffer streaming strobe: master is pushing buffered-write data.
  Signal<bool> wbuf_stream;
};

/// Shared fabric signals (one instance per platform).
struct SharedWires {
  SharedWires(sim::EventKernel& k, unsigned masters, unsigned banks);

  // Arbiter outputs.  (Signals are identity objects pinned to kernel
  // registration, hence unique_ptr storage for the per-index wires.)
  std::vector<std::unique_ptr<Signal<bool>>> hgrant;  ///< per master (+1: WB)
  Signal<std::uint8_t> hmaster;       ///< address-phase owner
  /// Data-phase owner (AMBA's delayed HMASTER): the write-data mux must
  /// switch one accepted transfer *after* the address mux, or a handover
  /// overlapping a write's data tail would sample the new owner's HWDATA.
  Signal<std::uint8_t> hmaster_data;
  // Muxed address/control/write-data (outputs of the mux processes).
  Signal<std::uint64_t> haddr;
  Signal<std::uint8_t> htrans;
  Signal<std::uint8_t> hburst;
  Signal<std::uint8_t> hsize;
  Signal<std::uint8_t> hwrite;
  Signal<std::uint64_t> hwdata;
  // Slave (DDRC) outputs.
  Signal<bool> hready;
  Signal<std::uint8_t> hresp;
  Signal<std::uint64_t> hrdata;

  // --- write-buffer handshake ---
  std::vector<std::unique_ptr<Signal<bool>>> wbuf_take;  ///< WB absorbs m[i]
  Signal<bool> wbuf_req;                ///< WB pseudo-master request
  Signal<std::uint32_t> wbuf_occupancy;
  std::vector<std::unique_ptr<Signal<bool>>> wbuf_hazard;  ///< RAW block
  // WB drain sideband (the WB advertises its front like a master would).
  Signal<std::uint64_t> wb_req_addr;
  Signal<std::uint8_t> wb_req_burst;
  Signal<std::uint8_t> wb_req_size;
  Signal<std::uint32_t> wb_req_beats;

  // --- BI bundle (§3.4) ---
  // Downstream (arbiter -> DDRC): next transaction information, announced
  // at bus handover so the controller can prep the bank and knows the
  // burst's true length before the address phase arrives.
  Signal<bool> bi_next_valid;
  Signal<std::uint64_t> bi_next_addr;
  Signal<std::uint8_t> bi_next_burst;
  Signal<std::uint8_t> bi_next_size;
  Signal<std::uint32_t> bi_next_beats;
  Signal<bool> bi_next_write;
  // Upstream (DDRC -> arbiter): bank states / open rows / permission /
  // progress of the current transfer (for request pipelining).  With a
  // sharded DDR subsystem the bank wires span every channel,
  // channel-major: channel k's banks start at ChannelSet::bank_base(k).
  std::vector<std::unique_ptr<Signal<std::uint8_t>>> bi_bank_state;
  std::vector<std::unique_ptr<Signal<std::uint32_t>>> bi_open_row;
  Signal<std::uint32_t> bi_idle_mask;
  Signal<bool> bi_permit;
  Signal<std::uint32_t> bi_remaining;
};

/// Helpers to pack enums onto uint8 signals.
inline std::uint8_t pack(ahb::Trans t) { return static_cast<std::uint8_t>(t); }
inline std::uint8_t pack(ahb::Burst b) { return static_cast<std::uint8_t>(b); }
inline std::uint8_t pack(ahb::Size s) { return static_cast<std::uint8_t>(s); }
inline std::uint8_t pack(ahb::Dir d) { return static_cast<std::uint8_t>(d); }
inline ahb::Trans unpack_trans(std::uint8_t v) { return static_cast<ahb::Trans>(v); }
inline ahb::Burst unpack_burst(std::uint8_t v) { return static_cast<ahb::Burst>(v); }
inline ahb::Size unpack_size(std::uint8_t v) { return static_cast<ahb::Size>(v); }
inline ahb::Dir unpack_dir(std::uint8_t v) { return static_cast<ahb::Dir>(v); }

}  // namespace ahbp::rtl
