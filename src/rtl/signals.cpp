#include "rtl/signals.hpp"

#include <string>

namespace ahbp::rtl {

namespace {
std::string mname(unsigned i, const char* leaf) {
  // Appended, not `"lit" + std::string`: GCC 12 -O3 flags that with a
  // false-positive -Wrestrict.
  return std::string("m").append(std::to_string(i)).append(".").append(leaf);
}
}  // namespace

MasterWires::MasterWires(sim::EventKernel& k, unsigned i)
    : hbusreq(k, mname(i, "hbusreq")),
      hlock(k, mname(i, "hlock")),
      haddr(k, mname(i, "haddr")),
      htrans(k, mname(i, "htrans")),
      hburst(k, mname(i, "hburst")),
      hsize(k, mname(i, "hsize")),
      hwrite(k, mname(i, "hwrite")),
      hwdata(k, mname(i, "hwdata")),
      req_addr(k, mname(i, "req_addr")),
      req_dir(k, mname(i, "req_dir")),
      req_burst(k, mname(i, "req_burst")),
      req_size(k, mname(i, "req_size")),
      req_beats(k, mname(i, "req_beats")),
      wbuf_stream(k, mname(i, "wbuf_stream")) {}

SharedWires::SharedWires(sim::EventKernel& k, unsigned masters,
                         unsigned banks)
    : hmaster(k, "hmaster", ahb::kNoMaster),
      hmaster_data(k, "hmaster_data", ahb::kNoMaster),
      haddr(k, "haddr"),
      htrans(k, "htrans"),
      hburst(k, "hburst"),
      hsize(k, "hsize"),
      hwrite(k, "hwrite"),
      hwdata(k, "hwdata"),
      hready(k, "hready", true),
      hresp(k, "hresp"),
      hrdata(k, "hrdata"),
      wbuf_req(k, "wbuf_req"),
      wbuf_occupancy(k, "wbuf_occupancy"),
      wb_req_addr(k, "wb_req_addr"),
      wb_req_burst(k, "wb_req_burst"),
      wb_req_size(k, "wb_req_size"),
      wb_req_beats(k, "wb_req_beats"),
      bi_next_valid(k, "bi_next_valid"),
      bi_next_addr(k, "bi_next_addr"),
      bi_next_burst(k, "bi_next_burst"),
      bi_next_size(k, "bi_next_size"),
      bi_next_beats(k, "bi_next_beats"),
      bi_next_write(k, "bi_next_write"),
      bi_idle_mask(k, "bi_idle_mask"),
      bi_permit(k, "bi_permit", true),
      bi_remaining(k, "bi_remaining") {
  hgrant.reserve(masters + 1);
  wbuf_take.reserve(masters);
  wbuf_hazard.reserve(masters);
  for (unsigned i = 0; i <= masters; ++i) {
    hgrant.push_back(
        std::make_unique<Signal<bool>>(k, "hgrant" + std::to_string(i)));
  }
  for (unsigned i = 0; i < masters; ++i) {
    wbuf_take.push_back(
        std::make_unique<Signal<bool>>(k, "wbuf_take" + std::to_string(i)));
    wbuf_hazard.push_back(
        std::make_unique<Signal<bool>>(k, "wbuf_hazard" + std::to_string(i)));
  }
  bi_bank_state.reserve(banks);
  bi_open_row.reserve(banks);
  for (unsigned b = 0; b < banks; ++b) {
    bi_bank_state.push_back(std::make_unique<Signal<std::uint8_t>>(
        k, "bi_bank_state" + std::to_string(b)));
    bi_open_row.push_back(std::make_unique<Signal<std::uint32_t>>(
        k, "bi_open_row" + std::to_string(b)));
  }
}

}  // namespace ahbp::rtl
