#include "core/compare.hpp"

#include <algorithm>
#include <cmath>

namespace ahbp::core {

double cycle_error(const SimResult& tlm, const SimResult& rtl) {
  if (rtl.cycles == 0) {
    return 0.0;
  }
  return std::abs(static_cast<double>(tlm.cycles) -
                  static_cast<double>(rtl.cycles)) /
         static_cast<double>(rtl.cycles);
}

AccuracyRow compare_models(const Workload& w) {
  const SimResult rtl = run_rtl(w.config);
  const SimResult tlm = run_tlm(w.config);
  AccuracyRow row;
  row.name = w.name;
  row.rtl_cycles = rtl.cycles;
  row.tlm_cycles = tlm.cycles;
  row.both_finished = rtl.finished && tlm.finished;
  row.protocol_errors = rtl.protocol_errors + tlm.protocol_errors;
  row.error = cycle_error(tlm, rtl);
  return row;
}

AccuracySuite compare_suite(const std::vector<Workload>& workloads) {
  AccuracySuite s;
  double sum = 0.0;
  for (const Workload& w : workloads) {
    s.rows.push_back(compare_models(w));
    sum += s.rows.back().error;
    s.worst_error = std::max(s.worst_error, s.rows.back().error);
  }
  if (!s.rows.empty()) {
    s.average_error = sum / static_cast<double>(s.rows.size());
  }
  return s;
}

}  // namespace ahbp::core
