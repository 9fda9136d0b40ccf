#pragma once

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/workloads.hpp"

/// \file compare.hpp
/// TLM-vs-RTL accuracy comparison — the machinery behind Table 1.

namespace ahbp::core {

/// The Table-1 accuracy metric: |tlm - rtl| / rtl total cycles (0 when the
/// RTL count is 0).  One definition for run reports, sweep tables, the
/// accuracy suite and the equivalence tests.
double cycle_error(const SimResult& tlm, const SimResult& rtl);

/// One row of the accuracy table.
struct AccuracyRow {
  std::string name;
  sim::Cycle rtl_cycles = 0;
  sim::Cycle tlm_cycles = 0;
  double error = 0.0;  ///< |tlm - rtl| / rtl
  bool both_finished = false;
  std::size_t protocol_errors = 0;  ///< across both models (must be 0)
};

/// Run a workload on both models and compare total cycles.
AccuracyRow compare_models(const Workload& w);

/// Run the whole suite.  Average error uses the arithmetic mean of row
/// errors (the paper reports "average accuracy difference").
struct AccuracySuite {
  std::vector<AccuracyRow> rows;
  double average_error = 0.0;
  double worst_error = 0.0;
};
AccuracySuite compare_suite(const std::vector<Workload>& workloads);

}  // namespace ahbp::core
