// Reproduces the paper's §4 simulation-speed comparison:
//
//   "At RTL, it is 0.47 Kcycles/sec, and at TL, 166 Kcycles/sec.  When we
//    used only one master ... the simulation speed went up to 456
//    Kcycles/sec. ... the implemented model is 353 times faster than RTL."
//
// We report the same three rows (pin-accurate reference, TLM multi-master,
// TLM single-master), an idle-heavy TLM row (rt-3) and the speedup factor,
// with the kernel activity that explains the gap (delta rounds, signal
// commits, process activations per cycle vs one direct call per master
// and one for the bus).  Absolute numbers are hardware- and substrate-dependent; the
// shape under test is TLM >> signal-level, and single-master > loaded TLM.
//
// Usage: bench_speed [items-per-master] [json-path]

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "stats/report.hpp"

namespace {

/// Timed runs per row.  A best-of-3 row moved by up to ±30% between runs
/// on a shared host; the median of 5 is steadier and is written with the
/// min and IQR of its runs.
constexpr unsigned kReps = 5;

/// One row: a config and its timed runs, sorted by throughput once
/// measured.  With 5 runs the median is run 2 and the linearly
/// interpolated quartiles fall exactly on runs 1 and 3.
struct Row {
  Row(const ahbp::core::PlatformConfig& c, bool r) : cfg(&c), rtl(r) {}

  const ahbp::core::PlatformConfig* cfg;
  bool rtl;
  std::vector<ahbp::core::SimResult> runs;

  const ahbp::core::SimResult& median() const { return runs[2]; }
  double kcps(std::size_t i) const {
    return ahbp::core::kcycles_per_sec(runs[i]);
  }
  double iqr() const { return kcps(3) - kcps(1); }
};
static_assert(kReps == 5, "Row picks its median and quartiles for 5 runs");

/// Time every row kReps times, round-robin: a host slowdown lasting a few
/// seconds then costs every row a little instead of sinking one, which
/// is what the gate's cross-row normalisation needs.
void measure(std::initializer_list<Row*> rows) {
  for (unsigned i = 0; i < kReps; ++i) {
    for (Row* row : rows) {
      row->runs.push_back(row->rtl ? ahbp::core::run_rtl(*row->cfg)
                                   : ahbp::core::run_tlm(*row->cfg));
    }
  }
  for (Row* row : rows) {
    std::sort(row->runs.begin(), row->runs.end(),
              [](const auto& a, const auto& b) {
                return ahbp::core::kcycles_per_sec(a) <
                       ahbp::core::kcycles_per_sec(b);
              });
  }
}

/// The measurement config: checkers off, a cycle cap far out of reach.
ahbp::core::PlatformConfig measured(ahbp::core::PlatformConfig cfg) {
  cfg.enable_checkers = false;
  cfg.max_cycles = 100'000'000;
  return cfg;
}

/// One instrumented run per model: a *separate* platform from the timed
/// runs above (the ScopedTimer pairs would distort them), giving
/// the per-component wall-clock breakdown BENCH_SPEED.json records.
ahbp::obs::SelfProfiler profile_model(const ahbp::core::PlatformConfig& cfg,
                                      ahbp::core::ModelKind kind) {
  ahbp::obs::SelfProfiler sp;
  ahbp::core::Platform p(cfg, kind);
  p.enable_self_profile(sp);
  p.run_to_completion();
  return sp;
}

void model_json(ahbp::obs::JsonWriter& j, const char* key, const Row& row) {
  const ahbp::core::SimResult& r = row.median();
  j.key(key)
      .begin_object()
      .member("kcycles_per_sec", ahbp::core::kcycles_per_sec(r))
      .member("reps", kReps)
      .member("kcycles_per_sec_min", row.kcps(0))
      .member("kcycles_per_sec_iqr", row.iqr())
      .member("cycles", static_cast<std::uint64_t>(r.ran_cycles))
      .member("wall_seconds", r.wall_seconds)
      .member("kernel_activity", r.kernel_activity)
      .end_object();
}

void add_row(ahbp::stats::TextTable& t, const char* label, const Row& row,
             const char* activity_unit) {
  using ahbp::stats::fmt_double;
  const ahbp::core::SimResult& r = row.median();
  t.add_row({label, fmt_double(ahbp::core::kcycles_per_sec(r), 1),
             fmt_double(row.iqr(), 1), std::to_string(r.ran_cycles),
             fmt_double(r.wall_seconds, 3),
             fmt_double(static_cast<double>(r.kernel_activity) /
                            static_cast<double>(r.ran_cycles),
                        2) +
                 activity_unit});
}

void phases_json(ahbp::obs::JsonWriter& j, const char* key,
                 const ahbp::obs::SelfProfiler& sp) {
  j.key(key).begin_array();
  for (const auto& ph : sp.phases()) {
    j.begin_object()
        .member("name", ph.name)
        .member("calls", ph.calls)
        .member("total_ms", static_cast<double>(ph.ns) / 1e6)
        .end_object();
  }
  j.end_array();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ahbp;
  // 20000 items: about 0.75M simulated cycles per row, far above timer
  // noise for every model.
  const unsigned items = bench::count_arg(
      argc, argv, 1, 20000, "bench_speed [items-per-master] [json-path]");
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_SPEED.json";

  std::cout << "=== Simulation speed (paper §4) ===\n"
            << "    workload: Table-1 'cpu-1' mix, " << items
            << " txns/master, checkers off (measurement config),"
               " median of " << kReps << " runs per row\n\n";

  const auto cfg = measured(core::table1_workloads(items, 3)[0].config);
  const auto single =
      measured(core::single_master_workload(items * 4, 3).config);

  // The Table-1 RT mix is the idle-heavy member of the preset family
  // (periodic real-time streams leave long provably idle stretches), so it
  // is the row where the platform's idle leaping shows.
  const auto rt_cfg =
      measured(core::table1_workloads(items, 3)[10].config);  // rt-3

  Row rtl(cfg, true), tlm(cfg, false), tlm1(single, false),
      tlm_rt(rt_cfg, false);
  measure({&rtl, &tlm, &tlm1, &tlm_rt});

  const double rtl_k = core::kcycles_per_sec(rtl.median());
  const double tlm_k = core::kcycles_per_sec(tlm.median());
  const double tlm1_k = core::kcycles_per_sec(tlm1.median());

  stats::TextTable t({"model", "Kcycles/s", "IQR", "cycles", "wall s",
                      "kernel activity / cycle"});
  add_row(t, "signal-level reference", rtl, " delta rounds");
  add_row(t, "AHB+ TLM (4 masters)", tlm, " component evals");
  add_row(t, "AHB+ TLM (1 master)", tlm1, " component evals");
  add_row(t, "AHB+ TLM (rt-3 mix)", tlm_rt, " component evals");
  t.print(std::cout);

  std::cout << "\nTLM vs reference speedup : "
            << stats::fmt_double(tlm_k / rtl_k, 1)
            << "x   (paper: 353x against a commercial RTL simulation of the"
               " full netlist)\n";
  std::cout << "single-master TLM uplift : "
            << stats::fmt_double(tlm1_k / tlm_k, 2)
            << "x over loaded TLM (paper: 456 vs 166 Kcycles/s = 2.75x)\n";

  // Where the simulators' own time goes, from separate instrumented runs
  // (instrumentation would distort the timed numbers above).
  const obs::SelfProfiler tlm_prof = profile_model(cfg, core::ModelKind::kTlm);
  const obs::SelfProfiler rtl_prof = profile_model(cfg, core::ModelKind::kRtl);

  // Shape: TLM >> signal-level, single-master > loaded (the speed side is
  // gated against the committed artifact by tools/check_bench_speed.py).
  const bool shape_ok = tlm_k > rtl_k * 3.0 && tlm1_k > tlm_k;

  std::ofstream json_os(json_path);
  if (!json_os) {
    std::cerr << "cannot open '" << json_path << "' for writing\n";
    return 1;
  }
  {
    obs::JsonWriter j(json_os);
    j.begin_object().member("items", items);
    j.key("models").begin_object();
    model_json(j, "rtl", rtl);
    model_json(j, "tlm", tlm);
    model_json(j, "tlm_single", tlm1);
    model_json(j, "tlm_rt", tlm_rt);
    j.end_object();
    j.member("speedup_tlm_vs_rtl", rtl_k > 0.0 ? tlm_k / rtl_k : 0.0)
        .member("single_master_uplift", tlm_k > 0.0 ? tlm1_k / tlm_k : 0.0);
    j.key("phases").begin_object();
    phases_json(j, "tlm", tlm_prof);
    phases_json(j, "rtl", rtl_prof);
    j.end_object();
    j.member("shape_ok", shape_ok).end_object();
  }
  json_os << '\n';
  json_os.close();
  std::cout << "\nmachine-readable results written to " << json_path << "\n";

  std::cout << "\nRESULT: " << (shape_ok ? "OK" : "FAIL")
            << " (shape: TLM >> signal-level, single-master > loaded)\n";
  return shape_ok ? 0 : 1;
}
