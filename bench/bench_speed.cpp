// Reproduces the paper's §4 simulation-speed comparison:
//
//   "At RTL, it is 0.47 Kcycles/sec, and at TL, 166 Kcycles/sec.  When we
//    used only one master ... the simulation speed went up to 456
//    Kcycles/sec. ... the implemented model is 353 times faster than RTL."
//
// We report the same three rows (pin-accurate reference, TLM multi-master,
// TLM single-master) plus the speedup factor, along with the kernel
// activity that explains the gap (delta rounds, signal commits, process
// activations per cycle vs two virtual calls per component).  Absolute
// numbers are hardware- and substrate-dependent; the shape under test is
// TLM >> signal-level, and single-master TLM > loaded TLM.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "obs/json.hpp"
#include "obs/selfprof.hpp"
#include "rtl/fabric.hpp"
#include "stats/report.hpp"

namespace {

ahbp::core::SimResult best_of(unsigned reps,
                              const ahbp::core::PlatformConfig& cfg,
                              bool rtl) {
  ahbp::core::SimResult best;
  for (unsigned i = 0; i < reps; ++i) {
    auto r = rtl ? ahbp::core::run_rtl(cfg) : ahbp::core::run_tlm(cfg);
    if (i == 0 || r.wall_seconds < best.wall_seconds) {
      best = std::move(r);
    }
  }
  return best;
}

/// The reference model with the RT-detail + bit-level layers stripped —
/// architectural wires only.  The fidelity knob's speed side (tests pin
/// the behaviour side: cycle-identical either way).
ahbp::core::SimResult run_rtl_arch_only(
    const ahbp::core::PlatformConfig& cfg) {
  using namespace ahbp;
  rtl::RtlFabric fabric(cfg, core::expand_stimulus(cfg), /*rt_detail=*/false);
  const auto t0 = std::chrono::steady_clock::now();
  const sim::Cycle ran = fabric.run(cfg.max_cycles);
  const auto t1 = std::chrono::steady_clock::now();
  core::SimResult r;
  r.model = "rtl-arch";
  r.finished = fabric.finished();
  r.ran_cycles = ran;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.kernel_activity = fabric.kernel().stats().deltas;
  return r;
}

/// One instrumented run per model: a *separate* platform from the timed
/// best-of runs above (the ScopedTimer pairs would distort them), giving
/// the per-component wall-clock breakdown BENCH_SPEED.json records.
ahbp::obs::SelfProfiler profile_model(const ahbp::core::PlatformConfig& cfg,
                                      ahbp::core::ModelKind kind) {
  ahbp::obs::SelfProfiler sp;
  ahbp::core::Platform p(cfg, kind);
  p.enable_self_profile(sp);
  p.run_to_completion();
  return sp;
}

void model_json(ahbp::obs::JsonWriter& j, const ahbp::core::SimResult& r) {
  j.begin_object()
      .member("kcycles_per_sec", ahbp::core::kcycles_per_sec(r))
      .member("cycles", static_cast<std::uint64_t>(r.ran_cycles))
      .member("wall_seconds", r.wall_seconds)
      .member("kernel_activity", r.kernel_activity)
      .end_object();
}

void phases_json(ahbp::obs::JsonWriter& j, const ahbp::obs::SelfProfiler& sp) {
  j.begin_array();
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
  const unsigned items =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 3000;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_SPEED.json";

  std::cout << "=== Simulation speed (paper §4) ===\n"
            << "    workload: Table-1 'cpu-1' mix, " << items
            << " txns/master, checkers off (measurement config)\n\n";

  auto cfg = core::table1_workloads(items, 3)[0].config;
  cfg.enable_checkers = false;
  cfg.max_cycles = 100'000'000;

  auto single = core::single_master_workload(items * 4, 3).config;
  single.enable_checkers = false;
  single.max_cycles = 100'000'000;

  // The Table-1 RT mix is the idle-heavy member of the preset family
  // (periodic real-time streams leave long provably idle stretches), so it
  // is the row where the platform's idle leaping shows.
  auto rt_cfg = core::table1_workloads(items, 3)[10].config;  // rt-3
  rt_cfg.enable_checkers = false;
  rt_cfg.max_cycles = 100'000'000;

  const auto rtl = best_of(3, cfg, true);
  const auto arch = run_rtl_arch_only(cfg);
  const auto tlm = best_of(3, cfg, false);
  const auto tlm1 = best_of(3, single, false);
  const auto tlm_rt = best_of(3, rt_cfg, false);

  const double rtl_k = core::kcycles_per_sec(rtl);
  const double arch_k = core::kcycles_per_sec(arch);
  const double tlm_k = core::kcycles_per_sec(tlm);
  const double tlm1_k = core::kcycles_per_sec(tlm1);
  const double rt_k = core::kcycles_per_sec(tlm_rt);

  stats::TextTable t({"model", "Kcycles/s", "cycles", "wall s",
                      "kernel activity / cycle"});
  t.add_row({"signal-level reference", stats::fmt_double(rtl_k, 1),
             std::to_string(rtl.ran_cycles),
             stats::fmt_double(rtl.wall_seconds, 3),
             stats::fmt_double(static_cast<double>(rtl.kernel_activity) /
                                   static_cast<double>(rtl.ran_cycles),
                               2) +
                 " delta rounds"});
  t.add_row({"  (architectural wires only)", stats::fmt_double(arch_k, 1),
             std::to_string(arch.ran_cycles),
             stats::fmt_double(arch.wall_seconds, 3),
             stats::fmt_double(static_cast<double>(arch.kernel_activity) /
                                   static_cast<double>(arch.ran_cycles),
                               2) +
                 " delta rounds"});
  t.add_row({"AHB+ TLM (4 masters)", stats::fmt_double(tlm_k, 1),
             std::to_string(tlm.ran_cycles),
             stats::fmt_double(tlm.wall_seconds, 3),
             stats::fmt_double(static_cast<double>(tlm.kernel_activity) /
                                   static_cast<double>(tlm.ran_cycles),
                               2) +
                 " component evals"});
  t.add_row({"AHB+ TLM (1 master)", stats::fmt_double(tlm1_k, 1),
             std::to_string(tlm1.ran_cycles),
             stats::fmt_double(tlm1.wall_seconds, 3),
             stats::fmt_double(static_cast<double>(tlm1.kernel_activity) /
                                   static_cast<double>(tlm1.ran_cycles),
                               2) +
                 " component evals"});
  t.add_row({"AHB+ TLM (rt-3 mix)", stats::fmt_double(rt_k, 1),
             std::to_string(tlm_rt.ran_cycles),
             stats::fmt_double(tlm_rt.wall_seconds, 3),
             stats::fmt_double(static_cast<double>(tlm_rt.kernel_activity) /
                                   static_cast<double>(tlm_rt.ran_cycles),
                               2) +
                 " component evals"});
  t.print(std::cout);

  std::cout << "\nTLM vs reference speedup : "
            << stats::fmt_double(tlm_k / rtl_k, 1)
            << "x   (paper: 353x against a commercial RTL simulation of the"
               " full netlist)\n";
  std::cout << "single-master TLM uplift : "
            << stats::fmt_double(tlm1_k / tlm_k, 2)
            << "x over loaded TLM (paper: 456 vs 166 Kcycles/s = 2.75x)\n";

  // Where the simulators' own time goes, from separate instrumented runs
  // (instrumentation would distort the timed best-of numbers above).
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
    j.key("rtl");
    model_json(j, rtl);
    j.key("rtl_arch");
    model_json(j, arch);
    j.key("tlm");
    model_json(j, tlm);
    j.key("tlm_single");
    model_json(j, tlm1);
    j.key("tlm_rt");
    model_json(j, tlm_rt);
    j.end_object();
    j.member("speedup_tlm_vs_rtl", rtl_k > 0.0 ? tlm_k / rtl_k : 0.0)
        .member("single_master_uplift", tlm_k > 0.0 ? tlm1_k / tlm_k : 0.0);
    j.key("phases").begin_object();
    j.key("tlm");
    phases_json(j, tlm_prof);
    j.key("rtl");
    phases_json(j, rtl_prof);
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
