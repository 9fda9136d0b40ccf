// ahbp_sim — run the AHB+ platform models without writing C++.
//
// The paper's TLM exists so architects can explore the design space early;
// this driver closes the loop: scenarios are small text files (or built-in
// presets), sweeps are scenario files with a [sweep] section of axis lists,
// and both execute through the exact `run_tlm` / `run_rtl` entry points the
// accuracy and speed claims are measured with.
//
//   ahbp_sim list
//   ahbp_sim show <scenario>
//   ahbp_sim run <scenario> [--model tlm|rtl|both] [--items N] [--seed S]
//                           [--vcd FILE] [--capture-trace DIR] [--csv]
//                           [--quiet] [--timeline FILE] [--stats-json FILE]
//                           [--progress] [--self-profile]
//   ahbp_sim checkpoint <scenario> --at N --out FILE [--model tlm|rtl]
//   ahbp_sim resume <checkpoint> [--vcd FILE] [--csv] [--quiet]
//   ahbp_sim sweep <spec> [--jobs N]
//                         [--model tlm|rtl|both] [--csv FILE]
//                         [--warmup-cycles N] [--speed] [--progress]
//                         [--sensitivity]
//   ahbp_sim lint <scenario|sweep> [--warmup-cycles N] [--strict]
//   ahbp_sim trace info <file>
//   ahbp_sim trace slice <file> --out FILE --first N [--count K]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/compare.hpp"
#include "core/platform.hpp"
#include "obs/selfprof.hpp"
#include "obs/timeline.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/analyze.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "traffic/stimulus.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace ahbp;

int usage(std::ostream& os, int code) {
  os << "usage: ahbp_sim <command> [args]\n"
        "\n"
        "  list                      list built-in scenarios\n"
        "  show <scenario>           print a scenario as a scenario file\n"
        "  run <scenario>            simulate one scenario\n"
        "      --model tlm|rtl|both  model(s) to run (default tlm)\n"
        "      --items N             transactions per master (preset default"
        " otherwise)\n"
        "      --seed S              traffic seed (preset default otherwise)\n"
        "      --vcd FILE            dump RTL waveform (rtl/both only)\n"
        "      --capture-trace DIR   record every master's transaction"
        " stream\n"
        "                            to DIR/masterK.trace + a ready-to-run\n"
        "                            DIR/replay.scenario (single model"
        " only)\n"
        "      --csv                 machine-readable per-master report\n"
        "      --quiet               summary line only\n"
        "      --timeline FILE       write a Chrome-trace-event timeline\n"
        "                            (load in Perfetto / chrome://tracing)\n"
        "      --stats-json FILE     dump every counter, per-master stall\n"
        "                            attribution and violations as JSON\n"
        "      --progress            heartbeat to stderr (cycle, wall time,\n"
        "                            kcycles/s) roughly once a second\n"
        "      --self-profile        table of where the simulator's own wall\n"
        "                            clock went (per kernel component)\n"
        "  checkpoint <scenario>     run to a cycle and snapshot the"
        " platform\n"
        "      --at N                bus cycle to checkpoint at\n"
        "      --out FILE            checkpoint file\n"
        "      --model tlm|rtl       model to snapshot (default tlm)\n"
        "      --items N / --seed S  as for run\n"
        "  resume <checkpoint>       restore a checkpoint and run to"
        " completion\n"
        "      --vcd FILE            dump RTL waveform from the restore"
        " point\n"
        "      --csv / --quiet       as for run\n"
        "  sweep <spec>              expand and run a sweep file\n"
        "      --jobs N              worker threads (default 1, 0 = all"
        " cores)\n"
        "      --sensitivity         per-axis report after the table: how"
        " far\n"
        "                            cycles moved when only that axis"
        " varied\n"
        "      --model tlm|rtl|both  model(s) per point (default tlm)\n"
        "      --warmup-cycles N     simulate the base config N cycles once\n"
        "                            and fork every point from the snapshot\n"
        "      --csv FILE            write per-point outcomes as CSV\n"
        "      --speed               add kcycles/sec columns (wall-clock"
        " dependent)\n"
        "      --progress            per-point completion heartbeat to"
        " stderr\n"
        "      --max-cycle-error P   with --model both: fail when any"
        " point's\n"
        "                            TLM-vs-RTL cycle error exceeds P"
        " percent\n"
        "  lint <scenario|sweep>     static analysis without simulating:\n"
        "                            parse/validate, pre-validate traces,\n"
        "                            provable timeouts, bandwidth"
        " oversubscription,\n"
        "                            channel imbalance, axis hygiene\n"
        "      --warmup-cycles N     also flag warm-up fork hazards (axes"
        " that\n"
        "                            demote points to cold runs or cannot"
        " fork)\n"
        "      --strict              exit nonzero on warnings too\n"
        "  trace <action> <file>     inspect / cut a recorded trace:\n"
        "      info                  record, beat, gap and address summary\n"
        "      slice                 write records [--first N, +--count K)\n"
        "                            as a standalone trace; needs --out"
        " FILE\n"
        "\n"
        "<scenario> is a built-in name (see list) or a scenario file path.\n"
        "A master with 'pattern = trace' and 'trace = FILE' replays a\n"
        "recorded transaction stream; run, sweep, checkpoint and resume all\n"
        "accept trace-driven scenarios.\n";
  return code;
}

void print_run(const core::SimResult& r, bool csv, bool quiet) {
  std::cout << r.model << ": " << (r.finished ? "finished" : "TIMED OUT")
            << " at cycle " << r.cycles << ", " << r.completed
            << " transactions, " << r.protocol_errors << " protocol errors, "
            << r.qos_warnings << " QoS warnings, "
            << stats::fmt_double(core::kcycles_per_sec(r), 0) << " kcycles/s\n";
  if (r.protocol_errors != 0 && !r.first_violations.empty()) {
    std::cout << r.first_violations << "\n";
  }
  if (quiet) {
    return;
  }
  std::cout << "\n";
  if (csv) {
    stats::print_csv(std::cout, r.profile);
  } else {
    stats::print_report(std::cout, r.profile, r.model + " run profile");
  }
  std::cout << "\n";
}

/// Write `script` to `path` as a text trace.
void write_trace_file(const std::string& path,
                      const traffic::Script& script) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  traffic::save_trace(os, script);
  if (!os) {
    throw std::runtime_error("error writing '" + path + "'");
  }
}

/// Write every master's captured stream to `dir`/masterK.trace plus a
/// ready-to-run `dir`/replay.scenario whose masters replay the captures.
void write_capture_dir(const core::Platform& p,
                       const core::PlatformConfig& cfg,
                       const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  core::PlatformConfig replay = cfg;
  for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
    const std::string path =
        (fs::path(dir) / ("master" + std::to_string(m) + ".trace")).string();
    write_trace_file(path,
                     p.capture(static_cast<ahb::MasterId>(m)).captured());
    traffic::StimulusSpec& spec = replay.masters[m].traffic;
    spec.source = traffic::StimulusSource::kTrace;
    spec.trace_path = path;
    spec.trace_text.clear();
  }
  const std::string scn = (fs::path(dir) / "replay.scenario").string();
  std::ofstream os(scn);
  if (!os) {
    throw std::runtime_error("cannot open '" + scn + "' for writing");
  }
  os << scenario::serialize(replay);
  std::cout << "captured " << cfg.masters.size() << " master trace(s) to "
            << dir << "\nreplay with: ahbp_sim run " << scn
            << " [--model tlm|rtl|both]\n";
}

/// One model's share of `run`: capture when requested, then run to
/// completion.  `tl` and `sp` may be shared between both models of a
/// `--model both` run (each model registers its own timeline process /
/// "tlm."-vs-"rtl." phases).
core::SimResult run_model(const core::PlatformConfig& cfg,
                          core::ModelKind kind, std::ostream* vcd_os,
                          const std::string& capture_dir,
                          obs::Timeline* tl, obs::SelfProfiler* sp,
                          bool progress) {
  core::Platform p(cfg, kind);
  if (vcd_os != nullptr) {
    p.enable_vcd(*vcd_os);
  }
  if (!capture_dir.empty()) {
    p.enable_capture();
  }
  if (tl != nullptr) {
    p.enable_timeline(*tl);
  }
  if (sp != nullptr) {
    p.enable_self_profile(*sp);
  }
  if (progress) {
    p.set_progress(&std::cerr);
  }
  p.run_to_completion();
  if (tl != nullptr) {
    tl->finalize(p.now());
  }
  if (!capture_dir.empty()) {
    write_capture_dir(p, cfg, capture_dir);
  }
  return p.result();
}

/// Render the self-profiler's per-phase table (sorted by registration
/// order: platform setup first, then kernel components).
void print_self_profile(const obs::SelfProfiler& sp) {
  std::cout << "self-profile ("
            << stats::fmt_double(static_cast<double>(sp.total_ns()) / 1e6, 2)
            << " ms instrumented):\n";
  stats::TextTable t({"phase", "calls", "total ms", "avg us"});
  for (const auto& ph : sp.phases()) {
    const double avg_us =
        ph.calls == 0 ? 0.0
                      : static_cast<double>(ph.ns) / 1e3 /
                            static_cast<double>(ph.calls);
    t.add_row({ph.name, std::to_string(ph.calls),
               stats::fmt_double(static_cast<double>(ph.ns) / 1e6, 2),
               stats::fmt_double(avg_us, 3)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

int cmd_list() {
  stats::TextTable t({"name", "description"});
  for (const auto& e : scenario::ScenarioRegistry::builtin().entries()) {
    t.add_row({e.name, e.description});
  }
  t.print(std::cout);
  std::cout << "\nTable-1 rows also answer to letter aliases"
               " (table1/cpu-a == table1/cpu-1).\n";

  return 0;
}

int cmd_show(const std::string& name) {
  std::cout << scenario::serialize(scenario::load_scenario(name));
  return 0;
}

int cmd_run(const std::string& name, const std::string& model_s,
            unsigned items, std::uint64_t seed, const std::string& vcd_path,
            const std::string& capture_dir, bool csv, bool quiet,
            const std::string& timeline_path,
            const std::string& stats_json_path, bool progress,
            bool self_profile) {
  sweep::Model model = sweep::Model::kTlm;
  if (!sweep::model_from_string(model_s, model)) {
    std::cerr << "unknown model '" << model_s << "' (tlm, rtl, both)\n";
    return 2;
  }
  const core::PlatformConfig cfg = scenario::load_scenario(name, items, seed);
  if (cfg.masters.empty()) {
    std::cerr << "scenario '" << name << "' defines no masters\n";
    return 2;
  }
  if (!vcd_path.empty() && model == sweep::Model::kTlm) {
    std::cerr << "--vcd needs the signal-level model (--model rtl|both)\n";
    return 2;
  }
  if (!capture_dir.empty() && model == sweep::Model::kBoth) {
    // Captured gaps are one model's observed think times; pick whose.
    std::cerr << "--capture-trace records one model's stream: pick --model"
                 " tlm or rtl (the capture replays in both)\n";
    return 2;
  }

  // The timeline and the self-profiler are shared across models: one
  // trace file with a "tlm" and an "rtl" process, one phase table with
  // both prefixes.
  obs::Timeline timeline;
  obs::Timeline* tl = timeline_path.empty() ? nullptr : &timeline;
  obs::SelfProfiler profiler;
  obs::SelfProfiler* sp = self_profile ? &profiler : nullptr;

  core::SimResult tlm, rtl;
  bool ran_tlm = false, ran_rtl = false;
  if (model != sweep::Model::kRtl) {
    tlm = run_model(cfg, core::ModelKind::kTlm, nullptr, capture_dir, tl, sp,
                    progress);
    ran_tlm = true;
    print_run(tlm, csv, quiet);
  }
  if (model != sweep::Model::kTlm) {
    std::ofstream vcd;
    std::ostream* vcd_os = nullptr;
    if (!vcd_path.empty()) {
      vcd.open(vcd_path);
      if (!vcd) {
        std::cerr << "cannot open '" << vcd_path << "' for writing\n";
        return 2;
      }
      vcd_os = &vcd;
    }
    rtl = run_model(cfg, core::ModelKind::kRtl, vcd_os, capture_dir, tl, sp,
                    progress);
    ran_rtl = true;
    print_run(rtl, csv, quiet);
    if (vcd_os != nullptr) {
      std::cout << "waveform written to " << vcd_path
                << " (open with gtkwave)\n";
    }
  }

  if (tl != nullptr) {
    std::ofstream os(timeline_path);
    if (!os) {
      std::cerr << "cannot open '" << timeline_path << "' for writing\n";
      return 2;
    }
    timeline.write(os);
    std::cout << "timeline written to " << timeline_path
              << " (load in Perfetto or chrome://tracing)\n";
  }
  if (!stats_json_path.empty()) {
    std::ofstream os(stats_json_path);
    if (!os) {
      std::cerr << "cannot open '" << stats_json_path << "' for writing\n";
      return 2;
    }
    os << "{\"runs\": [";
    if (ran_tlm) {
      core::write_stats_json(os, tlm);
    }
    if (ran_rtl) {
      if (ran_tlm) {
        os << ", ";
      }
      core::write_stats_json(os, rtl);
    }
    os << "]}\n";
    std::cout << "stats written to " << stats_json_path << "\n";
  }
  if (sp != nullptr) {
    print_self_profile(profiler);
  }
  if (ran_tlm && ran_rtl && rtl.cycles != 0) {
    std::cout << "tlm vs rtl: " << tlm.cycles << " vs " << rtl.cycles
              << " cycles, error "
              << stats::fmt_percent(core::cycle_error(tlm, rtl)) << "\n";
  }

  const bool ok = (!ran_tlm || (tlm.finished && tlm.protocol_errors == 0)) &&
                  (!ran_rtl || (rtl.finished && rtl.protocol_errors == 0));
  return ok ? 0 : 1;
}

int cmd_checkpoint(const std::string& name, const std::string& model_s,
                   unsigned items, std::uint64_t seed, std::uint64_t at,
                   const std::string& out) {
  core::ModelKind model = core::ModelKind::kTlm;
  if (!core::model_kind_from_string(model_s, model)) {
    std::cerr << "unknown model '" << model_s
              << "' (checkpoint snapshots one model: tlm or rtl)\n";
    return 2;
  }
  core::PlatformConfig cfg = scenario::load_scenario(name, items, seed);
  if (cfg.masters.empty()) {
    std::cerr << "scenario '" << name << "' defines no masters\n";
    return 2;
  }
  if (at == 0 || out.empty()) {
    std::cerr << "checkpoint needs --at N and --out FILE\n";
    return 2;
  }

  core::Platform p(cfg, model);
  p.run(at);
  core::write_checkpoint_file(out, p, scenario::serialize(cfg));
  std::cout << "checkpoint written to " << out << " at cycle " << p.now()
            << " (" << core::to_string(model) << ", "
            << (p.finished() ? "workload already drained" : "mid-run")
            << ")\n";
  // max_cycles can stop the run short: the snapshot is then taken earlier
  // than asked.
  if (p.now() < at && !p.finished()) {
    std::cerr << "note: max_cycles (" << cfg.max_cycles
              << ") stopped the run before cycle " << at << "\n";
  }
  return 0;
}

int cmd_resume(const std::string& path, const std::string& vcd_path, bool csv,
               bool quiet) {
  state::StateReader r = state::StateReader::from_file(path);
  const core::CheckpointInfo info = core::read_checkpoint_header(r);
  core::ModelKind model = core::ModelKind::kTlm;
  if (!core::model_kind_from_string(info.model, model)) {
    std::cerr << "checkpoint names unknown model '" << info.model << "'\n";
    return 2;
  }
  if (!vcd_path.empty() && model != core::ModelKind::kRtl) {
    std::cerr << "--vcd needs an rtl checkpoint\n";
    return 2;
  }
  core::PlatformConfig cfg = scenario::parse(info.scenario_text);
  // Trace-backed masters resume from the embedded capture — the original
  // trace files need not exist anymore (self-describing snapshot).
  core::apply_embedded_traces(cfg, info);

  core::Platform p(cfg, model);
  std::ofstream vcd;
  if (!vcd_path.empty()) {
    vcd.open(vcd_path);
    if (!vcd) {
      std::cerr << "cannot open '" << vcd_path << "' for writing\n";
      return 2;
    }
    p.enable_vcd(vcd);
  }
  p.restore_state(r);
  r.expect_end();
  std::cout << "resumed " << core::to_string(model) << " from cycle "
            << p.now() << " (" << path << ")\n";
  p.run_to_completion();
  const core::SimResult res = p.result();
  print_run(res, csv, quiet);
  if (!vcd_path.empty()) {
    std::cout << "waveform written to " << vcd_path
              << " (open with gtkwave)\n";
  }
  return res.finished && res.protocol_errors == 0 ? 0 : 1;
}

int cmd_sweep(const std::string& path, const std::string& model_s,
              unsigned jobs,
              const std::string& csv_path, bool speed,
              double max_cycle_error, std::uint64_t warmup_cycles,
              bool progress, bool sensitivity) {
  sweep::Model model = sweep::Model::kTlm;
  if (!sweep::model_from_string(model_s, model)) {
    std::cerr << "unknown model '" << model_s << "' (tlm, rtl, both)\n";
    return 2;
  }
  if (max_cycle_error >= 0.0 && model != sweep::Model::kBoth) {
    std::cerr << "--max-cycle-error needs --model both\n";
    return 2;
  }
  const sweep::SweepSpec spec = sweep::parse_spec_file(path);
  const auto points = sweep::expand(spec);
  std::cout << "sweep: " << points.size() << " configurations ("
            << spec.axes.size() << " axes), base '" << spec.base << "'";
  if (warmup_cycles > 0) {
    std::cout << ", forked from a " << warmup_cycles
              << "-cycle warm-up of the base";
  }
  std::cout << "\n\n";

  std::mutex progress_mu;
  sweep::SweepRunner runner(jobs);
  if (progress) {
    runner.set_progress([&progress_mu](std::size_t done, std::size_t total) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      std::cerr << "# sweep: " << done << "/" << total << " points done\n";
    });
  }
  const std::vector<sweep::PointOutcome> outcomes =
      runner.run(points, model, spec.base_config, warmup_cycles);

  stats::TextTable table = sweep::aggregate_table(outcomes, model, speed);
  table.print(std::cout);

  if (sensitivity) {
    if (spec.axes.empty()) {
      std::cout << "\nsensitivity: the spec has no [sweep] axes — nothing"
                   " varies\n";
    } else {
      for (const bool use_rtl : {false, true}) {
        if ((use_rtl && model == sweep::Model::kTlm) ||
            (!use_rtl && model == sweep::Model::kRtl)) {
          continue;
        }
        std::cout << "\nper-axis sensitivity ("
                  << (use_rtl ? "rtl" : "tlm") << " cycles):\n";
        sweep::sensitivity_table(
            sweep::sensitivity(spec, outcomes, use_rtl))
            .print(std::cout);
      }
    }
  }

  if (!csv_path.empty()) {
    std::ofstream csv_os(csv_path);
    if (!csv_os) {
      std::cerr << "cannot open '" << csv_path << "' for writing\n";
      return 2;
    }
    sweep::write_point_csv(csv_os, outcomes, model);
    std::cout << "\nper-point outcomes written to " << csv_path << "\n";
  }

  int failures = 0;
  for (const auto& o : outcomes) {
    bool bad =
        !o.error.empty() ||
        (o.has_tlm && (!o.tlm.finished || o.tlm.protocol_errors != 0)) ||
        (o.has_rtl && (!o.rtl.finished || o.rtl.protocol_errors != 0));
    // Accuracy gate: the Table-1 contract says the TLM tracks the RTL
    // cycle count; a point whose error exceeds the budget is a failure.
    if (!bad && max_cycle_error >= 0.0 && o.has_tlm && o.has_rtl &&
        o.cycle_error() * 100.0 > max_cycle_error) {
      std::cout << "point " << o.index << " (" << o.label
                << "): cycle error "
                << stats::fmt_percent(o.cycle_error()) << " exceeds "
                << stats::fmt_double(max_cycle_error, 2) << "%\n";
      bad = true;
    }
    failures += bad ? 1 : 0;
  }
  if (failures != 0) {
    std::cout << "\n" << failures << " of " << outcomes.size()
              << " configurations failed\n";
  }
  return failures == 0 ? 0 : 1;
}

int cmd_trace(const std::string& action, const std::string& path,
              const std::string& out_path, std::uint64_t first,
              std::uint64_t count) {
  if (action != "info" && action != "slice") {
    std::cerr << "unknown trace action '" << action << "' (info, slice)\n";
    return 2;
  }
  if (action == "slice" && out_path.empty()) {
    std::cerr << "trace slice needs --out FILE\n";
    return 2;
  }

  traffic::StimulusSpec file;
  file.source = traffic::StimulusSource::kTrace;
  file.trace_path = path;
  traffic::resolve(file);
  traffic::Script script;
  try {
    script = traffic::load_trace(file.trace_text, 0);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("trace '" + path + "': " + e.what());
  }

  if (action == "info") {
    std::cout << "file:    " << path << " (" << file.trace_text.size()
              << " bytes)\n";
    std::uint64_t reads = 0, writes = 0, beats = 0, moved = 0, gaps = 0;
    for (const traffic::TrafficItem& item : script) {
      (item.txn.dir == ahb::Dir::kRead ? reads : writes) += 1;
      beats += item.txn.beats;
      moved += item.txn.bytes();
      gaps += item.gap;
    }
    std::cout << "records: " << script.size() << " (" << reads << " reads, "
              << writes << " writes)\n"
              << "beats:   " << beats << " (" << moved << " bytes moved)\n"
              << "gaps:    " << gaps << " think-time cycles\n";
    if (!script.empty()) {
      ahb::Addr lo = script[0].txn.addr, hi = script[0].txn.addr;
      for (const traffic::TrafficItem& item : script) {
        lo = std::min(lo, item.txn.addr);
        hi = std::max(hi, item.txn.addr + item.txn.bytes());
      }
      std::cout << "addresses: [0x" << std::hex << lo << ", 0x" << hi
                << std::dec << ")\n";
    }
    return 0;
  }

  const std::uint64_t from = std::min<std::uint64_t>(first, script.size());
  const std::uint64_t take =
      std::min<std::uint64_t>(count, script.size() - from);
  traffic::Script window(
      script.begin() + static_cast<std::ptrdiff_t>(from),
      script.begin() + static_cast<std::ptrdiff_t>(from + take));
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i].txn.id = i + 1;  // a slice is a standalone script
  }
  write_trace_file(out_path, window);
  std::cout << "sliced records [" << first << ", " << first + window.size()
            << ") of " << path << " -> " << out_path << " ("
            << window.size() << " record(s))\n";
  return 0;
}

int cmd_lint(const std::string& ref, std::uint64_t warmup_cycles,
             bool strict) {
  sweep::LintOptions opts;
  opts.warmup_cycles = warmup_cycles;
  const sweep::LintReport report = sweep::lint_ref(ref, opts);
  sweep::write_report(std::cout, report);
  if (!report.ok()) {
    return 1;
  }
  return strict && report.warnings() != 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage(std::cerr, 2);
  }
  const std::string cmd = args[0];

  // Collect options and positionals uniformly; which options each command
  // accepts is checked afterwards so irrelevant flags error instead of
  // being silently ignored.
  std::vector<std::string> given_options;
  std::vector<std::string> positionals;  // most commands take 1; trace takes 2
  std::string model = "tlm";
  std::string vcd_path;
  std::string csv_path;      // sweep --csv FILE
  std::string out_path;      // checkpoint/trace --out FILE
  std::string capture_dir;   // run --capture-trace DIR
  std::string timeline_path;    // run --timeline FILE
  std::string stats_json_path;  // run --stats-json FILE
  unsigned items = 0;
  std::uint64_t seed = 0;
  std::uint64_t at_cycle = 0;        // checkpoint --at N
  std::uint64_t warmup_cycles = 0;   // sweep --warmup-cycles N
  std::uint64_t first = 0;                    // trace slice --first N
  std::uint64_t count = ~std::uint64_t{0};    // trace slice --count K
  unsigned jobs = 1;
  bool csv = false, quiet = false, speed = false;
  bool progress = false, self_profile = false, strict = false;
  bool sensitivity = false;    // sweep --sensitivity
  double max_cycle_error = -1.0;  // negative = gate off

  const auto need_value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      std::cerr << args[i] << " needs a value\n";
      std::exit(2);
    }
    return args[++i];
  };
  // Digits only: stoul("-1") would wrap to a huge count and try to
  // generate billions of transactions.
  const auto need_unsigned = [&](std::size_t& i,
                                 std::uint64_t max) -> std::uint64_t {
    const std::string flag = args[i];
    const std::string v = need_value(i);
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << flag << " needs a non-negative integer, got '" << v
                << "'\n";
      std::exit(2);
    }
    try {
      const std::uint64_t x = std::stoull(v);
      if (x > max) {
        throw std::out_of_range(v);
      }
      return x;
    } catch (const std::exception&) {
      std::cerr << flag << " value out of range: '" << v << "'\n";
      std::exit(2);
    }
  };

  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (!a.empty() && a[0] == '-' && a != "--help" && a != "-h") {
      given_options.push_back(a);
    }
    if (a == "--model") {
      model = need_value(i);
    } else if (a == "--items") {
      items = static_cast<unsigned>(need_unsigned(i, 100'000'000));
      if (items == 0) {
        std::cerr << "--items must be nonzero (omit the flag for the"
                     " scenario's default)\n";
        return 2;
      }
    } else if (a == "--seed") {
      seed = need_unsigned(i, ~std::uint64_t{0});
      if (seed == 0) {
        std::cerr << "--seed must be nonzero (omit the flag for the"
                     " scenario's default)\n";
        return 2;
      }
    } else if (a == "--vcd") {
      vcd_path = need_value(i);
    } else if (a == "--capture-trace") {
      capture_dir = need_value(i);
      if (capture_dir.empty() || capture_dir[0] == '-') {
        std::cerr << "--capture-trace needs a directory path, got '"
                  << capture_dir << "'\n";
        return 2;
      }
    } else if (a == "--first") {
      first = need_unsigned(i, ~std::uint64_t{0});
    } else if (a == "--count") {
      count = need_unsigned(i, ~std::uint64_t{0});
    } else if (a == "--at") {
      at_cycle = need_unsigned(i, ~std::uint64_t{0});
      if (at_cycle == 0) {
        std::cerr << "--at must be a nonzero cycle\n";
        return 2;
      }
    } else if (a == "--out") {
      out_path = need_value(i);
    } else if (a == "--warmup-cycles") {
      warmup_cycles = need_unsigned(i, ~std::uint64_t{0});
    } else if (a == "--jobs") {
      jobs = static_cast<unsigned>(need_unsigned(i, 4096));
    } else if (a == "--sensitivity") {
      sensitivity = true;
    } else if (a == "--max-cycle-error") {
      const std::string flag = a;
      const std::string v = need_value(i);
      try {
        std::size_t pos = 0;
        max_cycle_error = std::stod(v, &pos);
        // The negated form also rejects NaN (which would silently
        // disable the gate: any comparison against NaN is false).
        if (pos != v.size() || !(max_cycle_error >= 0.0) ||
            !std::isfinite(max_cycle_error)) {
          throw std::invalid_argument(v);
        }
      } catch (const std::exception&) {
        std::cerr << flag << " needs a non-negative percentage, got '" << v
                  << "'\n";
        return 2;
      }
    } else if (a == "--csv") {
      // `sweep --csv FILE` writes per-point outcomes; for run/resume the
      // flag switches the on-screen report to CSV.
      if (cmd == "sweep") {
        csv_path = need_value(i);
        if (!csv_path.empty() && csv_path[0] == '-') {
          std::cerr << "sweep --csv needs a file path, got '" << csv_path
                    << "'\n";
          return 2;
        }
      } else {
        csv = true;
      }
    } else if (a == "--timeline") {
      timeline_path = need_value(i);
      if (timeline_path.empty() || timeline_path[0] == '-') {
        std::cerr << "--timeline needs a file path, got '" << timeline_path
                  << "'\n";
        return 2;
      }
    } else if (a == "--stats-json") {
      stats_json_path = need_value(i);
      if (stats_json_path.empty() || stats_json_path[0] == '-') {
        std::cerr << "--stats-json needs a file path, got '"
                  << stats_json_path << "'\n";
        return 2;
      }
    } else if (a == "--strict") {
      strict = true;
    } else if (a == "--progress") {
      progress = true;
    } else if (a == "--self-profile") {
      self_profile = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--speed") {
      speed = true;
    } else if (a == "--help" || a == "-h") {
      return usage(std::cout, 0);
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "unknown option '" << a << "'\n";
      return usage(std::cerr, 2);
    } else if (positionals.size() < (cmd == "trace" ? 2u : 1u)) {
      positionals.push_back(a);
    } else {
      std::cerr << "unexpected argument '" << a << "'\n";
      return usage(std::cerr, 2);
    }
  }
  const std::string positional = positionals.empty() ? "" : positionals[0];

  const auto check_options =
      [&](std::initializer_list<const char*> allowed) -> bool {
    for (const std::string& o : given_options) {
      bool ok = false;
      for (const char* a : allowed) {
        ok = ok || o == a;
      }
      if (!ok) {
        std::cerr << "'" << cmd << "' does not take " << o << "\n";
        return false;
      }
    }
    return true;
  };

  try {
    if (cmd == "list") {
      if (!check_options({})) {
        return 2;
      }
      return cmd_list();
    }
    if (cmd == "help" || cmd == "--help" || cmd == "-h") {
      return usage(std::cout, 0);
    }
    if (positional.empty()) {
      std::cerr << cmd << " needs a scenario argument\n";
      return usage(std::cerr, 2);
    }
    if (cmd == "show") {
      if (!check_options({})) {
        return 2;
      }
      return cmd_show(positional);
    }
    if (cmd == "run") {
      if (!check_options({"--model", "--items", "--seed", "--vcd",
                          "--capture-trace", "--csv",
                          "--quiet", "--timeline", "--stats-json",
                          "--progress", "--self-profile"})) {
        return 2;
      }
      return cmd_run(positional, model, items, seed, vcd_path, capture_dir,
                     csv, quiet, timeline_path, stats_json_path, progress,
                     self_profile);
    }
    if (cmd == "trace") {
      if (!check_options({"--out", "--first", "--count"})) {
        return 2;
      }
      if (positionals.size() < 2) {
        std::cerr << "trace needs an action and a file: trace"
                     " info|slice <file>\n";
        return 2;
      }
      return cmd_trace(positionals[0], positionals[1], out_path, first,
                       count);
    }
    if (cmd == "checkpoint") {
      if (!check_options({"--model", "--items", "--seed", "--at", "--out"})) {
        return 2;
      }
      return cmd_checkpoint(positional, model, items, seed, at_cycle,
                            out_path);
    }
    if (cmd == "resume") {
      if (!check_options({"--vcd", "--csv", "--quiet"})) {
        return 2;
      }
      return cmd_resume(positional, vcd_path, csv, quiet);
    }
    if (cmd == "sweep") {
      if (!check_options({"--jobs", "--model", "--csv", "--speed",
                          "--max-cycle-error", "--warmup-cycles",
                          "--progress", "--sensitivity"})) {
        return 2;
      }
      return cmd_sweep(positional, model, jobs, csv_path,
                       speed, max_cycle_error, warmup_cycles, progress,
                       sensitivity);
    }
    if (cmd == "lint") {
      if (!check_options({"--warmup-cycles", "--strict"})) {
        return 2;
      }
      return cmd_lint(positional, warmup_cycles, strict);
    }
    std::cerr << "unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
  } catch (const scenario::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
