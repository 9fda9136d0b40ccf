#include "sweep/runner.hpp"

#include <atomic>
#include <exception>
#include <ostream>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/compare.hpp"
#include "obs/stall.hpp"
#include "state/snapshot.hpp"

namespace ahbp::sweep {

bool model_from_string(std::string_view name, Model& out) {
  if (name == "tlm") {
    out = Model::kTlm;
  } else if (name == "rtl") {
    out = Model::kRtl;
  } else if (name == "both") {
    out = Model::kBoth;
  } else {
    return false;
  }
  return true;
}

double PointOutcome::cycle_error() const noexcept {
  if (!has_tlm || !has_rtl) {
    return 0.0;
  }
  return core::cycle_error(tlm, rtl);
}

std::vector<PointOutcome> SweepRunner::run(
    const std::vector<SweepPoint>& points, Model model) const {
  return run(points, model, core::PlatformConfig{}, 0);
}

void warm_snapshots(const core::PlatformConfig& base, Model model,
                    sim::Cycle warmup_cycles,
                    std::vector<std::uint8_t>& warm_tlm,
                    std::vector<std::uint8_t>& warm_rtl) {
  warm_tlm.clear();
  warm_rtl.clear();
  if (warmup_cycles == 0) {
    return;
  }
  if (model == Model::kTlm || model == Model::kBoth) {
    core::Platform p(base, core::ModelKind::kTlm);
    p.run(warmup_cycles);
    state::StateWriter w;
    p.save_state(w);
    warm_tlm = w.finish();
  }
  if (model == Model::kRtl || model == Model::kBoth) {
    core::Platform p(base, core::ModelKind::kRtl);
    p.run(warmup_cycles);
    state::StateWriter w;
    p.save_state(w);
    warm_rtl = w.finish();
  }
}

namespace {

core::SimResult run_one_model(const core::PlatformConfig& cfg,
                              core::ModelKind kind,
                              const std::vector<std::uint8_t>& snapshot,
                              bool& demoted) {
  if (!snapshot.empty()) {
    try {
      core::Platform p(cfg, kind);
      state::StateReader r(snapshot.data(), snapshot.size());
      p.restore_state(r);
      p.run_to_completion();
      return p.result();
    } catch (const state::ForkDivergence&) {
      // The point's stimulus diverged from the warm base before the fork
      // point: the warm state is not this configuration's history.  Run
      // it cold — exact, just without the fork speedup.  Structural
      // mismatches stay fatal (plain StateError propagates).
      demoted = true;
    }
  }
  core::Platform p(cfg, kind);
  p.run_to_completion();
  return p.result();
}

}  // namespace

PointOutcome simulate_point(const SweepPoint& point, Model model,
                            const std::vector<std::uint8_t>& warm_tlm,
                            const std::vector<std::uint8_t>& warm_rtl) {
  PointOutcome o;
  o.index = point.index;
  o.label = point.label;
  try {
    if (model == Model::kTlm || model == Model::kBoth) {
      o.tlm = run_one_model(point.config, core::ModelKind::kTlm, warm_tlm,
                            o.demoted);
      o.has_tlm = true;
    }
    if (model == Model::kRtl || model == Model::kBoth) {
      o.rtl = run_one_model(point.config, core::ModelKind::kRtl, warm_rtl,
                            o.demoted);
      o.has_rtl = true;
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  } catch (...) {
    o.error = "unknown simulation failure";
  }
  return o;
}

std::vector<PointOutcome> SweepRunner::run(
    const std::vector<SweepPoint>& points, Model model,
    const core::PlatformConfig& base, sim::Cycle warmup_cycles) const {
  std::vector<PointOutcome> outcomes(points.size());

  // Warm the shared prefix up once per model — serial, before the fan-out —
  // and freeze it.  Workers only ever *read* the snapshot bytes.
  std::vector<std::uint8_t> warm_tlm, warm_rtl;
  warm_snapshots(base, model, warmup_cycles, warm_tlm, warm_rtl);

  std::atomic<std::size_t> done{0};
  const auto simulate = [&](std::size_t i) {
    outcomes[i] = simulate_point(points[i], model, warm_tlm, warm_rtl);
    if (progress_) {
      progress_(done.fetch_add(1, std::memory_order_relaxed) + 1,
                points.size());
    }
  };

  unsigned jobs = jobs_ == 0 ? std::thread::hardware_concurrency() : jobs_;
  if (jobs == 0) {
    jobs = 1;
  }
  if (jobs > points.size()) {
    jobs = static_cast<unsigned>(points.size());
  }

  if (jobs <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      simulate(i);
    }
    return outcomes;
  }

  // Work-stealing by atomic counter: each worker grabs the next unclaimed
  // index.  Writes land in outcomes[i], so completion order is irrelevant.
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= points.size()) {
          return;
        }
        simulate(i);
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  return outcomes;
}

stats::TextTable aggregate_table(const std::vector<PointOutcome>& outcomes,
                                 Model model, bool include_speed) {
  const bool both = model == Model::kBoth;
  const bool tlm = model != Model::kRtl;
  const bool rtl = model != Model::kTlm;

  std::vector<std::string> headers{"#", "configuration"};
  if (tlm) {
    headers.push_back("tlm cycles");
  }
  if (rtl) {
    headers.push_back("rtl cycles");
  }
  if (both) {
    headers.push_back("error");
  }
  headers.push_back("txns");
  headers.push_back("qos warn");
  headers.push_back("errors");
  if (include_speed && tlm) {
    headers.push_back("tlm kcyc/s");
  }
  if (include_speed && rtl) {
    headers.push_back("rtl kcyc/s");
  }
  stats::TextTable table(std::move(headers));

  for (const PointOutcome& o : outcomes) {
    std::vector<std::string> row{
        std::to_string(o.index),
        o.demoted ? o.label + " [cold]" : o.label};
    const core::SimResult& primary = o.has_tlm ? o.tlm : o.rtl;
    const auto cycles_cell = [](bool has, const core::SimResult& r) {
      if (!has) {
        return std::string("-");
      }
      return r.finished ? std::to_string(r.cycles)
                        : std::to_string(r.cycles) + " (timeout)";
    };
    if (tlm) {
      row.push_back(cycles_cell(o.has_tlm, o.tlm));
    }
    if (rtl) {
      row.push_back(cycles_cell(o.has_rtl, o.rtl));
    }
    if (both) {
      row.push_back(o.has_tlm && o.has_rtl
                        ? stats::fmt_percent(o.cycle_error())
                        : "-");
    }
    if (!o.error.empty()) {
      row.push_back("FAILED: " + o.error);
      row.push_back("-");
      row.push_back("-");
    } else {
      row.push_back(std::to_string(primary.completed));
      row.push_back(std::to_string(o.has_rtl ? o.rtl.qos_warnings
                                             : o.tlm.qos_warnings));
      row.push_back(std::to_string(primary.protocol_errors));
    }
    if (include_speed && tlm) {
      row.push_back(o.has_tlm
                        ? stats::fmt_double(core::kcycles_per_sec(o.tlm), 0)
                        : "-");
    }
    if (include_speed && rtl) {
      row.push_back(o.has_rtl
                        ? stats::fmt_double(core::kcycles_per_sec(o.rtl), 0)
                        : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

namespace {

/// Minimal CSV quoting: wrap fields containing separators/quotes/newlines.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

void point_cells(std::ostream& os, bool has, const core::SimResult& r) {
  if (!has) {
    // One comma per column emitted below: 8 counters + the 6 stall classes.
    os << ",,,,,,,,,,,,,,";
    return;
  }
  os << ',' << (r.finished ? 1 : 0) << ',' << r.cycles << ',' << r.ran_cycles
     << ',' << r.completed << ',' << r.protocol_errors << ','
     << r.qos_warnings << ',' << r.profile.bus.grants << ','
     << r.profile.bus.bytes;
  // Stall attribution, summed across masters (per-master detail lives in
  // `run --stats-json`; the sweep table wants one column per class).
  for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
    std::uint64_t sum = 0;
    for (const stats::MasterProfile& m : r.profile.masters) {
      sum += m.stalls.cycles[c];
    }
    os << ',' << sum;
  }
}

}  // namespace

void write_point_csv(std::ostream& os,
                     const std::vector<PointOutcome>& outcomes, Model model) {
  const bool tlm = model != Model::kRtl;
  const bool rtl = model != Model::kTlm;
  os << "index,label";
  const auto model_header = [&os](const char* prefix) {
    os << ',' << prefix << "_finished," << prefix << "_cycles," << prefix
       << "_ran_cycles," << prefix << "_completed," << prefix
       << "_protocol_errors," << prefix << "_qos_warnings," << prefix
       << "_grants," << prefix << "_bus_bytes";
    for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
      os << ',' << prefix << "_stall_"
         << obs::to_string(static_cast<obs::StallClass>(c));
    }
  };
  if (tlm) {
    model_header("tlm");
  }
  if (rtl) {
    model_header("rtl");
  }
  if (tlm && rtl) {
    os << ",cycle_error";
  }
  os << ",demoted,error\n";

  for (const PointOutcome& o : outcomes) {
    os << o.index << ',' << csv_field(o.label);
    if (tlm) {
      point_cells(os, o.has_tlm, o.tlm);
    }
    if (rtl) {
      point_cells(os, o.has_rtl, o.rtl);
    }
    if (tlm && rtl) {
      os << ',';
      if (o.has_tlm && o.has_rtl) {
        os << stats::fmt_double(o.cycle_error(), 6);
      }
    }
    os << ',' << (o.demoted ? 1 : 0) << ',' << csv_field(o.error) << '\n';
  }
}

}  // namespace ahbp::sweep
