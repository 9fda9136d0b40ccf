#include "sweep/analyze.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "scenario/lexer.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "traffic/generator.hpp"

namespace ahbp::sweep {

namespace {

using core::PlatformConfig;

void add(LintReport& r, LintSeverity sev, std::string check,
         std::string where, std::string message) {
  r.findings.push_back(
      {sev, std::move(check), std::move(where), std::move(message)});
}

// ------------------------------------------------------------ per-config --

/// Demand summary of one master's expanded script.
struct ScriptDemand {
  std::uint64_t gaps = 0;   ///< total think-time cycles
  std::uint64_t beats = 0;  ///< total bus beats (>= 1 bus cycle each)
  std::uint64_t bytes = 0;
  std::set<std::uint32_t> channels;  ///< memory channels the addresses hit
};

ScriptDemand summarize(const traffic::Script& script,
                       const PlatformConfig& cfg) {
  ScriptDemand d;
  for (const traffic::TrafficItem& it : script) {
    d.gaps += it.gap;
    d.beats += it.txn.beats;
    d.bytes += it.txn.bytes();
    if (it.txn.addr >= cfg.ddr_base) {
      d.channels.insert(cfg.interleave.channel_of(it.txn.addr - cfg.ddr_base));
    }
  }
  return d;
}

void check_config(LintReport& r, const PlatformConfig& cfg,
                  const std::string& where) {
  // Whole-config invariants (aperture vs capacity x channels, stripe
  // divisibility, channel-override ranges) — the analyzer surfaces the
  // same errors `run` would, but before any cycles are spent.
  try {
    scenario::validate(cfg);
  } catch (const scenario::ScenarioError& e) {
    add(r, LintSeverity::kError, "config/validate", where, e.what());
    return;  // later checks assume a coherent config
  }

  // Expand the stimulus exactly as both models would: synthetic patterns
  // through the generator, traces parsed and validated against the bus
  // width and the DDR aperture.  This is the trace pre-validation pass.
  std::vector<traffic::Script> scripts;
  try {
    scripts = core::expand_stimulus(cfg);
  } catch (const std::exception& e) {
    add(r, LintSeverity::kError, "stimulus/expand", where, e.what());
    return;
  }

  // Feasibility: per master, gaps + beats is a provable lower bound on its
  // completion cycle (every beat occupies the bus for >= 1 cycle and gaps
  // are serial with its own transfers); beats summed over masters bound
  // the one shared bus.
  std::uint64_t slowest_master = 0;
  std::uint64_t total_beats = 0;
  std::uint64_t total_bytes = 0;
  std::vector<ScriptDemand> demands;
  demands.reserve(scripts.size());
  for (const traffic::Script& s : scripts) {
    demands.push_back(summarize(s, cfg));
    const ScriptDemand& d = demands.back();
    slowest_master = std::max(slowest_master, d.gaps + d.beats);
    total_beats += d.beats;
    total_bytes += d.bytes;
  }
  const std::uint64_t lower_bound = std::max(slowest_master, total_beats);
  const std::uint64_t budget = cfg.max_cycles;
  if (lower_bound > budget) {
    add(r, LintSeverity::kError, "timeout/provable", where,
        "workload cannot finish: completion needs at least " +
            std::to_string(lower_bound) + " cycles (" +
            std::to_string(total_beats) + " bus beats across " +
            std::to_string(scripts.size()) +
            " masters, slowest master needs " +
            std::to_string(slowest_master) +
            " including think time) but max_cycles = " +
            std::to_string(budget));
  } else if (budget > 0 && lower_bound > budget - budget / 5) {
    add(r, LintSeverity::kWarning, "timeout/estimate", where,
        "completion lower bound " + std::to_string(lower_bound) +
            " cycles is within 20% of max_cycles = " +
            std::to_string(budget) +
            " — arbitration and DDR latency sit on top of this bound, so"
            " the run is likely to hit the cycle limit unfinished");
  }

  // Bandwidth: offered bytes against the bus's peak transfer rate.
  const std::uint64_t peak_bytes =
      static_cast<std::uint64_t>(cfg.bus.data_width_bytes) * budget;
  if (peak_bytes > 0 && total_bytes > peak_bytes) {
    add(r, LintSeverity::kError, "bandwidth/oversubscribed", where,
        "masters offer " + std::to_string(total_bytes) +
            " bytes but the bus peaks at " +
            std::to_string(cfg.bus.data_width_bytes) +
            " bytes/cycle x max_cycles = " + std::to_string(peak_bytes) +
            " bytes — the workload cannot drain");
  } else if (peak_bytes > 0 && total_bytes * 100 > peak_bytes * 85) {
    add(r, LintSeverity::kWarning, "bandwidth/estimate", where,
        "offered traffic (" + std::to_string(total_bytes) +
            " bytes) uses over 85% of the bus's peak capacity (" +
            std::to_string(peak_bytes) +
            " bytes at " + std::to_string(cfg.bus.data_width_bytes) +
            " bytes/cycle) — DDR stalls make sustained rates well below"
            " peak");
  }

  // Channel balance: a master whose addresses land on a strict subset of a
  // multi-channel memory serializes behind that subset.
  if (cfg.interleave.channels > 1) {
    for (std::size_t m = 0; m < demands.size(); ++m) {
      const ScriptDemand& d = demands[m];
      if (!d.channels.empty() && d.channels.size() < cfg.interleave.channels) {
        add(r, LintSeverity::kWarning, "channels/unbalanced",
            where.empty() ? "master " + std::to_string(m)
                          : where + ", master " + std::to_string(m),
            "addresses touch only " + std::to_string(d.channels.size()) +
                " of " + std::to_string(cfg.interleave.channels) +
                " memory channels (window base/span vs the " +
                std::to_string(cfg.interleave.stripe_bytes) +
                "-byte stripe) — widen the window or coarsen the stripe"
                " for balanced channel load");
      }
    }
  }

}

// -------------------------------------------------------------- per-spec --

/// Dotted keys that change the expanded stimulus: a warm-up-forked point
/// whose value differs from the warm base diverges from the captured
/// prefix, and the runner demotes it to a cold run (sweep/runner.hpp).
bool is_stimulus_axis(std::string_view key) {
  if (key == "bus.data_width_bytes") {
    return true;  // beat width reshapes every synthetic script
  }
  const std::size_t dot = key.find('.');
  if (dot == std::string_view::npos ||
      key.substr(0, 6) != "master") {
    return false;
  }
  const std::string_view field = key.substr(dot + 1);
  for (const std::string_view f :
       {"seed", "items", "pattern", "trace", "base", "span", "read_ratio",
        "period", "mean_gap", "dma_burst_beats"}) {
    if (field == f) {
      return true;
    }
  }
  return false;
}

/// Dotted keys that change the platform's structure (component counts,
/// memory geometry): snapshots of the warm base cannot restore into them
/// at all, so a warm-up-forked sweep rejects these axes outright.
bool is_structural_axis(std::string_view key) {
  const std::size_t dot = key.find('.');
  if (dot == std::string_view::npos) {
    return false;
  }
  const std::string_view section = key.substr(0, dot);
  const std::string_view field = key.substr(dot + 1);
  if (section == "ddr" || section.substr(0, 7) == "channel") {
    for (const std::string_view f : {"channels", "stripe_bytes", "banks",
                                     "rows", "cols", "col_bytes"}) {
      if (field == f) {
        return true;
      }
    }
  }
  return false;
}

void check_axes(LintReport& r, const SweepSpec& spec,
                const LintOptions& opts) {
  std::map<std::string, std::size_t> first_axis;  // key -> axis index
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Axis& ax = spec.axes[a];
    const std::string where = "axis " + ax.key;

    const auto [it, inserted] = first_axis.emplace(ax.key, a);
    if (!inserted) {
      add(r, LintSeverity::kError, "axes/duplicate-key", where,
          "key is already swept by axis " + std::to_string(it->second + 1) +
              " — the later axis silently overwrites the earlier one in"
              " every point");
    }

    std::set<std::string> seen;
    for (const std::string& v : ax.values) {
      if (!seen.insert(v).second) {
        add(r, LintSeverity::kWarning, "axes/duplicate-value", where,
            "value '" + v +
                "' appears more than once — duplicate points simulate the"
                " same configuration twice");
      }
    }
    if (ax.values.size() == 1) {
      add(r, LintSeverity::kNote, "axes/constant", where,
          "single-value axis — fold '" + ax.key + " = " + ax.values[0] +
              "' into the scenario sections instead of the cross product");
    }

    if (opts.warmup_cycles > 0) {
      if (is_structural_axis(ax.key)) {
        add(r, LintSeverity::kError, "warmup/structural-axis", where,
            "axis changes the memory structure — a warm-up snapshot cannot"
            " restore into a different geometry, so 'sweep --warmup-cycles'"
            " rejects this sweep; drop the axis or run without warm-up"
            " forking");
      } else if (is_stimulus_axis(ax.key)) {
        add(r, LintSeverity::kWarning, "warmup/stimulus-axis", where,
            "axis changes the stimulus — points whose scripts diverge from"
            " the warm base within the first " +
                std::to_string(opts.warmup_cycles) +
                " warm-up cycles are demoted to cold runs (flagged in the"
                " per-point CSV), forfeiting the fork speedup");
      }
    }
  }

  if (opts.warmup_cycles > 0 &&
      opts.warmup_cycles >= spec.base_config.max_cycles) {
    add(r, LintSeverity::kError, "warmup/exceeds-max", "",
        "--warmup-cycles " + std::to_string(opts.warmup_cycles) +
            " is not below max_cycles = " +
            std::to_string(spec.base_config.max_cycles) +
            " — every point would end inside the warm-up");
  }
}

}  // namespace

std::string_view to_string(LintSeverity s) {
  switch (s) {
    case LintSeverity::kError: return "error";
    case LintSeverity::kWarning: return "warning";
    case LintSeverity::kNote: return "note";
  }
  return "unknown";
}

std::size_t LintReport::count(LintSeverity s) const noexcept {
  std::size_t n = 0;
  for (const LintFinding& f : findings) {
    n += f.severity == s ? 1 : 0;
  }
  return n;
}

LintReport lint_config(const core::PlatformConfig& cfg,
                       const LintOptions& opts) {
  LintReport r;
  check_config(r, cfg, "");
  if (opts.warmup_cycles > 0 && opts.warmup_cycles >= cfg.max_cycles) {
    add(r, LintSeverity::kError, "warmup/exceeds-max", "",
        "--warmup-cycles " + std::to_string(opts.warmup_cycles) +
            " is not below max_cycles = " + std::to_string(cfg.max_cycles));
  }
  return r;
}

LintReport lint_spec(const SweepSpec& spec, const LintOptions& opts) {
  LintReport r;
  r.is_sweep = true;
  r.points = spec.points();
  r.points_checked = 0;

  check_axes(r, spec, opts);

  // Per-point expansion, replicated from sweep::expand so one bad axis
  // combination is attributed to its point instead of aborting the whole
  // expansion at the first invalid configuration.
  std::vector<std::size_t> stride(spec.axes.size(), 1);
  for (std::size_t a = spec.axes.size(); a-- > 1;) {
    stride[a - 1] = stride[a] * spec.axes[a].values.size();
  }
  const std::size_t deep = std::min(r.points, opts.max_points);
  for (std::size_t i = 0; i < deep; ++i) {
    PlatformConfig cfg = spec.base_config;
    std::string label;
    bool applied = true;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const Axis& ax = spec.axes[a];
      const std::string& v = ax.values[(i / stride[a]) % ax.values.size()];
      if (!label.empty()) {
        label += ' ';
      }
      label += ax.key + "=" + v;
      try {
        scenario::apply_key(cfg, ax.key, v);
      } catch (const scenario::ScenarioError& e) {
        add(r, LintSeverity::kError, "point/apply",
            "point " + std::to_string(i) + " (" + label + ")", e.what());
        applied = false;
        break;
      }
    }
    if (applied) {
      const std::string where =
          "point " + std::to_string(i) + " (" +
          (label.empty() ? std::string("base") : label) + ")";
      check_config(r, cfg, where);
    }
    ++r.points_checked;
  }
  if (deep < r.points) {
    add(r, LintSeverity::kNote, "points/truncated", "",
        "deep-checked the first " + std::to_string(deep) + " of " +
            std::to_string(r.points) +
            " points (raise LintOptions::max_points to cover more)");
  }
  return r;
}

LintReport lint_text(std::string_view text, const LintOptions& opts) {
  // Sweep detection mirrors what distinguishes the formats: a [sweep]
  // section or a top-level `base =` line (both illegal in scenarios; a
  // `base` key *inside* a section is a master's address window, so only
  // the pre-section occurrence counts).
  bool is_sweep = false;
  try {
    bool in_section = false;
    scenario::lex::for_each_line(text, [&](const scenario::lex::Line& l) {
      if (l.kind == scenario::lex::Line::Kind::kSection) {
        in_section = true;
        if (l.section == "sweep") {
          is_sweep = true;
        }
      } else if (!in_section && l.key == "base") {
        is_sweep = true;
      }
    });
  } catch (const scenario::ScenarioError&) {
    // Lexical problems fall through to the parser below for a message
    // with line context.
  }

  LintReport r;
  if (is_sweep) {
    try {
      const SweepSpec spec = parse_spec(text);
      return lint_spec(spec, opts);
    } catch (const scenario::ScenarioError& e) {
      r.is_sweep = true;
      r.points = 0;
      r.points_checked = 0;
      add(r, LintSeverity::kError, "sweep/parse", "", e.what());
      return r;
    }
  }
  try {
    const core::PlatformConfig cfg = scenario::parse(text);
    return lint_config(cfg, opts);
  } catch (const scenario::ScenarioError& e) {
    add(r, LintSeverity::kError, "scenario/parse", "", e.what());
    return r;
  }
}

LintReport lint_ref(const std::string& ref, const LintOptions& opts) {
  if (scenario::ScenarioRegistry::builtin().find(ref) != nullptr) {
    return lint_config(scenario::ScenarioRegistry::builtin().build(ref),
                       opts);
  }
  std::ifstream in(ref);
  if (!in) {
    LintReport r;
    add(r, LintSeverity::kError, "input/unreadable", "",
        "'" + ref +
            "' is neither a built-in preset nor a readable scenario/sweep"
            " file");
    return r;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_text(ss.str(), opts);
}

void write_report(std::ostream& os, const LintReport& r) {
  for (const LintFinding& f : r.findings) {
    os << to_string(f.severity) << ": [" << f.check << "]";
    if (!f.where.empty()) {
      os << " " << f.where << ":";
    }
    os << " " << f.message << "\n";
  }
  os << "lint: " << r.errors() << " error(s), " << r.warnings()
     << " warning(s), " << r.count(LintSeverity::kNote) << " note(s)";
  if (r.is_sweep) {
    os << " across " << r.points << " point(s)";
    if (r.points_checked < r.points) {
      os << " (" << r.points_checked << " deep-checked)";
    }
  }
  os << "\n";
}

// ------------------------------------------------------------ sensitivity --

double AxisSensitivity::relative_spread() const noexcept {
  if (max_spread == 0 || min_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(max_spread) / static_cast<double>(min_cycles);
}

std::vector<AxisSensitivity> sensitivity(
    const SweepSpec& spec, const std::vector<PointOutcome>& outcomes,
    bool use_rtl) {
  // Strides mirror expand(): first axis slowest.  For axis `a`, deleting
  // its digit from a point index yields the group id — two points share a
  // group exactly when every *other* axis agrees.
  std::vector<std::size_t> stride(spec.axes.size(), 1);
  for (std::size_t a = spec.axes.size(); a-- > 1;) {
    stride[a - 1] = stride[a] * spec.axes[a].values.size();
  }

  const auto cycles_of = [&](const PointOutcome& o, std::uint64_t& out) {
    if (!o.error.empty()) {
      return false;
    }
    if (use_rtl ? !o.has_rtl : !o.has_tlm) {
      return false;
    }
    out = use_rtl ? o.rtl.cycles : o.tlm.cycles;
    return true;
  };

  std::vector<AxisSensitivity> report;
  report.reserve(spec.axes.size());
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const std::size_t size = spec.axes[a].values.size();
    AxisSensitivity s;
    s.key = spec.axes[a].key;
    s.values = size;
    const std::size_t group_count = outcomes.size() / std::max<std::size_t>(
                                                          size, 1);
    bool any_point = false;
    double spread_sum = 0.0;
    for (std::size_t g = 0; g < group_count; ++g) {
      // Re-insert axis `a`'s digit: high digits above it, low digits below.
      const std::size_t high = g / stride[a];
      const std::size_t low = g % stride[a];
      std::uint64_t gmin = 0, gmax = 0;
      std::size_t usable = 0;
      for (std::size_t v = 0; v < size; ++v) {
        const std::size_t i = (high * size + v) * stride[a] + low;
        std::uint64_t cycles = 0;
        if (i >= outcomes.size() || !cycles_of(outcomes[i], cycles)) {
          continue;
        }
        if (usable == 0) {
          gmin = gmax = cycles;
        } else {
          gmin = std::min(gmin, cycles);
          gmax = std::max(gmax, cycles);
        }
        ++usable;
        if (!any_point) {
          s.min_cycles = s.max_cycles = cycles;
          any_point = true;
        } else {
          s.min_cycles = std::min(s.min_cycles, cycles);
          s.max_cycles = std::max(s.max_cycles, cycles);
        }
      }
      if (usable >= 2) {
        const std::uint64_t spread = gmax - gmin;
        s.max_spread = std::max(s.max_spread, spread);
        spread_sum += static_cast<double>(spread);
        ++s.groups;
      }
    }
    if (s.groups > 0) {
      s.mean_spread = spread_sum / static_cast<double>(s.groups);
    }
    report.push_back(std::move(s));
  }

  // Most influential knob first; stable so equal spreads keep axis order.
  std::stable_sort(report.begin(), report.end(),
                   [](const AxisSensitivity& x, const AxisSensitivity& y) {
                     return x.max_spread > y.max_spread;
                   });
  return report;
}

stats::TextTable sensitivity_table(const std::vector<AxisSensitivity>& axes) {
  stats::TextTable t({"axis", "values", "groups", "min cycles", "max cycles",
                      "max spread", "mean spread", "impact"});
  for (const AxisSensitivity& s : axes) {
    t.add_row({s.key, std::to_string(s.values), std::to_string(s.groups),
               std::to_string(s.min_cycles), std::to_string(s.max_cycles),
               std::to_string(s.max_spread), stats::fmt_double(s.mean_spread, 1),
               stats::fmt_percent(s.relative_spread())});
  }
  return t;
}

}  // namespace ahbp::sweep
