#include "sweep/spec.hpp"

#include <fstream>
#include <sstream>

#include "scenario/lexer.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace ahbp::sweep {

namespace {

using scenario::ScenarioError;
using scenario::lex::trim;

std::vector<std::string> split_list(std::string_view v, std::size_t line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= v.size()) {
    const std::size_t comma = v.find(',', pos);
    const std::string_view item =
        trim(v.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                           : comma - pos));
    if (item.empty()) {
      throw ScenarioError("empty value in axis list", line);
    }
    out.emplace_back(item);
    if (comma == std::string_view::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

std::size_t SweepSpec::points() const noexcept {
  std::size_t n = 1;
  for (const Axis& a : axes) {
    n *= a.values.size();
  }
  return n;
}

SweepSpec parse_spec(std::string_view text) {
  SweepSpec spec;

  // Pass 1: pull out `base =` (top level) and the [sweep] axes; everything
  // else is scenario text kept for pass 2.  Non-scenario lines are kept as
  // blanks so scenario::parse reports the sweep file's own line numbers.
  std::vector<std::string> scenario_lines;  // [i] = sweep-file line i+1 or ""
  bool saw_scenario = false;
  struct Override {
    std::string key;  // dotted
    std::string value;
    std::size_t line;
  };
  std::vector<Override> overrides;
  std::string section;      // "" = top level
  std::string master_idx;   // current [master N] index text

  scenario::lex::for_each_line(text, [&](const scenario::lex::Line& l) {
    while (scenario_lines.size() < l.number) {
      scenario_lines.emplace_back();
    }
    const auto keep_line = [&] {
      scenario_lines.back() = std::string(l.raw);
      saw_scenario = true;
    };

    if (l.kind == scenario::lex::Line::Kind::kSection) {
      std::string_view idx;
      if (l.section == "sweep") {
        section = "sweep";
      } else if (l.section == "platform" || l.section == "bus" ||
                 l.section == "ddr") {
        section = l.section;
        keep_line();
      } else if (scenario::lex::channel_section(l.section, idx)) {
        section = "channel";
        master_idx = std::string(idx);
        keep_line();
      } else if (scenario::lex::master_section(l.section, idx)) {
        section = "master";
        master_idx = std::string(idx);
        keep_line();
      } else {
        throw ScenarioError("unknown section '" + std::string(l.section) +
                                "'",
                            l.number);
      }
      return;
    }

    const std::string key(l.key);
    const std::string value(l.value);
    if (section.empty()) {
      if (key == "base") {
        if (saw_scenario || !overrides.empty()) {
          throw ScenarioError("'base =' must precede every scenario section",
                              l.number);
        }
        spec.base = value;
      } else {
        throw ScenarioError("unknown top-level key '" + key +
                                "' (only 'base' may appear before a section)",
                            l.number);
      }
    } else if (section == "sweep") {
      if (key == "base") {
        throw ScenarioError(
            "'base =' must appear before the first section, not inside"
            " [sweep]",
            l.number);
      }
      if (key.find('.') == std::string::npos) {
        throw ScenarioError("sweep axis key must be dotted, e.g."
                            " bus.write_buffer_depth",
                            l.number);
      }
      spec.axes.push_back({key, split_list(value, l.number)});
    } else if (key == "base") {
      throw ScenarioError(
          "'base =' must appear before the first section", l.number);
    } else if (spec.base.empty()) {
      // No base: the scenario sections ARE the scenario.
      keep_line();
    } else {
      // With a base, scenario sections are targeted overrides.
      const std::string dotted =
          section == "master" || section == "channel"
              ? section + master_idx + "." + key
              : section + "." + key;
      overrides.push_back({dotted, value, l.number});
    }
  });

  // Pass 2: build the base configuration and layer the overrides.
  if (spec.base.empty()) {
    if (!saw_scenario) {
      throw ScenarioError(
          "sweep spec needs a 'base = <scenario>' line or inline scenario"
          " sections");
    }
    std::string scenario_text;
    for (const std::string& l : scenario_lines) {
      scenario_text.append(l).push_back('\n');
    }
    spec.base_config = scenario::parse(scenario_text);
  } else {
    try {
      spec.base_config = scenario::load_scenario(spec.base);
    } catch (const ScenarioError& e) {
      throw ScenarioError("base: " + std::string(e.what()));
    }
    for (const Override& o : overrides) {
      try {
        scenario::apply_key(spec.base_config, o.key, o.value);
      } catch (const ScenarioError& e) {
        throw ScenarioError(e.what(), o.line);
      }
    }
    // Targeted overrides bypass parse(); re-establish the whole-config
    // invariants (aperture, channel ranges, stripe divisibility) here.
    scenario::validate(spec.base_config);
  }

  // Resolve trace-backed stimulus once at spec time: every expanded point
  // (and the warm-up fork base) then carries the trace text by value
  // instead of re-reading the file per point — and a missing trace file
  // fails here, with spec context, not inside a worker thread.  Points
  // whose axes retarget `masterK.trace` re-resolve at Platform
  // construction (the setter clears the stale text).
  try {
    core::resolve_stimulus(spec.base_config);
  } catch (const std::exception& e) {
    throw ScenarioError("base: " + std::string(e.what()));
  }

  return spec;
}

SweepSpec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ScenarioError("cannot open sweep file '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_spec(ss.str());
}

std::vector<SweepPoint> expand(const SweepSpec& spec) {
  const std::size_t total = spec.points();
  std::vector<SweepPoint> out;
  out.reserve(total);

  // Strides: first axis slowest, last axis fastest.
  std::vector<std::size_t> stride(spec.axes.size(), 1);
  for (std::size_t a = spec.axes.size(); a-- > 1;) {
    stride[a - 1] = stride[a] * spec.axes[a].values.size();
  }

  for (std::size_t i = 0; i < total; ++i) {
    SweepPoint p;
    p.index = i;
    p.config = spec.base_config;
    std::string label;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const Axis& ax = spec.axes[a];
      const std::string& v = ax.values[(i / stride[a]) % ax.values.size()];
      scenario::apply_key(p.config, ax.key, v);
      if (!label.empty()) {
        label += ' ';
      }
      label += ax.key + "=" + v;
    }
    if (!spec.axes.empty()) {
      // Axis values pass through apply_key one at a time; the combined
      // point must still satisfy the whole-config invariants (e.g. a
      // swept ddr.rows shrinking the aperture under a master's window).
      try {
        scenario::validate(p.config);
      } catch (const scenario::ScenarioError& e) {
        throw scenario::ScenarioError("point " + std::to_string(i) + " (" +
                                      label + "): " + e.what());
      }
    }
    p.label = label.empty() ? "base" : label;
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace ahbp::sweep
