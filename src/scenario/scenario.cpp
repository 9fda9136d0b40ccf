#include "scenario/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "ddr/timing.hpp"
#include "scenario/lexer.hpp"
#include "traffic/stimulus.hpp"

namespace ahbp::scenario {

namespace {

using lex::trim;

// ------------------------------------------------------ value parsers ----

std::uint64_t parse_u64(std::string_view v, std::size_t line) {
  const std::string s(trim(v));
  if (s.empty()) {
    throw ScenarioError("empty numeric value", line);
  }
  if (s.front() == '-' || s.front() == '+') {
    // std::stoull would silently wrap negatives to huge values.
    throw ScenarioError("value must be a plain unsigned number: '" + s + "'",
                        line);
  }
  std::size_t pos = 0;
  std::uint64_t out = 0;
  try {
    out = std::stoull(s, &pos, 0);  // base 0: decimal, 0x hex, 0 octal
  } catch (const std::exception&) {
    throw ScenarioError("not a number: '" + s + "'", line);
  }
  if (pos != s.size()) {
    throw ScenarioError("trailing characters in number: '" + s + "'", line);
  }
  return out;
}

std::uint64_t parse_u64_max(std::string_view v, std::uint64_t max,
                            std::size_t line) {
  const std::uint64_t x = parse_u64(v, line);
  if (x > max) {
    throw ScenarioError("value " + std::to_string(x) + " exceeds maximum " +
                            std::to_string(max),
                        line);
  }
  return x;
}

/// Ceiling for keys stored in `unsigned` fields: larger values would wrap.
constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();

std::uint64_t parse_u64_range(std::string_view v, std::uint64_t min,
                              std::uint64_t max, std::size_t line) {
  const std::uint64_t x = parse_u64_max(v, max, line);
  if (x < min) {
    throw ScenarioError("value " + std::to_string(x) + " is below minimum " +
                            std::to_string(min),
                        line);
  }
  return x;
}

double parse_double(std::string_view v, std::size_t line) {
  const std::string s(trim(v));
  std::size_t pos = 0;
  double out = 0;
  try {
    out = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw ScenarioError("not a number: '" + s + "'", line);
  }
  if (pos != s.size()) {
    throw ScenarioError("trailing characters in number: '" + s + "'", line);
  }
  return out;
}

bool parse_bool(std::string_view v, std::size_t line) {
  const std::string_view s = trim(v);
  if (s == "on" || s == "true" || s == "yes" || s == "1") {
    return true;
  }
  if (s == "off" || s == "false" || s == "no" || s == "0") {
    return false;
  }
  throw ScenarioError("not a boolean (use on/off): '" + std::string(s) + "'",
                      line);
}

// --------------------------------------------------------- formatting ----

std::string fmt_hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

// ------------------------------------------------------------ setters ----

void apply_platform(core::PlatformConfig& cfg, std::string_view key,
                    std::string_view value, std::size_t line) {
  if (key == "max_cycles") {
    cfg.max_cycles = parse_u64(value, line);
  } else if (key == "ddr_base") {
    cfg.ddr_base = parse_u64(value, line);
  } else if (key == "checkers") {
    cfg.enable_checkers = parse_bool(value, line);
  } else {
    throw ScenarioError("unknown [platform] key '" + std::string(key) + "'",
                        line);
  }
}

void apply_bus(core::PlatformConfig& cfg, std::string_view key,
               std::string_view value, std::size_t line) {
  ahb::BusConfig& b = cfg.bus;
  if (key == "data_width_bytes") {
    const auto w = static_cast<unsigned>(parse_u64_range(value, 1, 8, line));
    if (!ahb::valid_beat_bytes(w)) {
      // HSIZE encodes log2(bytes): a 3-byte beat does not exist on AHB.
      throw ScenarioError("data_width_bytes must be 1, 2, 4 or 8 (got " +
                              std::to_string(w) + ")",
                          line);
    }
    b.data_width_bytes = w;
  } else if (key == "filter_mask") {
    b.filter_mask =
        static_cast<std::uint8_t>(parse_u64_max(value, 0x7F, line));
  } else if (key == "write_buffer_depth") {
    b.write_buffer_depth =
        static_cast<unsigned>(parse_u64_max(value, kUnsignedMax, line));
  } else if (key == "bi_hints") {
    b.bi_hints_enabled = parse_bool(value, line);
  } else if (key == "urgency_slack_threshold") {
    b.urgency_slack_threshold =
        static_cast<std::uint32_t>(parse_u64_max(value, ~std::uint32_t{0}, line));
  } else {
    throw ScenarioError("unknown [bus] key '" + std::string(key) + "'", line);
  }
}

/// Timing knobs are table-driven (ddr::kTimingFields) so `[ddr]`,
/// `[channel K]` and the serializer share one key list.
const ddr::TimingField* timing_field(std::string_view key) {
  for (const ddr::TimingField& f : ddr::kTimingFields) {
    if (key == f.key) {
      return &f;
    }
  }
  return nullptr;
}

void apply_ddr(core::PlatformConfig& cfg, std::string_view key,
               std::string_view value, std::size_t line) {
  ddr::DdrTiming& t = cfg.timing;
  ddr::Geometry& g = cfg.geom;
  if (const ddr::TimingField* f = timing_field(key)) {
    t.*f->shared = parse_u64(value, line);
  } else if (key == "channels") {
    const auto n = parse_u64_range(value, 1, 8, line);
    if (!ddr::is_power_of_two(n)) {
      throw ScenarioError("channels must be 1, 2, 4 or 8 (got " +
                              std::to_string(n) + ")",
                          line);
    }
    cfg.interleave.channels = static_cast<std::uint32_t>(n);
  } else if (key == "interleave_bytes") {
    const auto b = parse_u64_range(value, 8, 1u << 30, line);
    if (!ddr::is_power_of_two(b)) {
      // The stripe rotation divides by this; non-power-of-two granules
      // would also split beats across channels.
      throw ScenarioError("interleave_bytes must be a power of two (got " +
                              std::to_string(b) + ")",
                          line);
    }
    cfg.interleave.stripe_bytes = b;
  } else if (key == "preset") {
    if (!ddr::timing_preset(trim(value), t)) {
      throw ScenarioError("unknown DDR preset '" + std::string(trim(value)) +
                              "' (ddr266, ddr400, toy)",
                          line);
    }
  } else if (key == "banks") {
    // Minimum 1: Geometry::decode divides by these, so 0 would SIGFPE.
    g.banks =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 16, line));
  } else if (key == "rows") {
    g.rows =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 24, line));
  } else if (key == "cols") {
    g.cols =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 24, line));
  } else if (key == "col_bytes") {
    g.col_bytes =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 64, line));
  } else if (key == "mapping") {
    const std::string_view m = trim(value);
    if (m == "row-bank-col") {
      g.mapping = ddr::Mapping::kRowBankCol;
    } else if (m == "bank-row-col") {
      g.mapping = ddr::Mapping::kBankRowCol;
    } else {
      throw ScenarioError("unknown mapping '" + std::string(m) +
                              "' (row-bank-col, bank-row-col)",
                          line);
    }
  } else {
    throw ScenarioError("unknown [ddr] key '" + std::string(key) + "'", line);
  }
}

/// `[channel K]` / `channelK.*`: per-channel timing/geometry overrides.
/// Accepts the same keys and bounds as `[ddr]`; unset keys fall back to
/// the shared `[ddr]` configuration at resolve time.
void apply_channel(ddr::ChannelOverride& ch, std::string_view key,
                   std::string_view value, std::size_t line) {
  if (const ddr::TimingField* f = timing_field(key)) {
    ch.*f->opt = parse_u64(value, line);
  } else if (key == "banks") {
    ch.banks =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 16, line));
  } else if (key == "rows") {
    ch.rows =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 24, line));
  } else if (key == "cols") {
    ch.cols =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 1u << 24, line));
  } else if (key == "col_bytes") {
    ch.col_bytes =
        static_cast<std::uint32_t>(parse_u64_range(value, 1, 64, line));
  } else if (key == "mapping") {
    const std::string_view m = trim(value);
    if (m == "row-bank-col") {
      ch.mapping = ddr::Mapping::kRowBankCol;
    } else if (m == "bank-row-col") {
      ch.mapping = ddr::Mapping::kBankRowCol;
    } else {
      throw ScenarioError("unknown mapping '" + std::string(m) +
                              "' (row-bank-col, bank-row-col)",
                          line);
    }
  } else {
    throw ScenarioError("unknown [channel] key '" + std::string(key) + "'",
                        line);
  }
}

void apply_master(core::MasterSpec& m, std::string_view key,
                  std::string_view value, std::size_t line) {
  if (key == "class") {
    const std::string_view c = trim(value);
    if (c == "rt") {
      m.qos.cls = ahb::MasterClass::kRealTime;
    } else if (c == "nrt") {
      m.qos.cls = ahb::MasterClass::kNonRealTime;
    } else {
      throw ScenarioError("unknown master class '" + std::string(c) +
                              "' (rt, nrt)",
                          line);
    }
  } else if (key == "objective") {
    m.qos.objective =
        static_cast<std::uint32_t>(parse_u64_max(value, ~std::uint32_t{0}, line));
  } else if (key == "pattern") {
    const std::string_view p = trim(value);
    if (p == "trace") {
      m.traffic.source = traffic::StimulusSource::kTrace;
    } else if (traffic::pattern_from_string(p, m.traffic.kind)) {
      m.traffic.source = traffic::StimulusSource::kSynthetic;
    } else {
      throw ScenarioError("unknown pattern '" + std::string(p) +
                              "' (cpu, dma, rt-stream, random, trace)",
                          line);
    }
  } else if (key == "trace") {
    // New path invalidates any previously resolved content (sweep axes
    // retarget trace masters through this setter).
    m.traffic.trace_path = std::string(trim(value));
    m.traffic.trace_text.clear();
    m.traffic.trace_loaded = false;
  } else if (key == "seed") {
    m.traffic.seed = parse_u64(value, line);
  } else if (key == "items") {
    m.traffic.items =
        static_cast<unsigned>(parse_u64_max(value, kUnsignedMax, line));
  } else if (key == "base") {
    m.traffic.base = parse_u64(value, line);
  } else if (key == "span") {
    m.traffic.span = parse_u64(value, line);
  } else if (key == "read_ratio") {
    const double r = parse_double(value, line);
    if (!(r >= 0.0 && r <= 1.0)) {  // negated form also rejects NaN
      throw ScenarioError("read_ratio must be within [0, 1]", line);
    }
    m.traffic.read_ratio = r;
  } else if (key == "period") {
    m.traffic.period = parse_u64(value, line);
  } else if (key == "mean_gap") {
    m.traffic.mean_gap = parse_u64(value, line);
  } else if (key == "dma_burst_beats") {
    m.traffic.dma_burst_beats =
        static_cast<unsigned>(parse_u64_max(value, kUnsignedMax, line));
  } else {
    throw ScenarioError("unknown [master] key '" + std::string(key) + "'",
                        line);
  }
}

/// Hard ceiling on `[channel K]` indices (the widest interleave).
constexpr std::size_t kMaxChannels = 8;

/// Route "section" + key to the right setter.  `master_idx` is the index
/// for master sections (~0 for "every master"), or the channel index for
/// channel sections.
void apply_in_section(core::PlatformConfig& cfg, std::string_view section,
                      std::size_t master_idx, std::string_view key,
                      std::string_view value, std::size_t line) {
  if (section == "platform") {
    apply_platform(cfg, key, value, line);
  } else if (section == "bus") {
    apply_bus(cfg, key, value, line);
  } else if (section == "ddr") {
    apply_ddr(cfg, key, value, line);
  } else if (section == "channel") {
    if (master_idx >= kMaxChannels) {
      throw ScenarioError("channel index " + std::to_string(master_idx) +
                              " out of range (at most " +
                              std::to_string(kMaxChannels) + " channels)",
                          line);
    }
    if (cfg.ddr_channels.size() <= master_idx) {
      cfg.ddr_channels.resize(master_idx + 1);
    }
    apply_channel(cfg.ddr_channels[master_idx], key, value, line);
  } else if (section == "master") {
    if (master_idx == ~std::size_t{0}) {
      if (cfg.masters.empty()) {
        throw ScenarioError("'master*' override but scenario has no masters",
                            line);
      }
      for (core::MasterSpec& m : cfg.masters) {
        apply_master(m, key, value, line);
      }
    } else {
      if (master_idx >= cfg.masters.size()) {
        throw ScenarioError(
            "master index " + std::to_string(master_idx) + " out of range (" +
                std::to_string(cfg.masters.size()) + " masters)",
            line);
      }
      apply_master(cfg.masters[master_idx], key, value, line);
    }
  } else {
    throw ScenarioError("unknown section '" + std::string(section) + "'",
                        line);
  }
}

}  // namespace

void validate(const core::PlatformConfig& cfg) {
  if (!cfg.interleave.valid()) {
    throw ScenarioError(
        "invalid DDR interleave (channels 1/2/4/8, power-of-two"
        " interleave_bytes >= 8)");
  }
  for (std::size_t k = 0; k < cfg.ddr_channels.size(); ++k) {
    if (k >= cfg.interleave.channels && cfg.ddr_channels[k].any()) {
      throw ScenarioError("[channel " + std::to_string(k) +
                          "] overrides channel " + std::to_string(k) +
                          " but ddr.channels = " +
                          std::to_string(cfg.interleave.channels));
    }
  }
  const auto channels = ddr::resolve_channels(cfg.timing, cfg.geom,
                                              cfg.interleave,
                                              cfg.ddr_channels);
  for (std::size_t k = 0; k < channels.size(); ++k) {
    // The same rule BankEngine enforces at construction, surfaced here so
    // `lint` and sweep expansion reject it before any cycles run.  A
    // channel inheriting a bad shared timing blames `[ddr]`; one whose own
    // overrides break a good shared timing blames its `[channel k]`.
    const std::string bad_timing = channels[k].timing.validate();
    if (!bad_timing.empty()) {
      throw ScenarioError(
          (cfg.timing.validate().empty()
               ? "[channel " + std::to_string(k) + "]"
               : std::string("[ddr]")) +
          " invalid timing: " + bad_timing);
    }
    const std::uint64_t cap = channels[k].geom.capacity();
    if (cfg.interleave.channels > 1 &&
        cap % cfg.interleave.stripe_bytes != 0) {
      throw ScenarioError(
          "interleave_bytes " + std::to_string(cfg.interleave.stripe_bytes) +
          " does not divide channel " + std::to_string(k) + "'s capacity (" +
          std::to_string(cap) + " bytes)");
    }
  }
  // One aperture formula for synthetic windows and trace addresses:
  // core::ddr_aperture_bytes is also what stimulus expansion checks traces
  // against.
  const std::uint64_t aperture = core::ddr_aperture_bytes(cfg);
  const std::uint64_t min_capacity = aperture / cfg.interleave.channels;
  for (std::size_t i = 0; i < cfg.masters.size(); ++i) {
    const traffic::StimulusSpec& t = cfg.masters[i].traffic;
    if (t.is_trace()) {
      // Addresses come from the recorded trace, checked at expansion (the
      // file may legitimately be absent here — a checkpoint of a
      // trace-driven run re-parses its scenario after the file is gone).
      if (t.trace_path.empty() && t.trace_text.empty()) {
        throw ScenarioError("master " + std::to_string(i) +
                            " has pattern = trace but no trace = <path>");
      }
      continue;
    }
    if (!t.trace_path.empty()) {
      throw ScenarioError("master " + std::to_string(i) + " sets trace = " +
                          t.trace_path + " but pattern = " +
                          traffic::to_string(t.kind) +
                          " (use pattern = trace to replay it)");
    }
    if (t.base < cfg.ddr_base) {
      throw ScenarioError("master " + std::to_string(i) +
                          " window starts below ddr_base (base " +
                          fmt_hex(t.base) + " < " + fmt_hex(cfg.ddr_base) +
                          ")");
    }
    // Two-step form: `base - ddr_base + span > aperture` would wrap mod
    // 2^64 for adversarial base/span pairs and let them through.
    if (t.span > aperture || t.base - cfg.ddr_base > aperture - t.span) {
      throw ScenarioError(
          "master " + std::to_string(i) + " window [" + fmt_hex(t.base) +
          ", " + fmt_hex(t.base + t.span) + ") exceeds the DDR aperture (" +
          std::to_string(cfg.interleave.channels) + " channel(s) x " +
          std::to_string(min_capacity) + " bytes from " +
          fmt_hex(cfg.ddr_base) + ")");
    }
  }
}

core::PlatformConfig parse(std::string_view text) {
  core::PlatformConfig cfg;
  cfg.masters.clear();

  std::string section;          // current section name
  // Current [master N] (~0 = every master) or [channel K] index.
  std::size_t master_idx = 0;

  lex::for_each_line(text, [&](const lex::Line& l) {
    if (l.kind == lex::Line::Kind::kSection) {
      std::string_view idx;
      if (l.section == "platform" || l.section == "bus" ||
          l.section == "ddr") {
        section = l.section;
      } else if (lex::channel_section(l.section, idx)) {
        if (idx.empty()) {
          throw ScenarioError("channel section needs an index: [channel K]",
                              l.number);
        }
        master_idx = parse_u64(idx, l.number);
        section = "channel";
      } else if (lex::master_section(l.section, idx)) {
        if (idx.empty()) {
          throw ScenarioError("master section needs an index: [master N]",
                              l.number);
        }
        if (idx == "*") {
          master_idx = ~std::size_t{0};  // every master defined so far
        } else {
          const std::uint64_t n = parse_u64(idx, l.number);
          if (n > cfg.masters.size()) {
            throw ScenarioError("master indices must be contiguous: got " +
                                    std::to_string(n) + " after " +
                                    std::to_string(cfg.masters.size()) +
                                    " masters",
                                l.number);
          }
          if (n == cfg.masters.size()) {
            cfg.masters.emplace_back();
          }
          master_idx = n;
        }
        section = "master";
      } else {
        throw ScenarioError("unknown section '" + std::string(l.section) +
                                "'",
                            l.number);
      }
      return;
    }

    if (section.empty()) {
      throw ScenarioError("key outside any [section]", l.number);
    }
    apply_in_section(cfg, section, master_idx, l.key, l.value, l.number);
  });

  validate(cfg);
  return cfg;
}

core::PlatformConfig parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ScenarioError("cannot open scenario file '" + path + "'");
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

std::string serialize(const core::PlatformConfig& cfg) {
  std::ostringstream os;
  const auto onoff = [](bool b) { return b ? "on" : "off"; };

  os << "# ahbp scenario\n";
  os << "\n[platform]\n";
  os << "max_cycles = " << cfg.max_cycles << "\n";
  os << "ddr_base = " << fmt_hex(cfg.ddr_base) << "\n";
  os << "checkers = " << onoff(cfg.enable_checkers) << "\n";

  const ahb::BusConfig& b = cfg.bus;
  os << "\n[bus]\n";
  os << "data_width_bytes = " << b.data_width_bytes << "\n";
  os << "filter_mask = " << fmt_hex(b.filter_mask) << "\n";
  os << "write_buffer_depth = " << b.write_buffer_depth << "\n";
  os << "bi_hints = " << onoff(b.bi_hints_enabled) << "\n";
  os << "urgency_slack_threshold = " << b.urgency_slack_threshold << "\n";

  const ddr::DdrTiming& t = cfg.timing;
  const ddr::Geometry& g = cfg.geom;
  os << "\n[ddr]\n";
  os << "channels = " << cfg.interleave.channels << "\n";
  os << "interleave_bytes = " << cfg.interleave.stripe_bytes << "\n";
  for (const ddr::TimingField& f : ddr::kTimingFields) {
    os << f.key << " = " << t.*f.shared << "\n";
  }
  os << "banks = " << g.banks << "\n";
  os << "rows = " << g.rows << "\n";
  os << "cols = " << g.cols << "\n";
  os << "col_bytes = " << g.col_bytes << "\n";
  os << "mapping = "
     << (g.mapping == ddr::Mapping::kRowBankCol ? "row-bank-col"
                                                : "bank-row-col")
     << "\n";

  // Per-channel overrides: only channels that deviate from [ddr] and only
  // their set keys — the canonical form is the minimal delta.
  for (std::size_t k = 0; k < cfg.ddr_channels.size(); ++k) {
    const ddr::ChannelOverride& c = cfg.ddr_channels[k];
    if (!c.any()) {
      continue;
    }
    os << "\n[channel " << k << "]\n";
    const auto emit = [&os](const char* key, const auto& opt) {
      if (opt) {
        os << key << " = " << *opt << "\n";
      }
    };
    for (const ddr::TimingField& f : ddr::kTimingFields) {
      emit(f.key, c.*f.opt);
    }
    emit("banks", c.banks);
    emit("rows", c.rows);
    emit("cols", c.cols);
    emit("col_bytes", c.col_bytes);
    if (c.mapping) {
      os << "mapping = "
         << (*c.mapping == ddr::Mapping::kRowBankCol ? "row-bank-col"
                                                     : "bank-row-col")
         << "\n";
    }
  }

  for (std::size_t i = 0; i < cfg.masters.size(); ++i) {
    const core::MasterSpec& m = cfg.masters[i];
    os << "\n[master " << i << "]\n";
    os << "class = "
       << (m.qos.cls == ahb::MasterClass::kRealTime ? "rt" : "nrt") << "\n";
    os << "objective = " << m.qos.objective << "\n";
    if (m.traffic.is_trace()) {
      // Trace-backed stimulus: the synthetic pattern fields are inert, so
      // the canonical form is the minimal delta — pattern + path.  The
      // resolved trace_text is deliberately not a scenario key (checkpoint
      // files embed it alongside the scenario instead).  A path-less spec
      // (resolved text only, e.g. a captured stream never parked on disk)
      // serializes the '<embedded>' marker so the text still parses — its
      // checkpoint supplies the content at restore; running it without
      // one fails with a clear cannot-open-'<embedded>' error.
      os << "pattern = trace\n";
      os << "trace = "
         << (m.traffic.trace_path.empty() ? "<embedded>"
                                          : m.traffic.trace_path)
         << "\n";
      continue;
    }
    os << "pattern = " << traffic::to_string(m.traffic.kind) << "\n";
    os << "seed = " << m.traffic.seed << "\n";
    os << "items = " << m.traffic.items << "\n";
    os << "base = " << fmt_hex(m.traffic.base) << "\n";
    os << "span = " << fmt_hex(m.traffic.span) << "\n";
    os << "read_ratio = " << fmt_g(m.traffic.read_ratio) << "\n";
    os << "period = " << m.traffic.period << "\n";
    os << "mean_gap = " << m.traffic.mean_gap << "\n";
    os << "dma_burst_beats = " << m.traffic.dma_burst_beats << "\n";
  }

  return os.str();
}

void apply_key(core::PlatformConfig& cfg, std::string_view dotted_key,
               std::string_view value) {
  const std::size_t dot = dotted_key.find('.');
  if (dot == std::string_view::npos) {
    throw ScenarioError("override key must be 'section.key': '" +
                        std::string(dotted_key) + "'");
  }
  const std::string_view section = trim(dotted_key.substr(0, dot));
  const std::string_view key = trim(dotted_key.substr(dot + 1));

  if (section == "platform" || section == "bus" || section == "ddr") {
    apply_in_section(cfg, section, 0, key, value, 0);
    return;
  }
  if (section.substr(0, 7) == "channel") {
    const std::string_view idx = section.substr(7);
    if (idx.empty()) {
      throw ScenarioError("channel override needs an index: 'channelK.key'");
    }
    apply_in_section(cfg, "channel", parse_u64(idx, 0), key, value, 0);
    return;
  }
  if (section.substr(0, 6) == "master") {
    const std::string_view idx = section.substr(6);
    if (idx == "*") {
      apply_in_section(cfg, "master", ~std::size_t{0}, key, value, 0);
    } else if (!idx.empty()) {
      apply_in_section(cfg, "master", parse_u64(idx, 0), key, value, 0);
    } else {
      throw ScenarioError(
          "master override needs an index or '*': 'masterN.key'");
    }
    return;
  }
  throw ScenarioError("unknown section '" + std::string(section) +
                      "' in override key");
}

}  // namespace ahbp::scenario
