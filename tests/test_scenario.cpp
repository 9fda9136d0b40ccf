// Scenario subsystem: the parse <-> serialize round trip is exact, every
// malformed input fails with a diagnostic (never a silently-default
// config), and every built-in preset is a valid, runnable platform.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "sweep/spec.hpp"

namespace {

using namespace ahbp;
using scenario::ScenarioError;

// ------------------------------------------------------------ parsing ----

TEST(ScenarioParse, MinimalScenario) {
  const auto cfg = scenario::parse(R"(
[bus]
write_buffer_depth = 8

[master 0]
pattern = dma
items = 50
span = 0x40000
)");
  EXPECT_EQ(cfg.bus.write_buffer_depth, 8u);
  ASSERT_EQ(cfg.masters.size(), 1u);
  EXPECT_EQ(cfg.masters[0].traffic.kind, traffic::PatternKind::kDma);
  EXPECT_EQ(cfg.masters[0].traffic.items, 50u);
  EXPECT_EQ(cfg.masters[0].traffic.span, 0x40000u);
}

TEST(ScenarioParse, CommentsWhitespaceAndHexAccepted) {
  const auto cfg = scenario::parse(
      "# leading comment\n"
      "[bus]\n"
      "  filter_mask   =  0x5f   # trailing comment\n"
      "\n"
      "[platform]\n"
      "ddr_base = 0x1000\n");
  EXPECT_EQ(cfg.bus.filter_mask, 0x5F);
  EXPECT_EQ(cfg.ddr_base, 0x1000u);
}

TEST(ScenarioParse, DdrPresetThenOverride) {
  const auto cfg = scenario::parse(
      "[ddr]\n"
      "preset = toy\n"
      "tRFC = 11\n");
  EXPECT_EQ(cfg.timing.tRCD, ddr::toy_timing().tRCD);
  EXPECT_EQ(cfg.timing.tRFC, 11u);  // override wins over the preset
}

TEST(ScenarioParse, MasterWildcardSectionAppliesToAll) {
  const auto cfg = scenario::parse(
      "[master 0]\nitems = 10\n"
      "[master 1]\nitems = 20\n"
      "[master *]\nseed = 77\n");
  ASSERT_EQ(cfg.masters.size(), 2u);
  EXPECT_EQ(cfg.masters[0].traffic.seed, 77u);
  EXPECT_EQ(cfg.masters[1].traffic.seed, 77u);
  EXPECT_EQ(cfg.masters[0].traffic.items, 10u);
  // Wildcard before any master exists has nothing to apply to.
  EXPECT_THROW(scenario::parse("[master *]\nitems = 5\n"), ScenarioError);
}

TEST(ScenarioParse, RevisitingMasterSectionAllowed) {
  const auto cfg = scenario::parse(
      "[master 0]\nitems = 10\n"
      "[master 1]\nitems = 20\n"
      "[master 0]\nseed = 9\n");
  ASSERT_EQ(cfg.masters.size(), 2u);
  EXPECT_EQ(cfg.masters[0].traffic.items, 10u);
  EXPECT_EQ(cfg.masters[0].traffic.seed, 9u);
  EXPECT_EQ(cfg.masters[1].traffic.items, 20u);
}

// -------------------------------------------------------- error paths ----

TEST(ScenarioErrors, UnknownSection) {
  EXPECT_THROW(scenario::parse("[bogus]\nx = 1\n"), ScenarioError);
}

TEST(ScenarioErrors, UnknownKeyNamesSectionAndLine) {
  try {
    scenario::parse("[bus]\nnot_a_knob = 1\n");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("not_a_knob"), std::string::npos);
  }
}

TEST(ScenarioErrors, BadValues) {
  EXPECT_THROW(scenario::parse("[bus]\nwrite_buffer_depth = soon\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[bus]\nbi_hints = maybe\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[bus]\nfilter_mask = 0x80\n"),
               ScenarioError);  // beyond the 7 filters
  EXPECT_THROW(scenario::parse("[bus]\nwrite_buffer_depth = 4 trailing\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[master 0]\nread_ratio = 1.5\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[master 0]\npattern = fancy\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\npreset = ddr9000\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\nmapping = diagonal\n"), ScenarioError);
  // Negative numbers must not wrap through stoull to huge unsigneds.
  EXPECT_THROW(scenario::parse("[master 0]\nitems = -1\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[platform]\nmax_cycles = -5\n"),
               ScenarioError);
  // Zero geometry would divide by zero inside Geometry::decode.
  EXPECT_THROW(scenario::parse("[ddr]\ncols = 0\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\nbanks = 0\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[bus]\ndata_width_bytes = 0\n"),
               ScenarioError);
}

TEST(ScenarioErrors, StructuralProblems) {
  EXPECT_THROW(scenario::parse("stray = 1\n"), ScenarioError);  // no section
  EXPECT_THROW(scenario::parse("[bus]\njust a line\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[master 2]\nitems = 1\n"),
               ScenarioError);  // indices must be contiguous from 0
  EXPECT_THROW(scenario::parse("[master]\nitems = 1\n"), ScenarioError);
}

TEST(ScenarioErrors, ApplyKeyValidation) {
  auto cfg = scenario::parse("[master 0]\nitems = 5\n");
  EXPECT_THROW(scenario::apply_key(cfg, "nodot", "1"), ScenarioError);
  EXPECT_THROW(scenario::apply_key(cfg, "master5.items", "1"), ScenarioError);
  EXPECT_THROW(scenario::apply_key(cfg, "galaxy.items", "1"), ScenarioError);
  scenario::apply_key(cfg, "master*.items", "7");
  EXPECT_EQ(cfg.masters[0].traffic.items, 7u);
  scenario::apply_key(cfg, "bus.write_buffer_depth", "16");
  EXPECT_EQ(cfg.bus.write_buffer_depth, 16u);
}

TEST(ScenarioErrors, MissingFile) {
  EXPECT_THROW(scenario::parse_file("/nonexistent/path.scn"), ScenarioError);
}

// ------------------------------------------------- sharded DDR keys ----

TEST(ScenarioChannels, ChannelKeysParse) {
  const auto cfg = scenario::parse(
      "[ddr]\n"
      "channels = 4\n"
      "interleave_bytes = 256\n"
      "[channel 2]\n"
      "tCL = 7\n"
      "[channel 0]\n"
      "banks = 8\n");
  EXPECT_EQ(cfg.interleave.channels, 4u);
  EXPECT_EQ(cfg.interleave.stripe_bytes, 256u);
  ASSERT_EQ(cfg.ddr_channels.size(), 3u);
  EXPECT_EQ(cfg.ddr_channels[2].tCL, 7u);
  EXPECT_EQ(cfg.ddr_channels[0].banks, 8u);
  EXPECT_FALSE(cfg.ddr_channels[1].any());  // untouched: inherits [ddr]
  // Resolution: overrides layer onto the shared base, gaps inherit.
  const auto chs = ddr::resolve_channels(cfg.timing, cfg.geom,
                                         cfg.interleave, cfg.ddr_channels);
  ASSERT_EQ(chs.size(), 4u);
  EXPECT_EQ(chs[0].geom.banks, 8u);
  EXPECT_EQ(chs[1].geom.banks, cfg.geom.banks);
  EXPECT_EQ(chs[2].timing.tCL, 7u);
  EXPECT_EQ(chs[3].timing.tCL, cfg.timing.tCL);
}

TEST(ScenarioChannels, BadChannelValuesRejected) {
  EXPECT_THROW(scenario::parse("[ddr]\nchannels = 3\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\nchannels = 0\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\nchannels = 16\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[ddr]\ninterleave_bytes = 4\n"),
               ScenarioError);  // below the widest beat
  EXPECT_THROW(scenario::parse("[ddr]\ninterleave_bytes = 96\n"),
               ScenarioError);  // not a power of two
  EXPECT_THROW(scenario::parse("[channel 0]\nfancy = 1\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[channel]\ntCL = 2\n"), ScenarioError);
  EXPECT_THROW(scenario::parse("[channel 9]\ntCL = 2\n"), ScenarioError);
  // Overriding a channel the interleave does not instantiate.
  EXPECT_THROW(
      scenario::parse("[ddr]\nchannels = 2\n[channel 3]\ntCL = 2\n"),
      ScenarioError);
  // The stripe must divide the per-channel capacity.
  EXPECT_THROW(scenario::parse("[ddr]\nchannels = 2\nbanks = 2\nrows = 4\n"
                               "cols = 8\ncol_bytes = 4\n"
                               "interleave_bytes = 1024\n"),
               ScenarioError);
  // apply_key speaks the same dialect.
  auto cfg = scenario::parse("[master 0]\nitems = 5\n");
  EXPECT_THROW(scenario::apply_key(cfg, "ddr.channels", "5"), ScenarioError);
  EXPECT_THROW(scenario::apply_key(cfg, "channel.tCL", "2"), ScenarioError);
  scenario::apply_key(cfg, "channel1.tCL", "4");
  EXPECT_EQ(cfg.ddr_channels.at(1).tCL, 4u);
}

/// The ScenarioError text of parsing `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    scenario::parse(text);
  } catch (const ScenarioError& e) {
    return e.what();
  }
  return {};
}

TEST(ScenarioChannels, InconsistentTimingRejectedNamingSection) {
  // tRC below tRAS + tRP used to lint clean and die at run time inside
  // BankEngine; validate() now applies the same rule per resolved channel.
  const std::string shared = parse_error("[ddr]\ntRC = 5\n");
  EXPECT_NE(shared.find("[ddr]"), std::string::npos) << shared;
  EXPECT_NE(shared.find("tRC must be >= tRAS + tRP"), std::string::npos)
      << shared;
  // The rule, not a floor: a tRC of 5 is fine when tRAS + tRP allow it.
  EXPECT_EQ(parse_error("[ddr]\ntRAS = 3\ntRP = 2\ntRC = 5\n"), "");

  // A channel override that breaks a good shared timing blames itself.
  const std::string channel =
      parse_error("[ddr]\nchannels = 2\n[channel 1]\ntRC = 5\n");
  EXPECT_NE(channel.find("[channel 1]"), std::string::npos) << channel;
  EXPECT_NE(channel.find("tRC must be >= tRAS + tRP"), std::string::npos)
      << channel;

  // Sweep axes are applied key by key; expand() re-validates each point.
  const auto spec = sweep::parse_spec(
      "base = single-master\n[sweep]\nddr.tRC = 5, 10\n");
  try {
    sweep::expand(spec);
    FAIL() << "ddr.tRC = 5 expanded";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("[ddr]"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioChannels, ApertureMustFitCapacityTimesChannels) {
  // Latent ddr_base coupling (fixed): a master window larger than the
  // device is rejected at parse instead of silently wrapping.  The default
  // geometry holds 32 MiB; one channel cannot back a 64 MiB window...
  const char* kOversized =
      "[master 0]\n"
      "base = 0\n"
      "span = 0x4000000\n";  // 64 MiB
  EXPECT_THROW(scenario::parse(kOversized), ScenarioError);
  // ...but two channels double the aperture and the same window fits.
  const auto cfg = scenario::parse(std::string("[ddr]\nchannels = 2\n") +
                                   kOversized);
  EXPECT_EQ(cfg.interleave.channels, 2u);

  // ddr_base shifts the aperture: a window straddling its end fails, and
  // one below ddr_base can never be DDR traffic.
  EXPECT_THROW(scenario::parse("[platform]\nddr_base = 0x1000\n"
                               "[master 0]\nbase = 0x2000000\n"
                               "span = 0x2000000\n"),
               ScenarioError);
  EXPECT_THROW(scenario::parse("[platform]\nddr_base = 0x1000\n"
                               "[master 0]\nbase = 0\nspan = 0x100\n"),
               ScenarioError);
  // Shrinking the geometry shrinks the aperture with it.
  EXPECT_THROW(scenario::parse("[ddr]\nrows = 16\n"
                               "[master 0]\nspan = 0x100000\n"),
               ScenarioError);
  // base + span summing past 2^64 must not wrap around the check.
  EXPECT_THROW(scenario::parse("[master 0]\nbase = 0x8000000000000000\n"
                               "span = 0x8000000000000000\n"),
               ScenarioError);
}

TEST(ScenarioChannels, ChannelSectionsRoundTrip) {
  const char* kText =
      "[ddr]\n"
      "channels = 4\n"
      "interleave_bytes = 512\n"
      "[channel 1]\n"
      "tCL = 6\n"
      "[channel 3]\n"
      "banks = 8\n"
      "mapping = bank-row-col\n"
      "[master 0]\n"
      "items = 10\n";
  const auto cfg = scenario::parse(kText);
  const std::string text = scenario::serialize(cfg);
  // Canonical form: only overridden channels, only their set keys.
  EXPECT_NE(text.find("[channel 1]"), std::string::npos);
  EXPECT_NE(text.find("[channel 3]"), std::string::npos);
  EXPECT_EQ(text.find("[channel 0]"), std::string::npos);
  EXPECT_EQ(text.find("[channel 2]"), std::string::npos);
  const auto reparsed = scenario::parse(text);
  EXPECT_EQ(scenario::serialize(reparsed), text);
  EXPECT_EQ(reparsed.interleave.channels, 4u);
  EXPECT_EQ(reparsed.interleave.stripe_bytes, 512u);
  EXPECT_EQ(reparsed.ddr_channels.at(1).tCL, 6u);
  EXPECT_EQ(reparsed.ddr_channels.at(3).banks, 8u);
  EXPECT_EQ(reparsed.ddr_channels.at(3).mapping, ddr::Mapping::kBankRowCol);
}

// ---------------------------------------------------------- round trip ----

TEST(ScenarioRoundTrip, SerializeParseSerializeIsIdentity) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  for (const auto& e : reg.entries()) {
    const auto cfg = e.build(0, 0);
    const std::string text = scenario::serialize(cfg);
    const auto reparsed = scenario::parse(text);
    EXPECT_EQ(scenario::serialize(reparsed), text) << e.name;
  }
}

TEST(ScenarioRoundTrip, FieldsSurvive) {
  auto cfg = scenario::ScenarioRegistry::builtin().build("qos-starvation");
  cfg.bus.filter_mask = 0x55;
  cfg.bus.bi_hints_enabled = false;
  cfg.timing = ddr::ddr400();
  cfg.geom.mapping = ddr::Mapping::kBankRowCol;
  cfg.masters[2].traffic.read_ratio = 0.125;
  cfg.max_cycles = 123456;

  const auto rt = scenario::parse(scenario::serialize(cfg));
  EXPECT_EQ(rt.bus.filter_mask, 0x55);
  EXPECT_FALSE(rt.bus.bi_hints_enabled);
  EXPECT_EQ(rt.timing.tRFC, ddr::ddr400().tRFC);
  EXPECT_EQ(rt.geom.mapping, ddr::Mapping::kBankRowCol);
  ASSERT_EQ(rt.masters.size(), cfg.masters.size());
  EXPECT_DOUBLE_EQ(rt.masters[2].traffic.read_ratio, 0.125);
  EXPECT_EQ(rt.masters[2].qos.cls, cfg.masters[2].qos.cls);
  EXPECT_EQ(rt.max_cycles, 123456u);
}

TEST(ScenarioErrors, RemovedSectionsAreUnknown) {
  // Idle leaping is always on, so the simulator-tuning section is gone;
  // snapshots are taken with `ahbp_sim checkpoint`, so the checkpoint
  // section is gone too.  Both, and every key of theirs, fail as an
  // unknown section, in a scenario file and as a dotted override.  The
  // four [bus] keys that meant something different (or nothing) in one of
  // the two models fail as unknown keys, in a file, as a dotted override
  // and as a sweep axis.
  const auto expect_unknown = [](auto&& attempt, const std::string& needle,
                                 const std::string& what) {
    try {
      attempt();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const scenario::ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  for (const char* text : {"[sim]\n", "[sim]\nddr_threads = 4\n"}) {
    expect_unknown([&] { scenario::parse(text); }, "unknown section 'sim'",
                   text);
  }
  for (const char* text :
       {"[checkpoint]\n", "[checkpoint]\nat_cycle = 500\npath = w.ckpt\n"}) {
    expect_unknown([&] { scenario::parse(text); },
                   "unknown section 'checkpoint'", text);
  }
  auto cfg = scenario::ScenarioRegistry::builtin().build("single-master");
  expect_unknown([&] { scenario::apply_key(cfg, "sim.ddr_threads", "2"); },
                 "unknown section 'sim'", "sim.ddr_threads");
  expect_unknown(
      [&] { scenario::apply_key(cfg, "checkpoint.at_cycle", "500"); },
      "unknown section 'checkpoint'", "checkpoint.at_cycle");
  const std::vector<std::pair<std::string, std::string>> bus_keys = {
      {"write_buffer", "on"},
      {"drain_watermark", "1"},
      {"request_pipelining", "on"},
      {"grant_to_start", "3"},
  };
  for (const auto& [key, value] : bus_keys) {
    const std::string needle = "unknown [bus] key '" + key + "'";
    const std::string text = "[bus]\n" + key + " = " + value + "\n";
    expect_unknown([&] { scenario::parse(text); }, needle, text);
    expect_unknown([&] { scenario::apply_key(cfg, "bus." + key, value); },
                   needle, "bus." + key);
    const std::string spec = "base = single-master\n[sweep]\nbus." + key +
                             " = " + value + ", " + value + "\n";
    expect_unknown([&] { sweep::expand(sweep::parse_spec(spec)); }, needle,
                   spec);
  }
}

TEST(ScenarioErrors, UnsignedKeysRejectValuesPast32Bits) {
  // These three keys land in `unsigned` fields: a value past 2^32 - 1 must
  // be rejected, not wrapped (items = 2^32 + 1 would run one transaction).
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"bus", "write_buffer_depth"},
      {"master0", "items"},
      {"master0", "dma_burst_beats"},
  };
  const auto expect_too_big = [](auto&& attempt, const std::string& what) {
    try {
      attempt();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const scenario::ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds maximum"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  auto cfg = scenario::ScenarioRegistry::builtin().build("single-master");
  for (const auto& [section, key] : keys) {
    const std::string dotted = section + "." + key;
    const std::string text = "[master 0]\npattern = cpu\n" +
                             std::string(section == "bus" ? "[bus]\n" : "") +
                             key + " = 4294967297\n";
    expect_too_big([&] { scenario::parse(text); }, text);
    expect_too_big([&] { scenario::apply_key(cfg, dotted, "4294967296"); },
                   dotted);
    // The largest representable value still parses.
    EXPECT_NO_THROW(scenario::apply_key(cfg, dotted, "4294967295")) << dotted;
  }
}

// --------------------------------------------------- trace-backed masters --

TEST(ScenarioTrace, TraceMasterParsesAndRoundTrips) {
  const auto cfg = scenario::parse(
      "[master 0]\n"
      "pattern = trace\n"
      "trace = captures/m0.trace\n"
      "[master 1]\n"
      "pattern = cpu\n"
      "items = 20\n");
  ASSERT_EQ(cfg.masters.size(), 2u);
  EXPECT_TRUE(cfg.masters[0].traffic.is_trace());
  EXPECT_EQ(cfg.masters[0].traffic.trace_path, "captures/m0.trace");
  EXPECT_FALSE(cfg.masters[1].traffic.is_trace());

  // Canonical form for a trace master is the minimal delta (no inert
  // synthetic keys), and it round-trips byte-for-byte.
  const std::string text = scenario::serialize(cfg);
  EXPECT_NE(text.find("pattern = trace"), std::string::npos);
  EXPECT_NE(text.find("trace = captures/m0.trace"), std::string::npos);
  const auto reparsed = scenario::parse(text);
  EXPECT_EQ(scenario::serialize(reparsed), text);
  EXPECT_TRUE(reparsed.masters[0].traffic.is_trace());
  EXPECT_EQ(reparsed.masters[0].traffic.trace_path, "captures/m0.trace");
}

TEST(ScenarioTrace, KeyOrderDoesNotMatter) {
  const auto cfg = scenario::parse(
      "[master 0]\n"
      "trace = m0.trace\n"   // path before the pattern flips to trace
      "pattern = trace\n");
  EXPECT_TRUE(cfg.masters[0].traffic.is_trace());
  EXPECT_EQ(cfg.masters[0].traffic.trace_path, "m0.trace");
}

TEST(ScenarioTrace, UnknownPatternErrorListsTrace) {
  try {
    scenario::parse("[master 0]\npattern = fancy\n");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cpu"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rt-stream"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trace"), std::string::npos) << msg;
  }
}

TEST(ScenarioTrace, TraceWithoutPathRejected) {
  EXPECT_THROW(scenario::parse("[master 0]\npattern = trace\n"),
               ScenarioError);
}

TEST(ScenarioTrace, TracePathOnSyntheticMasterRejected) {
  EXPECT_THROW(scenario::parse(
                   "[master 0]\npattern = cpu\ntrace = m0.trace\n"),
               ScenarioError);
}

TEST(ScenarioTrace, DottedOverridesRouteToTraceKeys) {
  // The sweep axis machinery goes through apply_key; retargeting a trace
  // master must also drop any stale resolved text.
  auto cfg = scenario::parse(
      "[master 0]\npattern = trace\ntrace = a.trace\n");
  cfg.masters[0].traffic.trace_text = "# resolved from a.trace\n";
  scenario::apply_key(cfg, "master0.trace", "b.trace");
  EXPECT_EQ(cfg.masters[0].traffic.trace_path, "b.trace");
  EXPECT_TRUE(cfg.masters[0].traffic.trace_text.empty());
  scenario::apply_key(cfg, "master0.pattern", "dma");
  EXPECT_FALSE(cfg.masters[0].traffic.is_trace());
}

// ------------------------------------------------------------ registry ----

TEST(ScenarioRegistry, PresetsAreValidPlatforms) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  EXPECT_GE(reg.entries().size(), 17u);  // 12 table1 + single + 4 classes
  for (const auto& e : reg.entries()) {
    const auto cfg = e.build(0, 0);
    EXPECT_EQ(cfg.timing.validate(), "") << e.name;
    EXPECT_FALSE(cfg.masters.empty()) << e.name;
    for (const auto& m : cfg.masters) {
      EXPECT_GE(m.traffic.span, 1024u) << e.name;  // generator minimum
      EXPECT_LE(m.traffic.base + m.traffic.span, cfg.geom.capacity())
          << e.name;
      EXPECT_GT(m.traffic.items, 0u) << e.name;
    }
  }
}

TEST(ScenarioRegistry, LetterAliasesResolve) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  ASSERT_NE(reg.find("table1/cpu-a"), nullptr);
  EXPECT_EQ(reg.find("table1/cpu-a"), reg.find("table1/cpu-1"));
  EXPECT_EQ(reg.find("table1/rt-d"), reg.find("table1/rt-4"));
  EXPECT_EQ(reg.find("table1/cpu-e"), nullptr);
  EXPECT_EQ(reg.find("no-such"), nullptr);
  EXPECT_THROW(reg.build("no-such"), ScenarioError);
}

TEST(ScenarioRegistry, ItemsAndSeedOverrides) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  const auto cfg = reg.build("bursty-dma", 33, 99);
  for (const auto& m : cfg.masters) {
    EXPECT_EQ(m.traffic.items, 33u);
    EXPECT_EQ(m.traffic.seed, 99u);
  }
}

TEST(ScenarioRegistry, NewWorkloadClassesRunCleanOnTlm) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  for (const char* name :
       {"bursty-dma", "bank-conflict", "wbuf-stress", "qos-starvation"}) {
    auto cfg = reg.build(name, 30, 3);
    const auto r = core::run_tlm(cfg);
    EXPECT_TRUE(r.finished) << name;
    EXPECT_EQ(r.protocol_errors, 0u) << name << "\n" << r.first_violations;
    EXPECT_EQ(r.completed, 30u * cfg.masters.size()) << name;
  }
}

TEST(ScenarioRegistry, ParsedPresetRunsLikeBuiltPreset) {
  // A preset pushed through the text format must simulate identically.
  const auto& reg = scenario::ScenarioRegistry::builtin();
  const auto direct = reg.build("table1/cpu-1", 40, 5);
  const auto via_text = scenario::parse(scenario::serialize(direct));
  const auto r1 = core::run_tlm(direct);
  const auto r2 = core::run_tlm(via_text);
  EXPECT_EQ(r1.cycles, r2.cycles);
  EXPECT_EQ(r1.completed, r2.completed);
}

}  // namespace
