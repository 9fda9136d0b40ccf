// Configuration-space properties: across the §3.7 parameter space (filter
// masks, write-buffer depths, BI toggles, DDR presets, master
// counts) every run must drain, keep the protocol checkers silent, and
// conserve the workload's bytes.  These sweeps are the "flexibility and
// reusability" guarantee: no knob combination wedges the models.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>

#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::core;

void expect_clean(const SimResult& r, const std::string& what,
                  std::uint64_t expect_txns) {
  EXPECT_TRUE(r.finished) << what << " did not drain";
  EXPECT_EQ(r.completed, expect_txns) << what;
  EXPECT_EQ(r.protocol_errors, 0u) << what << "\n" << r.first_violations;
}

class FilterMaskSweep : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(FilterMaskSweep, TlmDrainsCleanUnderAnyMask) {
  PlatformConfig cfg = default_platform(3, 21, 25);
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.masters[2].traffic.kind = traffic::PatternKind::kRandom;
  cfg.bus.filter_mask = GetParam();
  expect_clean(run_tlm(cfg), "mask=" + std::to_string(GetParam()), 75);
}

TEST_P(FilterMaskSweep, RtlDrainsCleanUnderAnyMask) {
  PlatformConfig cfg = default_platform(2, 21, 15);
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.bus.filter_mask = GetParam();
  expect_clean(run_rtl(cfg), "mask=" + std::to_string(GetParam()), 30);
}

INSTANTIATE_TEST_SUITE_P(Masks, FilterMaskSweep,
                         ::testing::Values<std::uint8_t>(
                             ahb::kAllFilters, 0x7B /*no urgency*/,
                             0x6F /*no budget*/, 0x77 /*no bank*/,
                             0x5F /*no round-robin*/, 0x43, 0x41));

class DepthSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DepthSweep, BothModelsCleanAtEveryDepth) {
  PlatformConfig cfg = default_platform(2, 33, 20);
  cfg.masters[0].traffic.read_ratio = 0.3;
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.bus.write_buffer_depth = GetParam();
  const SimResult tlm = run_tlm(cfg);
  const SimResult rtl = run_rtl(cfg);
  expect_clean(tlm, "tlm depth=" + std::to_string(GetParam()), 40);
  expect_clean(rtl, "rtl depth=" + std::to_string(GetParam()), 40);
  if (GetParam() != 0) {
    return;
  }
  // Depth 0 is no buffer: no write may stall on it being full.
  for (const SimResult* r : {&tlm, &rtl}) {
    EXPECT_EQ(r->profile.write_buffer.full_stalls, 0u) << r->model;
    std::uint64_t wbuf_full = 0;
    for (const stats::MasterProfile& m : r->profile.masters) {
      wbuf_full += m.stalls[obs::StallClass::kWbufFull];
    }
    EXPECT_EQ(wbuf_full, 0u) << r->model;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u, 16u));

class FeatureToggles : public ::testing::TestWithParam<bool> {};

TEST_P(FeatureToggles, BiHintsOnAndOffClean) {
  const bool bi = GetParam();
  PlatformConfig cfg = default_platform(3, 8, 20);
  cfg.masters[1].traffic.kind = traffic::PatternKind::kDma;
  cfg.bus.bi_hints_enabled = bi;
  const std::string what = std::string("bi=") + (bi ? "1" : "0");
  expect_clean(run_tlm(cfg), "tlm " + what, 60);
  expect_clean(run_rtl(cfg), "rtl " + what, 60);
}

INSTANTIATE_TEST_SUITE_P(Toggles, FeatureToggles, ::testing::Bool());

TEST(ConfigSweep, Ddr400PresetWorks) {
  PlatformConfig cfg = default_platform(2, 3, 20);
  cfg.timing = ddr::ddr400();
  expect_clean(run_tlm(cfg), "ddr400 tlm", 40);
  expect_clean(run_rtl(cfg), "ddr400 rtl", 40);
}

TEST(ConfigSweep, BankSerialMappingWorks) {
  PlatformConfig cfg = default_platform(2, 3, 20);
  cfg.geom.mapping = ddr::Mapping::kBankRowCol;
  expect_clean(run_tlm(cfg), "bank-serial tlm", 40);
  expect_clean(run_rtl(cfg), "bank-serial rtl", 40);
}

TEST(ConfigSweep, RefreshHeavyTimingClean) {
  PlatformConfig cfg = default_platform(2, 3, 25);
  cfg.timing.tREFI = 120;  // refresh every 120 cycles: heavy interference
  cfg.timing.tRFC = 24;
  expect_clean(run_tlm(cfg), "refresh tlm", 50);
  expect_clean(run_rtl(cfg), "refresh rtl", 50);
}

class MasterCountSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(MasterCountSweep, ScalesFromOneToSix) {
  PlatformConfig cfg = default_platform(GetParam(), 13, 15);
  expect_clean(run_tlm(cfg), "tlm n=" + std::to_string(GetParam()),
               15ull * GetParam());
  expect_clean(run_rtl(cfg), "rtl n=" + std::to_string(GetParam()),
               15ull * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Counts, MasterCountSweep,
                         ::testing::Values(1u, 2u, 4u, 6u));

TEST(ConfigSweep, WideBurstsAndSizesClean) {
  PlatformConfig cfg = default_platform(2, 55, 30);
  for (auto& m : cfg.masters) {
    m.traffic.kind = traffic::PatternKind::kRandom;  // all bursts/sizes
  }
  expect_clean(run_tlm(cfg), "random tlm", 60);
  expect_clean(run_rtl(cfg), "random rtl", 60);
}

TEST(ConfigSweep, TinyUrgencyThresholdStillLive) {
  PlatformConfig cfg = default_platform(3, 5, 20);
  cfg.masters[0].qos = {ahb::MasterClass::kRealTime, 16};
  cfg.masters[0].traffic.kind = traffic::PatternKind::kRtStream;
  cfg.bus.urgency_slack_threshold = 1;
  expect_clean(run_tlm(cfg), "tight urgency", 60);
}

TEST(ConfigSweep, LargeEpochAndZeroObjectiveMix) {
  PlatformConfig cfg = default_platform(3, 5, 20);
  cfg.masters[1].qos.objective = 0;  // best effort
  cfg.masters[2].qos.objective = 1;  // starvation-prone budget
  expect_clean(run_tlm(cfg), "budget extremes", 60);
  expect_clean(run_rtl(cfg), "budget extremes rtl", 60);
}

TEST(ConfigSweep, SingleMasterWithoutBufferHasNoHandovers) {
  // A handover is a grant to a different master than the previous grant
  // (write buffer included).  One master and no buffer means every grant
  // goes to the same master, in both models.
  auto cfg = scenario::ScenarioRegistry::builtin().build("single-master", 60);
  scenario::apply_key(cfg, "bus.write_buffer_depth", "0");
  for (const SimResult& r : {run_tlm(cfg), run_rtl(cfg)}) {
    expect_clean(r, r.model, 60);
    EXPECT_GT(r.profile.bus.grants, 0u) << r.model;
    EXPECT_EQ(r.profile.bus.handovers, 0u) << r.model;
  }
}

TEST(ConfigSweep, BusKnobsMoveBothModelsTheSameWay) {
  // Every [bus] key means the same thing in both models, so moving it
  // between two values moves TLM and RTL cycles in the same direction.
  struct Move {
    const char* key;
    const char* from;
    const char* to;
  };
  const Move moves[] = {
      {"data_width_bytes", "4", "8"},
      {"filter_mask", "0x7f", "0x77"},
      {"write_buffer_depth", "4", "0"},
      {"bi_hints", "on", "off"},
      {"urgency_slack_threshold", "8", "64"},
  };
  const auto& reg = scenario::ScenarioRegistry::builtin();

  // The table covers every key the serializer writes under [bus].
  std::istringstream text(scenario::serialize(reg.build("single-master")));
  bool in_bus = false;
  for (std::string line; std::getline(text, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (line[0] == '[') {
      in_bus = line == "[bus]";
      continue;
    }
    if (in_bus) {
      const std::string key = line.substr(0, line.find(" = "));
      EXPECT_TRUE(std::any_of(std::begin(moves), std::end(moves),
                              [&](const Move& m) { return key == m.key; }))
          << "[bus] key '" << key << "' has no two-value move";
    }
  }

  const auto sign = [](sim::Cycle a, sim::Cycle b) {
    return (b > a) - (b < a);
  };
  for (const char* preset :
       {"table1/cpu-2", "table1/dma-3", "table1/rt-2", "qos-starvation"}) {
    for (const Move& m : moves) {
      const std::string key = std::string("bus.") + m.key;
      const std::string what =
          std::string(preset) + " " + key + " " + m.from + " -> " + m.to;
      PlatformConfig a = reg.build(preset, 300);
      PlatformConfig b = a;
      scenario::apply_key(a, key, m.from);
      scenario::apply_key(b, key, m.to);
      const SimResult tlm_a = run_tlm(a);
      const SimResult tlm_b = run_tlm(b);
      const SimResult rtl_a = run_rtl(a);
      const SimResult rtl_b = run_rtl(b);
      ASSERT_TRUE(tlm_a.finished && tlm_b.finished && rtl_a.finished &&
                  rtl_b.finished)
          << what;
      EXPECT_EQ(sign(tlm_a.cycles, tlm_b.cycles),
                sign(rtl_a.cycles, rtl_b.cycles))
          << what << ": TLM " << tlm_a.cycles << " -> " << tlm_b.cycles
          << ", RTL " << rtl_a.cycles << " -> " << rtl_b.cycles;
    }
  }
}

}  // namespace
