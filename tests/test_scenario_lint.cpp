// Static scenario/sweep analysis (`ahbp_sim lint`, src/sweep/analyze) —
// each check must trigger on a config engineered to violate it and stay
// quiet on the shipping presets.  Findings, not exceptions: a lint that
// aborts on the first problem hides the rest of them.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "sweep/analyze.hpp"

namespace {

using ahbp::sweep::LintOptions;
using ahbp::sweep::LintReport;
using ahbp::sweep::LintSeverity;

std::size_t count_check(const LintReport& r, std::string_view check) {
  std::size_t n = 0;
  for (const auto& f : r.findings) {
    n += f.check == check ? 1u : 0u;
  }
  return n;
}

const ahbp::sweep::LintFinding* find_check(const LintReport& r,
                                           std::string_view check) {
  for (const auto& f : r.findings) {
    if (f.check == check) {
      return &f;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reference resolution

TEST(ScenarioLint, BuiltinPresetIsClean) {
  const LintReport r = ahbp::sweep::lint_ref("table1/cpu-1");
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.is_sweep);
  EXPECT_EQ(r.points, 1u);
}

TEST(ScenarioLint, UnresolvableRefIsAnError) {
  const LintReport r = ahbp::sweep::lint_ref("no/such/preset-or-file");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count_check(r, "input/unreadable"), 1u);
}

// ---------------------------------------------------------------------------
// Whole-config checks

TEST(ScenarioLint, ProvablyInfeasibleBudgetIsAnError) {
  const LintReport r = ahbp::sweep::lint_text(
      "[platform]\n"
      "max_cycles = 100\n"
      "\n"
      "[master 0]\n"
      "pattern = dma\n"
      "items = 1000\n");
  EXPECT_FALSE(r.ok());
  EXPECT_GE(count_check(r, "timeout/provable"), 1u);
  EXPECT_GE(count_check(r, "bandwidth/oversubscribed"), 1u);
}

TEST(ScenarioLint, UnknownKeyIsAParseFinding) {
  const LintReport r = ahbp::sweep::lint_text(
      "[bus]\n"
      "widgets = 4\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count_check(r, "scenario/parse"), 1u);
}

TEST(ScenarioLint, NarrowWindowOnMultiChannelMemoryWarns) {
  const LintReport r = ahbp::sweep::lint_text(
      "[platform]\n"
      "max_cycles = 200000\n"
      "\n"
      "[ddr]\n"
      "channels = 2\n"
      "interleave_bytes = 1024\n"
      "\n"
      "[master 0]\n"
      "pattern = cpu\n"
      "items = 200\n"
      "base = 0x0\n"
      "span = 0x400\n"
      "\n"
      "[master 1]\n"
      "pattern = random\n"
      "items = 200\n"
      "base = 0x0\n"
      "span = 0x100000\n");
  EXPECT_TRUE(r.ok());
  ASSERT_GE(count_check(r, "channels/unbalanced"), 1u);
  EXPECT_EQ(find_check(r, "channels/unbalanced")->where, "master 0");
}

// ---------------------------------------------------------------------------
// Sweep auto-detection

TEST(ScenarioLint, TopLevelBaseMakesItASweep) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 0, 4\n");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.is_sweep);
  EXPECT_EQ(r.points, 2u);
  EXPECT_EQ(r.points_checked, 2u);
}

TEST(ScenarioLint, MasterWindowBaseKeyIsNotASweep) {
  // `base =` inside [master N] is an address window, not a sweep header —
  // regression for the auto-detector counting any `base` key.
  const LintReport r = ahbp::sweep::lint_text(
      "[platform]\n"
      "max_cycles = 200000\n"
      "\n"
      "[master 0]\n"
      "pattern = cpu\n"
      "items = 100\n"
      "base = 0x0\n"
      "span = 0x100000\n");
  EXPECT_FALSE(r.is_sweep);
  EXPECT_TRUE(r.ok());
}

// ---------------------------------------------------------------------------
// Axis hygiene

TEST(ScenarioLint, DuplicateAxisKeyIsAnError) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 0, 4\n"
      "bus.write_buffer_depth = 2, 8\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count_check(r, "axes/duplicate-key"), 1u);
}

TEST(ScenarioLint, DuplicateValueAndConstantAxisAreSoftFindings) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 4, 4\n"
      "bus.bi_hints = on\n");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(count_check(r, "axes/duplicate-value"), 1u);
  EXPECT_EQ(count_check(r, "axes/constant"), 1u);
}

TEST(ScenarioLint, BadAxisValueIsAttributedToItsPoint) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 4, banana\n");
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(count_check(r, "point/apply"), 1u);
  // Point 0 (depth=4) is fine; point 1 carries the bad value.
  EXPECT_NE(find_check(r, "point/apply")->where.find("point 1"),
            std::string::npos);
}

TEST(ScenarioLint, DeepCheckTruncationIsAnnounced) {
  LintOptions opts;
  opts.max_points = 2;
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 0, 1, 2, 4\n",
      opts);
  EXPECT_EQ(r.points, 4u);
  EXPECT_EQ(r.points_checked, 2u);
  EXPECT_EQ(count_check(r, "points/truncated"), 1u);
  EXPECT_TRUE(r.ok());  // a note, not an error
}

// ---------------------------------------------------------------------------
// Warm-up fork hazards (--warmup-cycles)

TEST(ScenarioLint, StimulusAxisUnderWarmupWarns) {
  LintOptions opts;
  opts.warmup_cycles = 1000;
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "master0.seed = 1, 2\n",
      opts);
  EXPECT_TRUE(r.ok());  // demotion is a performance hazard, not corruption
  EXPECT_EQ(count_check(r, "warmup/stimulus-axis"), 1u);
}

TEST(ScenarioLint, StructuralAxisUnderWarmupIsAnError) {
  LintOptions opts;
  opts.warmup_cycles = 1000;
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "ddr.banks = 2, 4, 8\n",
      opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(count_check(r, "warmup/structural-axis"), 1u);
}

TEST(ScenarioLint, SameAxesWithoutWarmupAreQuiet) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "master0.seed = 1, 2\n");
  EXPECT_EQ(count_check(r, "warmup/stimulus-axis"), 0u);
  EXPECT_EQ(count_check(r, "warmup/structural-axis"), 0u);
}

TEST(ScenarioLint, WarmupBeyondBudgetIsAnError) {
  LintOptions opts;
  opts.warmup_cycles = 100;
  const LintReport r = ahbp::sweep::lint_text(
      "[platform]\n"
      "max_cycles = 100\n"
      "\n"
      "[master 0]\n"
      "pattern = cpu\n"
      "items = 1\n",
      opts);
  EXPECT_EQ(count_check(r, "warmup/exceeds-max"), 1u);
}

// ---------------------------------------------------------------------------
// Report rendering

TEST(ScenarioLint, ReportListsFindingsAndSummary) {
  const LintReport r = ahbp::sweep::lint_text(
      "base = table1/cpu-1\n"
      "\n"
      "[sweep]\n"
      "bus.write_buffer_depth = 0, 4\n"
      "bus.write_buffer_depth = 2, 8\n");
  std::ostringstream os;
  ahbp::sweep::write_report(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("error"), std::string::npos);
  EXPECT_NE(out.find("axes/duplicate-key"), std::string::npos);
}

}  // namespace
